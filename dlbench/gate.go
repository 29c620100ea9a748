package main

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/hostdb"
	"repro/internal/workload"
)

// tableSpec is a workload's host table: its DDL, key column "id" and its
// DATALINK columns in order.
type tableSpec struct {
	name   string
	ddl    string
	dlCols []string
}

// ledger remembers the state every acknowledged commit left behind: for
// each row id the DATALINK URLs it holds, or nil once deleted. Rows whose
// last transaction failed are marked unknown and not checked.
type ledger struct {
	mu      sync.Mutex
	rows    map[int64][]string
	unknown map[int64]bool
}

func newLedger() *ledger {
	return &ledger{rows: make(map[int64][]string), unknown: make(map[int64]bool)}
}

func (l *ledger) set(id int64, urls []string) {
	l.mu.Lock()
	l.rows[id] = urls
	delete(l.unknown, id)
	l.mu.Unlock()
}

// replaceFirst records an update of the row's first DATALINK column.
func (l *ledger) replaceFirst(id int64, url string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if old := l.rows[id]; old != nil {
		urls := append([]string(nil), old...)
		urls[0] = url
		l.rows[id] = urls
	}
}

func (l *ledger) lost(id int64) {
	l.mu.Lock()
	l.unknown[id] = true
	l.mu.Unlock()
}

// gate drains indoubt transactions and checks the cross-system invariant
// (workload.CheckConsistency), that no DLFM holds a prepared transaction,
// and that every acknowledged commit is present in the host table, in
// dlfm_file and in the file server. It returns every violation, naming the
// row. Load must be stopped.
func gate(d *deployment, spec tableSpec, l *ledger) []string {
	var out []string
	if left := d.drain(); left > 0 {
		out = append(out, fmt.Sprintf("%d prepared transactions stuck at the DLFMs", left))
	}
	v, err := workload.CheckConsistency(d.st, spec.name)
	if err != nil {
		return append(out, "consistency check failed: "+err.Error())
	}
	out = append(out, v...)
	return append(out, checkAcked(d, spec, l)...)
}

func checkAcked(d *deployment, spec tableSpec, l *ledger) []string {
	eng := d.st.Host.Engine()
	meta, err := eng.Catalog().Table(spec.name)
	if err != nil {
		return []string{"host table: " + err.Error()}
	}
	col := make(map[string]int)
	for i, c := range meta.Schema.Cols {
		col[c.Name] = i
	}
	rows, err := eng.DumpTable(spec.name)
	if err != nil {
		return []string{"host table: " + err.Error()}
	}
	host := make(map[int64][]string, len(rows))
	for _, r := range rows {
		urls := make([]string, len(spec.dlCols))
		for i, c := range spec.dlCols {
			if v := r[col[c]]; !v.IsNull() {
				urls[i] = v.Text()
			}
		}
		host[r[col["id"]].Int64()] = urls
	}
	linked := make(map[string]map[string]bool)
	for name, srv := range d.st.DLFMs {
		files, err := srv.DB().DumpTable("dlfm_file")
		if err != nil {
			return []string{name + " dlfm_file: " + err.Error()}
		}
		linked[name] = make(map[string]bool)
		for _, f := range files {
			// dlfm_file: name, grpid, recid, lnk_txn, unlnk_txn, unlnk_time,
			// state, chkflag, ...
			if f[6].Text() == "L" && f[7].Int64() == 0 {
				linked[name][f[0].Text()] = true
			}
		}
	}

	l.mu.Lock()
	defer l.mu.Unlock()
	ids := make([]int64, 0, len(l.rows))
	for id := range l.rows {
		if !l.unknown[id] {
			ids = append(ids, id)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	var out []string
	for _, id := range ids {
		want := l.rows[id]
		got, present := host[id]
		switch {
		case want == nil && present:
			out = append(out, fmt.Sprintf("%s id=%d: deleted by an acknowledged commit but present in the host table", spec.name, id))
			continue
		case want == nil:
			continue
		case !present:
			out = append(out, fmt.Sprintf("%s id=%d: acknowledged commit missing from the host table", spec.name, id))
			continue
		}
		for i, url := range want {
			if got[i] != url {
				out = append(out, fmt.Sprintf("%s id=%d %s: host holds %q, acknowledged %q", spec.name, id, spec.dlCols[i], got[i], url))
				continue
			}
			server, path, err := hostdb.ParseURL(url)
			if err != nil {
				out = append(out, fmt.Sprintf("%s id=%d: bad URL %q", spec.name, id, url))
				continue
			}
			if !linked[server][path] {
				out = append(out, fmt.Sprintf("%s id=%d: %s not linked in %s dlfm_file", spec.name, id, path, server))
			}
			if _, err := d.st.FS[server].Stat(path); err != nil {
				out = append(out, fmt.Sprintf("%s id=%d: %s missing from file server %s", spec.name, id, path, server))
			}
		}
	}
	return out
}
