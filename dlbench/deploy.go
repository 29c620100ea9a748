package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime/metrics"
	"slices"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/hostdb"
	"repro/internal/obs"
	"repro/internal/paxoscommit"
	"repro/internal/rpc"
	"repro/internal/storage"
	"repro/internal/workload"
)

// deployCfg shapes one deployment. Everything not named here keeps the
// program's production defaults (SyncCommit and group commit on, 2PC,
// trace sampling 1.0).
type deployCfg struct {
	servers   []string
	dataDir   string // non-empty: page-backed host and DLFMs with file WALs
	dlfmPool  int    // DLFM buffer pool frames when page-backed
	acceptors int    // > 0: Paxos Commit over this many acceptors
	noSample  bool   // disable the program's span sampling
}

// deployment is a host database and its DLFMs built by workload.NewStack,
// with the host's DLFM dialers re-pointed at the benchmark's own endpoints
// (wrapped when a meter is given) and, for Paxos Commit, an acceptor set
// wired from public constructors so its agents can be wrapped too.
type deployment struct {
	cfg     deployCfg
	st      *workload.Stack
	eps     map[string]*endpoint
	accs    []*paxoscommit.Acceptor
	accEps  []*endpoint
	callers []*lazyCaller
}

func deploy(cfg deployCfg, m *meter) (*deployment, error) {
	d := &deployment{cfg: cfg, eps: make(map[string]*endpoint)}
	for i := 0; i < cfg.acceptors; i++ {
		acc, err := paxoscommit.NewAcceptor(fmt.Sprintf("acc%d", i+1), "")
		if err != nil {
			d.close()
			return nil, err
		}
		ep := newEndpoint(acc.NewAgent, m, "acceptor")
		d.accs = append(d.accs, acc)
		d.accEps = append(d.accEps, ep)
		d.callers = append(d.callers, &lazyCaller{ep: ep})
	}
	learnerCallers := make([]paxoscommit.Caller, len(d.callers))
	for i, c := range d.callers {
		learnerCallers[i] = c
	}
	if cfg.noSample {
		prev := obs.DefaultTracerConfig()
		off := prev
		off.SampleRate = -1
		obs.SetDefaultTracerConfig(off)
		defer obs.SetDefaultTracerConfig(prev)
	}
	sc := workload.StackConfig{Servers: cfg.servers, DataDir: cfg.dataDir}
	if cfg.acceptors > 0 {
		sc.MutateHost = func(c *hostdb.Config) { c.CommitProtocol = "paxos" }
	}
	sc.MutateDLFM = func(name string, c *core.Config) {
		if cfg.dataDir != "" && cfg.dlfmPool > 0 {
			c.DB.PoolPages = cfg.dlfmPool
		}
		if cfg.acceptors > 0 {
			// Learner IDs: the host is 1, DLFM i is i+2, as workload.NewStack
			// assigns them.
			learner := &paxoscommit.Learner{
				Acceptors: learnerCallers,
				ID:        int64(slices.Index(cfg.servers, name) + 2),
				Stride:    paxoscommit.DefaultStride,
			}
			c.OutcomeLearner = learner.Outcome
		}
	}
	st, err := workload.NewStack(sc)
	if err != nil {
		d.close()
		return nil, err
	}
	d.st = st
	for _, name := range cfg.servers {
		ep := newEndpoint(st.DLFMs[name].NewAgent, m, "core")
		d.eps[name] = ep
		st.Host.RegisterDLFM(name, ep.dialer())
	}
	for i, ep := range d.accEps {
		st.Host.RegisterAcceptor(fmt.Sprintf("acc%d", i+1), ep.dialer())
	}
	return d, nil
}

// crash severs the named DLFM's connections and crash-restarts it: the
// server recovers from its log before Crash returns. Load must be stopped
// and no registry may be read meanwhile (the engine swaps its lock manager
// under its latch, which a registry export would invert).
func (d *deployment) crash(name string) error {
	ep := d.eps[name]
	ep.halt()
	defer ep.reopen()
	return d.st.DLFMs[name].Crash()
}

func (d *deployment) close() {
	for _, c := range d.callers {
		c.close()
	}
	for _, ep := range d.eps {
		ep.halt()
	}
	for _, ep := range d.accEps {
		ep.halt()
	}
	if d.st != nil {
		d.st.Close()
	}
	for _, a := range d.accs {
		a.Close()
	}
}

// drain re-drives indoubt resolution until no DLFM holds a prepared
// transaction, and reports how many are left if that does not happen.
func (d *deployment) drain() int {
	left := d.st.PreparedTxns()
	for round := 0; round < 100 && left > 0; round++ {
		if _, err := d.st.Host.ResolveIndoubts(); err != nil {
			fmt.Fprintln(os.Stderr, "dlbench: resolve indoubts:", err)
		}
		if left = d.st.PreparedTxns(); left > 0 {
			time.Sleep(time.Duration(min(round+1, 10)) * 20 * time.Millisecond)
		}
	}
	return left
}

// dbCounts is one database's counters, read from its own Stats(),
// PoolStats() and registry (never a whole-registry export).
type dbCounts struct {
	eng       engine.Stats
	pool      storage.PoolStats
	lockWait  obs.HistogramData
	walSync   obs.HistogramData
	gcBatches int64
	gcCommits int64
}

func readDB(db *engine.DB, reg *obs.Registry) dbCounts {
	return dbCounts{
		eng:       db.Stats(),
		pool:      db.PoolStats(),
		lockWait:  reg.Histogram("lock_wait_seconds").Export(),
		walSync:   reg.Histogram("wal_sync_seconds").Export(),
		gcBatches: reg.Counter("wal_group_commit_batches_total").Load(),
		gcCommits: reg.Counter("wal_group_commit_batch_commits_total").Load(),
	}
}

// counts is a snapshot of every counter the per-layer metrics are built
// from. Take it only while load is stopped and no crash is in progress.
type counts struct {
	host       dbCounts
	dlfm       map[string]dbCounts
	core       core.Snapshot // summed over DLFMs
	hostStats  hostdb.Snapshot
	reconnects int64
	reissues   int64
	proc       [4]float64 // allocs, alloc bytes, gc cpu s, total cpu s
}

var procMetrics = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readProc() (out [4]float64) {
	s := make([]metrics.Sample, len(procMetrics))
	for i, n := range procMetrics {
		s[i].Name = n
	}
	metrics.Read(s)
	for i := range s {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			out[i] = float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			out[i] = s[i].Value.Float64()
		}
	}
	return out
}

func (d *deployment) read() counts {
	c := counts{
		host:      readDB(d.st.Host.Engine(), d.st.Host.Obs()),
		dlfm:      make(map[string]dbCounts),
		hostStats: d.st.Host.Stats(),
		proc:      readProc(),
	}
	for _, name := range d.cfg.servers {
		srv := d.st.DLFMs[name]
		c.dlfm[name] = readDB(srv.DB(), srv.Obs())
		s := srv.Stats()
		c.core.Phase2Retries += s.Phase2Retries
		c.core.PrepareFails += s.PrepareFails
	}
	_, c.reconnects, c.reissues = rpc.Stats()
	return c
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) int64 {
	var n int64
	// A file or directory that cannot be read counts as empty.
	_ = filepath.Walk(dir, func(_ string, fi os.FileInfo, err error) error {
		if err == nil && fi.Mode().IsRegular() {
			n += fi.Size()
		}
		return nil
	})
	return n
}

func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
