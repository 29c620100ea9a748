package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/hostdb"
	"repro/internal/value"
	"repro/internal/workload"
)

// Fixed inputs. These are part of the benchmark's definition: changing one
// changes what the benchmark measures, so it needs a fresh baseline.
const (
	// setups is how many times a run builds its deployment; setup_s is the
	// median, and the last deployment serves the window.
	setups = 3
	// restarts is how many crash-restarts each set-up times; restart_s is
	// the median over every set-up.
	restarts = 8
	// segments is how many equal parts an untraced window is cut into.
	segments = 10
	// probes is the number of read and of update transactions timed after
	// each segment on the workloads whose own mix has none.
	probes = 100
	// parseReps is how often sql.Parse is timed per distinct statement.
	parseReps = 1000
	// traceBlock is the length of the alternating traced/untraced blocks
	// of a traced run.
	traceBlock = 100 * time.Millisecond
)

// storm_2dlfm's open-loop schedule: a reference rate that gives the
// end-to-end latencies, and a fixed ladder of absolute rates, each held for
// stormRung, that the traced run climbs until a rung misses stormLimit or
// ends with a backlog above stormBacklog.
const (
	stormRefRate = 100.0
	stormRung    = time.Second
	stormLimit   = 50 * time.Millisecond
	stormBacklog = 10
)

var stormLadder = []float64{150, 200, 250, 300, 350, 400, 500, 600, 700, 800, 1000}

// workloadDef is one named workload.
type workloadDef struct {
	name     string
	sessions int
	deploy   deployCfg
	table    tableSpec
	servers  []string // the file server of each DATALINK column
	preload  int64
	warmup   int  // transactions per session before the window
	mixed    bool // workload.DefaultMix instead of inserts only
	open     bool // open loop (storm) instead of closed loop
	// samplingTax makes the traced run also measure obs.sampling_tax_pct.
	samplingTax bool
}

var workloads = map[string]workloadDef{
	"link_mem": {
		name:     "link_mem",
		sessions: 1,
		deploy:   deployCfg{servers: []string{"fs1"}},
		table: tableSpec{name: "lm", ddl: `CREATE TABLE lm (id BIGINT NOT NULL, doc VARCHAR)`,
			dlCols: []string{"doc"}},
		servers:     []string{"fs1"},
		preload:     4000,
		warmup:      1000,
		samplingTax: true,
	},
	"mixed_paged": {
		name:     "mixed_paged",
		sessions: 2,
		deploy:   deployCfg{servers: []string{"fs1"}, dataDir: "paged", dlfmPool: 64},
		table: tableSpec{name: "mp", ddl: `CREATE TABLE mp (id BIGINT NOT NULL, doc VARCHAR)`,
			dlCols: []string{"doc"}},
		servers: []string{"fs1"},
		preload: 6000,
		warmup:  200,
		mixed:   true,
	},
	"storm_2dlfm": {
		name:     "storm_2dlfm",
		sessions: 2,
		deploy:   deployCfg{servers: []string{"fs1", "fs2"}, acceptors: 3},
		table: tableSpec{name: "s2", ddl: `CREATE TABLE s2 (id BIGINT NOT NULL, c1 VARCHAR, c2 VARCHAR)`,
			dlCols: []string{"c1", "c2"}},
		servers: []string{"fs1", "fs2"},
		preload: 2000,
		warmup:  300,
		open:    true,
	},
}

// runCfg is one invocation.
type runCfg struct {
	seed    int64
	seconds int
	trace   bool
	scratch string // per-run directory for data, removed at the end
	out     string // directory the span dump is written to
}

// result is what one run reports.
type result struct {
	attempted, failed int64
	metrics           map[string]float64
	violations        []string
	notes             []string
}

func (r *result) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// opSource yields a session's operations; insert always yields an insert.
type opSource interface {
	next() op
	insert() op
}

// seqGen yields inserts of consecutive ids.
type seqGen struct {
	prefix   string
	id, step int64
}

func (g *seqGen) insert() op {
	id := g.id
	g.id += g.step
	return op{kind: opInsert, id: id, path: fmt.Sprintf("%s/f%08d", g.prefix, id)}
}

func (g *seqGen) next() op { return g.insert() }

// bench is the state of one run.
type bench struct {
	w    workloadDef
	rc   runCfg
	m    *meter // nil in untraced runs
	sql  statements
	res  *result
	d    *deployment
	dir  string // the deployment's data directory, "" in memory
	l    *ledger
	sess []*hostdb.Session
	gens []opSource
}

type statements struct{ insert, update, del, read string }

func newStatements(t tableSpec) statements {
	cols, marks := "id", "?"
	for _, c := range t.dlCols {
		cols += ", " + c
		marks += ", ?"
	}
	return statements{
		insert: fmt.Sprintf("INSERT INTO %s (%s) VALUES (%s)", t.name, cols, marks),
		update: fmt.Sprintf("UPDATE %s SET %s = ? WHERE id = ?", t.name, t.dlCols[0]),
		del:    fmt.Sprintf("DELETE FROM %s WHERE id = ?", t.name),
		read:   fmt.Sprintf("SELECT %s FROM %s WHERE id = ?", cols, t.name),
	}
}

// tracing reports whether the current block records spans.
func (b *bench) tracing() bool { return b.m != nil && b.m.spans.on.Load() }

func (b *bench) exec(s *hostdb.Session, text string, params ...value.Value) error {
	start := time.Now()
	_, err := s.Exec(text, params...)
	b.m.observe("hostdb.exec", s.TxnID(), "hostdb", "Exec", start, time.Now())
	return err
}

func (b *bench) query(s *hostdb.Session, text string, params ...value.Value) error {
	start := time.Now()
	_, err := s.Query(text, params...)
	b.m.observe("hostdb.query", s.TxnID(), "hostdb", "Query", start, time.Now())
	return err
}

func (b *bench) commit(s *hostdb.Session) error {
	txn := s.TxnID()
	start := time.Now()
	err := s.Commit()
	b.m.observe("hostdb.commit", txn, "hostdb", "Commit", start, time.Now())
	return err
}

// files creates the files an operation links; the application writes a
// file before it links it, so this stays outside the timed transaction.
func (b *bench) files(o op) error {
	n := len(b.w.servers)
	switch o.kind {
	case opUpdate:
		n = 1
	case opInsert:
	default:
		return nil
	}
	for _, server := range b.w.servers[:n] {
		if err := b.d.st.FS[server].Create(o.path, "app", []byte(o.path)); err != nil {
			return fmt.Errorf("create %s on %s: %w", o.path, server, err)
		}
	}
	return nil
}

// do runs one transaction and returns its latency from the first statement
// to the return of Commit. The ledger learns the outcome.
func (b *bench) do(s *hostdb.Session, o op) (time.Duration, error) {
	var urls []string
	start := time.Now()
	var err error
	switch o.kind {
	case opInsert:
		params := []value.Value{value.Int(o.id)}
		for _, server := range b.w.servers {
			urls = append(urls, hostdb.URL(server, o.path))
			params = append(params, value.Str(urls[len(urls)-1]))
		}
		err = b.exec(s, b.sql.insert, params...)
	case opUpdate:
		urls = []string{hostdb.URL(b.w.servers[0], o.path)}
		err = b.exec(s, b.sql.update, value.Str(urls[0]), value.Int(o.id))
	case opDelete:
		err = b.exec(s, b.sql.del, value.Int(o.id))
	case opRead:
		err = b.query(s, b.sql.read, value.Int(o.id))
	}
	txn := s.TxnID()
	if err == nil {
		err = b.commit(s)
	}
	end := time.Now()
	if err != nil {
		if s.TxnID() != 0 {
			_ = s.Rollback() // the transaction's own failure is what gets reported
		}
		if o.kind != opRead {
			b.l.lost(o.id)
		}
		return 0, fmt.Errorf("%s id=%d: %w", o.kind, o.id, err)
	}
	switch o.kind {
	case opInsert:
		b.l.set(o.id, urls)
	case opUpdate:
		b.l.replaceFirst(o.id, urls[0])
	case opDelete:
		b.l.set(o.id, nil)
	}
	b.m.observe("txn", txn, "txn", o.kind.String(), start, end)
	return end.Sub(start), nil
}

// loopStats collects a load phase's outcomes.
type loopStats struct {
	all, traced, untraced samples
	byKind                [4]samples
	attempted, failed     atomic.Int64
	mu                    sync.Mutex
	firstErr              error
}

func (ls *loopStats) record(kind opKind, d time.Duration, err error, traced, metered bool) {
	ls.attempted.Add(1)
	if err != nil {
		ls.failed.Add(1)
		ls.mu.Lock()
		if ls.firstErr == nil {
			ls.firstErr = err
		}
		ls.mu.Unlock()
		return
	}
	ls.all.add(d)
	ls.byKind[kind].add(d)
	if metered {
		if traced {
			ls.traced.add(d)
		} else {
			ls.untraced.add(d)
		}
	}
}

// closedLoop runs every session back to back, count transactions each or,
// with count 0, until the deadline.
func (b *bench) closedLoop(deadline time.Time, count int, ls *loopStats) {
	var wg sync.WaitGroup
	for i := range b.sess {
		wg.Add(1)
		go func(s *hostdb.Session, gen opSource) {
			defer wg.Done()
			for n := 0; count == 0 || n < count; n++ {
				if count == 0 && !time.Now().Before(deadline) {
					return
				}
				o := gen.next()
				if err := b.files(o); err != nil {
					ls.record(o.kind, 0, err, false, false)
					continue
				}
				tr := b.tracing()
				d, err := b.do(s, o)
				ls.record(o.kind, d, err, tr && b.tracing(), b.m != nil)
			}
		}(b.sess[i], b.gens[i])
	}
	wg.Wait()
}

// stormStats collects one open-loop phase.
type stormStats struct {
	loopStats
	queue, late            samples
	backlogMax, backlogEnd int
	elapsed                time.Duration // first due time to last completion
}

// openLoop serves ops at their due offsets. The sessions take arrivals in
// due order from a shared cursor: an idle session sleeps until the next
// arrival is due, a busy one takes the next as soon as it is free. So the
// loop stays open however far the sessions fall behind, with no generator
// goroutine between the schedule and the sessions. Latency runs from the
// due time.
func (b *bench) openLoop(ops []op, at []time.Duration) *stormStats {
	ss := &stormStats{}
	picked := make([]time.Duration, len(ops)) // pick-up offsets, by arrival
	var mu sync.Mutex
	next := 0
	start := time.Now()
	var wg sync.WaitGroup
	for _, s := range b.sess {
		wg.Add(1)
		go func(s *hostdb.Session) {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				if i == len(ops) {
					mu.Unlock()
					return
				}
				next++
				mu.Unlock()
				due := start.Add(at[i])
				idle := false
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
					idle = true
				}
				pick := time.Since(start)
				if idle {
					ss.late.add(pick - at[i])
				}
				ss.queue.add(pick - at[i])
				// Backlog: arrivals already due but not yet taken.
				backlog := sort.Search(len(at), func(j int) bool { return at[j] > pick }) - i - 1
				mu.Lock()
				picked[i] = pick
				ss.backlogMax = max(ss.backlogMax, backlog)
				mu.Unlock()
				tr := b.tracing()
				_, err := b.do(s, ops[i])
				ss.record(ops[i].kind, time.Since(due), err, tr && b.tracing(), b.m != nil)
			}
		}(s)
	}
	wg.Wait()
	ss.elapsed = time.Since(start)
	if n := len(at); n > 0 {
		for _, p := range picked[:n-1] {
			if p > at[n-1] {
				ss.backlogEnd++
			}
		}
	}
	return ss
}

// stormOps builds the ops of one open-loop phase, ids from base, and
// creates their files.
func (b *bench) stormOps(base int64, n int) ([]op, error) {
	g := &seqGen{prefix: fmt.Sprintf("/st/b%d", base), id: base, step: 1}
	ops := make([]op, n)
	for i := range ops {
		ops[i] = g.insert()
		if err := b.files(ops[i]); err != nil {
			return nil, err
		}
	}
	return ops, nil
}

// setup builds a fresh deployment, creates and preloads the table,
// crash-restarts the first DLFM several times (timing each to the first
// commit after recovery) and warms up. It returns the set-up time and the
// restart times in seconds.
func (b *bench) setup(k int) (time.Duration, []float64, error) {
	start := time.Now()
	cfg := b.w.deploy
	if cfg.dataDir != "" {
		cfg.dataDir = filepath.Join(b.rc.scratch, fmt.Sprintf("setup%d", k))
	}
	d, err := deploy(cfg, b.m)
	if err != nil {
		return 0, nil, fmt.Errorf("deploy: %w", err)
	}
	b.d, b.dir, b.l = d, cfg.dataDir, newLedger()
	b.sess, b.gens = nil, nil
	for i := 0; i < b.w.sessions; i++ {
		b.sess = append(b.sess, d.st.Host.Session())
		if b.w.mixed {
			b.gens = append(b.gens, newOpGen(b.rc.seed, i, b.w.sessions, b.w.preload, workload.DefaultMix()))
		} else {
			b.gens = append(b.gens, &seqGen{prefix: fmt.Sprintf("/w/s%d", b.rc.seed), id: b.w.preload + int64(i), step: int64(b.w.sessions)})
		}
	}
	if err := b.createTable(); err != nil {
		return 0, nil, err
	}
	if err := b.preload(); err != nil {
		return 0, nil, err
	}
	var restart []float64
	for i := 0; i < restarts; i++ {
		r, err := b.timeRestart()
		if err != nil {
			return 0, nil, err
		}
		restart = append(restart, r.Seconds())
	}
	var warm loopStats
	b.closedLoop(time.Time{}, b.w.warmup, &warm)
	if err := warm.firstErr; err != nil {
		return 0, nil, fmt.Errorf("warm-up: %w", err)
	}
	return time.Since(start), restart, nil
}

func (b *bench) createTable() error {
	t := b.w.table
	cols := make([]hostdb.DatalinkCol, len(t.dlCols))
	for i, c := range t.dlCols {
		cols[i] = hostdb.DatalinkCol{Name: c}
	}
	host := b.d.st.Host
	if err := host.CreateTable(t.ddl, cols...); err != nil {
		return err
	}
	if _, err := host.Engine().Connect().Exec(fmt.Sprintf(`CREATE UNIQUE INDEX %s_id ON %s (id)`, t.name, t.name)); err != nil {
		return err
	}
	// As workload.Runner does: plan the host table as a large one, so
	// point statements use the id index.
	big := int64(10_000_000)
	colCard := map[string]int64{"id": big}
	for _, c := range t.dlCols {
		colCard[c] = big
	}
	return host.Engine().SetStats(t.name, big, colCard)
}

// preload inserts ids [0, preload) in transactions of 100 rows.
func (b *bench) preload() error {
	s := b.sess[0]
	var batch []op
	flush := func() error {
		if err := b.commit(s); err != nil {
			return fmt.Errorf("preload commit: %w", err)
		}
		for _, o := range batch {
			var urls []string
			for _, server := range b.w.servers {
				urls = append(urls, hostdb.URL(server, o.path))
			}
			b.l.set(o.id, urls)
		}
		batch = batch[:0]
		return nil
	}
	for id := int64(0); id < b.w.preload; id++ {
		o := op{kind: opInsert, id: id, path: fmt.Sprintf("/pre/f%08d", id)}
		if err := b.files(o); err != nil {
			return err
		}
		params := []value.Value{value.Int(id)}
		for _, server := range b.w.servers {
			params = append(params, value.Str(hostdb.URL(server, o.path)))
		}
		if _, err := s.Exec(b.sql.insert, params...); err != nil {
			return fmt.Errorf("preload id=%d: %w", id, err)
		}
		batch = append(batch, o)
		if len(batch) == 100 {
			if err := flush(); err != nil {
				return err
			}
		}
	}
	if len(batch) > 0 {
		return flush()
	}
	return nil
}

// timeRestart crash-restarts the first DLFM and returns the time from the
// crash to the first committed transaction after recovery.
func (b *bench) timeRestart() (time.Duration, error) {
	start := time.Now()
	if err := b.d.crash(b.w.servers[0]); err != nil {
		return 0, fmt.Errorf("crash %s: %w", b.w.servers[0], err)
	}
	for attempt := 1; ; attempt++ {
		o := b.gens[0].insert()
		if err := b.files(o); err != nil {
			return 0, err
		}
		_, err := b.do(b.sess[0], o)
		if err == nil {
			return time.Since(start), nil
		}
		if attempt == 20 {
			return 0, fmt.Errorf("no commit after restart: %w", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// heapPeak samples the Go heap until stop is called, which returns the
// peak in bytes.
func heapPeak() (stop func() float64) {
	quit, done := make(chan struct{}), make(chan float64)
	go func() {
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		var peak uint64
		t := time.NewTicker(10 * time.Millisecond)
		defer t.Stop()
		for {
			metrics.Read(s)
			peak = max(peak, s[0].Value.Uint64())
			select {
			case <-quit:
				done <- float64(peak)
				return
			case <-t.C:
			}
		}
	}()
	return func() float64 { close(quit); return <-done }
}

// alternate flips span recording every traceBlock until stop is called.
func (b *bench) alternate() (stop func()) {
	quit, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		t := time.NewTicker(traceBlock)
		defer t.Stop()
		for {
			select {
			case <-quit:
				b.m.spans.on.Store(false)
				return
			case <-t.C:
				b.m.spans.on.Store(!b.m.spans.on.Load())
			}
		}
	}()
	return func() { close(quit); <-done }
}

// runWorkload performs one run of w. Two set-ups come before the window
// and, in an untraced run, one after it, so the set-up and restart samples
// are spread over the run and a few slow seconds of the machine move their
// medians less.
func runWorkload(w workloadDef, rc runCfg) (*result, error) {
	b := &bench{w: w, rc: rc, sql: newStatements(w.table), res: &result{metrics: make(map[string]float64)}}
	if rc.trace {
		b.m = newMeter()
	}
	var setupS, restartS []float64
	measureSetup := func(k int) error {
		if b.d != nil {
			b.closeDeployment()
		}
		dur, restart, err := b.setup(k)
		if err != nil {
			if b.d != nil {
				b.closeDeployment()
			}
			return fmt.Errorf("setup %d: %w", k+1, err)
		}
		setupS = append(setupS, dur.Seconds())
		restartS = append(restartS, restart...)
		return nil
	}
	for k := 0; k < setups-1; k++ {
		if err := measureSetup(k); err != nil {
			return nil, err
		}
	}
	b.describeSizes()
	window := time.Duration(rc.seconds) * time.Second
	if rc.trace {
		err := b.tracedRun(window)
		b.closeDeployment()
		return b.res, err
	}
	if err := b.measuredRun(window); err != nil {
		b.closeDeployment()
		return nil, err
	}
	if err := measureSetup(setups - 1); err != nil {
		return nil, err
	}
	b.closeDeployment()
	b.res.metrics["restart_s"] = medianF(restartS)
	b.res.metrics["setup_s"] = medianF(setupS)
	b.res.notef("set-up times %.3f s; restart times %.4f s", setupS, restartS)
	return b.res, nil
}

// measuredRun runs the untraced window as equal segments and reports the
// median over segments of each segment's throughput and latency
// percentiles. On the insert-only workloads a burst of read and update
// probes follows each segment, outside the segment's clock.
func (b *bench) measuredRun(window time.Duration) error {
	seg := window / segments
	var tps, p50, p90, rd, up []float64
	var n, nr, nu int
	for i := 0; i < segments; i++ {
		var ls *loopStats
		elapsed := seg
		if b.w.open {
			ss, err := b.stormPhase(10_000_000+int64(i)*100_000, stormRefRate, seg, b.rc.seed*segments+int64(i))
			if err != nil {
				return err
			}
			ls, elapsed = &ss.loopStats, ss.elapsed
		} else {
			ls = &loopStats{}
			start := time.Now()
			b.closedLoop(start.Add(seg), 0, ls)
			elapsed = time.Since(start)
		}
		b.res.attempted += ls.attempted.Load()
		b.res.failed += ls.failed.Load()
		if ls.firstErr != nil && len(b.res.notes) < 20 {
			b.res.notef("failure: %v", ls.firstErr)
		}
		tps = append(tps, float64(ls.all.n())/elapsed.Seconds())
		p50 = append(p50, ms(ls.all.q(0.50)))
		p90 = append(p90, ms(ls.all.q(0.90)))
		read, update := &ls.byKind[opRead], &ls.byKind[opUpdate]
		if !b.w.mixed {
			var pr loopStats
			if err := b.probe(&pr, i); err != nil {
				return err
			}
			read, update = &pr.byKind[opRead], &pr.byKind[opUpdate]
		}
		rd = append(rd, ms(read.q(0.50)))
		up = append(up, ms(update.q(0.50)))
		n, nr, nu = n+ls.all.n(), nr+read.n(), nu+update.n()
	}
	mt := b.res.metrics
	mt["txn_per_s"] = medianF(tps)
	mt["txn_p50_ms"] = medianF(p50)
	mt["read_p50_ms"] = medianF(rd)
	mt["update_p50_ms"] = medianF(up)
	b.res.notef("%d segments of %s: txn/s %.1f, p50 %.3f ms, p90 %.3f ms", segments, seg, tps, p50, p90)
	b.res.notef("samples: txn %d, read %d, update %d; error_pct %.4f",
		n, nr, nu, 100*per(float64(b.res.failed), float64(b.res.attempted)))
	b.finalGate()
	return nil
}

// stormPhase runs one open-loop phase at rate for dur with ids from base.
func (b *bench) stormPhase(base int64, rate float64, dur time.Duration, seed int64) (*stormStats, error) {
	at := poissonArrivals(seed, rate, dur)
	ops, err := b.stormOps(base, len(at))
	if err != nil {
		return nil, err
	}
	return b.openLoop(ops, at), nil
}

// probe times a burst of reads and updates of preloaded rows, one
// session, one transaction at a time.
func (b *bench) probe(ls *loopStats, burst int) error {
	ids := probeIDs(b.rc.seed*segments+int64(burst), probes, b.w.preload)
	for i, id := range ids {
		o := op{kind: opRead, id: id}
		d, err := b.do(b.sess[0], o)
		ls.record(o.kind, d, err, false, false)
		o = op{kind: opUpdate, id: id, path: fmt.Sprintf("/probe/s%d/b%d/u%05d", b.rc.seed, burst, i)}
		if err := b.files(o); err != nil {
			return err
		}
		d, err = b.do(b.sess[0], o)
		ls.record(o.kind, d, err, false, false)
	}
	if ls.firstErr != nil {
		return fmt.Errorf("probe: %w", ls.firstErr)
	}
	return nil
}

// finalGate runs the correctness gate on the window's deployment and, for
// the page-backed workload, again after a crash-restart of its DLFM.
func (b *bench) finalGate() {
	b.res.violations = append(b.res.violations, gate(b.d, b.w.table, b.l)...)
	if b.w.deploy.dataDir == "" {
		return
	}
	start := time.Now()
	if err := b.d.crash(b.w.servers[0]); err != nil {
		b.res.violations = append(b.res.violations, "crash-restart after the window: "+err.Error())
		return
	}
	b.res.notef("post-window crash-restart of %s recovered in %.3f s", b.w.servers[0], time.Since(start).Seconds())
	b.res.violations = append(b.res.violations, gate(b.d, b.w.table, b.l)...)
}

func (b *bench) closeDeployment() {
	for _, s := range b.sess {
		s.Close()
	}
	b.sess = nil
	b.d.close()
}

// describeSizes notes each store's data size against its buffer pool.
func (b *bench) describeSizes() {
	if b.w.deploy.dataDir == "" {
		b.res.notef("stores: host and DLFMs in memory, in-memory WAL")
		return
	}
	for _, name := range append([]string{"host"}, b.w.servers...) {
		wal := dirBytes(filepath.Join(b.dir, name, "db.wal"))
		data := dirBytes(filepath.Join(b.dir, name)) - wal
		pool := 1024 // engine default
		if name != "host" {
			pool = b.w.deploy.dlfmPool
		}
		b.res.notef("store %s: %d KiB of pages and %d KiB of WAL on disk; buffer pool %d pages (%d KiB)",
			name, data/1024, wal/1024, pool, pool*4)
	}
}

// removeScratch deletes the run's scratch directory.
func removeScratch(dir string) {
	if err := os.RemoveAll(dir); err != nil {
		fmt.Fprintln(os.Stderr, "dlbench:", err)
	}
}
