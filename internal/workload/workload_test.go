package workload

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/hostdb"
)

func testStack(t *testing.T, mutate ...func(*StackConfig)) *Stack {
	t.Helper()
	cfg := StackConfig{
		Servers: []string{"fs1"},
		MutateHost: func(h *hostdb.Config) {
			h.DB.LockTimeout = 2 * time.Second
		},
		MutateDLFM: func(_ string, c *core.Config) {
			c.DB.LockTimeout = 2 * time.Second
		},
	}
	for _, m := range mutate {
		m(&cfg)
	}
	st, err := NewStack(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(st.Close)
	return st
}

func TestStackConstruction(t *testing.T) {
	st := testStack(t, func(c *StackConfig) { c.Servers = []string{"fs1", "fs2"} })
	if len(st.DLFMs) != 2 || st.DLFMs["fs1"] == nil || st.DLFMs["fs2"] == nil {
		t.Fatal("stack incomplete")
	}
	if st.Host == nil {
		t.Fatal("no host")
	}
	if got := st.EngineStats(); got.Commits < 0 {
		t.Fatal("stats unreadable")
	}
}

func TestRunnerFixedOps(t *testing.T) {
	st := testStack(t)
	r, err := NewRunner(st, Config{
		Clients:      4,
		OpsPerClient: 25,
		Mix:          DefaultMix(),
		PreloadRows:  20,
		Seed:         1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Prepare(); err != nil {
		t.Fatal(err)
	}
	res, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Ops != 100 {
		t.Fatalf("ops = %d, want 100", res.Ops)
	}
	if res.Commits+res.Rollback != res.Ops {
		t.Fatalf("commits %d + rollbacks %d != ops %d", res.Commits, res.Rollback, res.Ops)
	}
	if res.Inserts == 0 {
		t.Fatal("no inserts in a default mix")
	}
	// DLFMs commit with SyncCommit on, so committed links forced the log.
	if got := st.EngineStats().Log.Syncs; got == 0 {
		t.Fatal("EngineStats reports 0 log syncs after committed links")
	}
	if res.LatencyP50 <= 0 || res.LatencyMax < res.LatencyP95 || res.LatencyP95 < res.LatencyP50 {
		t.Fatalf("latency percentiles inconsistent: %+v", res)
	}
	// Consistency: every host row's file must be linked on the DLFM, and
	// counts must match.
	s := st.Host.Session()
	defer s.Close()
	rows, err := s.Query(`SELECT doc FROM wl_files`)
	if err != nil {
		t.Fatal(err)
	}
	s.Commit()
	for _, row := range rows {
		_, path, err := hostdb.ParseURL(row[0].Text())
		if err != nil {
			t.Fatal(err)
		}
		status, err := st.DLFMs["fs1"].Upcaller().IsLinked(path)
		if err != nil {
			t.Fatal(err)
		}
		if !status.Linked {
			t.Fatalf("host references %s but DLFM says unlinked", path)
		}
	}
	c := st.DLFMs["fs1"].DB().Connect()
	n, _, err := c.QueryInt(`SELECT COUNT(*) FROM dlfm_file WHERE state = 'L'`)
	if err != nil {
		t.Fatal(err)
	}
	c.Commit()
	if n != int64(len(rows)) {
		t.Fatalf("DLFM has %d linked entries, host has %d rows", n, len(rows))
	}
}

func TestRunnerDurationMode(t *testing.T) {
	st := testStack(t)
	r, err := NewRunner(st, Config{
		Clients:     2,
		Duration:    150 * time.Millisecond,
		Mix:         DefaultMix(),
		PreloadRows: 5,
		Seed:        7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Prepare(); err != nil {
		t.Fatal(err)
	}
	res, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Ops == 0 {
		t.Fatal("duration run did nothing")
	}
	if res.OpsPerSec <= 0 || res.InsertsPerMin < 0 {
		t.Fatalf("rates not computed: %+v", res)
	}
}

func TestRunnerValidation(t *testing.T) {
	st := testStack(t)
	if _, err := NewRunner(st, Config{Server: "ghost"}); err == nil {
		t.Fatal("unknown server accepted")
	}
	r, err := NewRunner(st, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if r.cfg.Clients != 1 || r.cfg.OpsPerClient != 100 || r.cfg.Table == "" {
		t.Fatalf("defaults not applied: %+v", r.cfg)
	}
}

func TestResultString(t *testing.T) {
	r := Result{Ops: 10, Commits: 9, Rollback: 1, InsertsPerMin: 300, UpdatesPerMin: 150}
	s := r.String()
	if s == "" {
		t.Fatal("empty result string")
	}
}
