package workload

import (
	"testing"

	"repro/internal/hostdb"
	"repro/internal/obs"
	"repro/internal/value"
)

// TestTracedCommitChain runs one link transaction end to end and checks
// that the DLFM's metrics registry agrees with its legacy Stats() snapshot.
func TestTracedCommitChain(t *testing.T) {
	st := testStack(t)
	if err := st.Host.CreateTable(
		`CREATE TABLE docs (id BIGINT NOT NULL, doc VARCHAR)`,
		hostdb.DatalinkCol{Name: "doc"},
	); err != nil {
		t.Fatal(err)
	}
	if err := st.FS["fs1"].Create("/data/a1", "app", []byte("x")); err != nil {
		t.Fatal(err)
	}

	s := st.Host.Session()
	defer s.Close()
	if _, err := s.Exec(`INSERT INTO docs (id, doc) VALUES (?, ?)`,
		value.Int(1), value.Str(hostdb.URL("fs1", "/data/a1"))); err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}

	// The DLFM's registry must agree with its legacy Stats() snapshot —
	// they read the same counters.
	dlfm := st.DLFMs["fs1"]
	snap := dlfm.Stats()
	if got := counterValue(t, dlfm.Obs(), "dlfm_links_total"); got != snap.Links || got == 0 {
		t.Fatalf("dlfm_links_total = %d, Stats().Links = %d", got, snap.Links)
	}
	if got := counterValue(t, dlfm.Obs(), "dlfm_commits_total"); got != snap.Commits || got == 0 {
		t.Fatalf("dlfm_commits_total = %d, Stats().Commits = %d", got, snap.Commits)
	}
}

func counterValue(t *testing.T, reg *obs.Registry, name string) int64 {
	t.Helper()
	snap := reg.Snapshot()
	v, exists := snap[name]
	if !exists {
		t.Fatalf("metric %s not registered", name)
	}
	n, isInt := v.(int64)
	if !isInt {
		t.Fatalf("metric %s is %T, want counter", name, v)
	}
	return n
}
