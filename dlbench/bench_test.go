package main

import (
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"testing"
	"time"

	"repro/internal/workload"
)

func TestScheduleDeterministic(t *testing.T) {
	gen := func(seed int64, session int) []op {
		g := newOpGen(seed, session, 2, 1000, workload.DefaultMix())
		ops := make([]op, 5000)
		for i := range ops {
			ops[i] = g.next()
		}
		return ops
	}
	a, b := gen(7, 0), gen(7, 0)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different operation schedules")
	}
	if reflect.DeepEqual(a, gen(8, 0)) {
		t.Fatal("different seeds gave the same operation schedule")
	}
	if reflect.DeepEqual(a, gen(7, 1)) {
		t.Fatal("two sessions got the same operation schedule")
	}
	counts := map[opKind]int{}
	for _, o := range a {
		counts[o.kind]++
		if o.kind != opRead && o.id%2 != 0 {
			t.Fatalf("session 0 wrote row %d owned by session 1", o.id)
		}
	}
	for _, k := range []opKind{opInsert, opUpdate, opDelete, opRead} {
		if counts[k] == 0 {
			t.Errorf("no %s in 5000 operations", k)
		}
	}

	x := poissonArrivals(3, 200, 5*time.Second)
	if !reflect.DeepEqual(x, poissonArrivals(3, 200, 5*time.Second)) {
		t.Fatal("same seed gave different arrival schedules")
	}
	if reflect.DeepEqual(x, poissonArrivals(4, 200, 5*time.Second)) {
		t.Fatal("different seeds gave the same arrival schedule")
	}
	if n := len(x); n < 850 || n > 1150 {
		t.Fatalf("%d arrivals in 5 s at 200/s", n)
	}
	for i := 1; i < len(x); i++ {
		if x[i] < x[i-1] {
			t.Fatalf("arrival %d before arrival %d", i, i-1)
		}
	}
	if !reflect.DeepEqual(probeIDs(5, 100, 50), probeIDs(5, 100, 50)) {
		t.Fatal("same seed gave different probe rows")
	}
}

func TestSelfTime(t *testing.T) {
	// txn [0,100): hostdb Exec [10,40) and Commit [50,95). Exec's rpc
	// [15,35) wraps core [20,30). Commit fans out two overlapping rpcs
	// [55,75) and [60,90), each wrapping an agent handle.
	spans := []span{
		{Txn: 1, Layer: "txn", Start: 0, End: 100},
		{Txn: 1, Layer: "hostdb", Op: "Exec", Start: 10, End: 40},
		{Txn: 1, Layer: "rpc", Start: 15, End: 35},
		{Txn: 1, Layer: "core", Start: 20, End: 30},
		{Txn: 1, Layer: "hostdb", Op: "Commit", Start: 50, End: 95},
		{Txn: 1, Layer: "rpc", Start: 55, End: 75},
		{Txn: 1, Layer: "rpc", Start: 60, End: 90},
		{Txn: 1, Layer: "core", Start: 58, End: 70},
		{Txn: 1, Layer: "acceptor", Start: 80, End: 85},
		// A transaction without a root span is not counted.
		{Txn: 2, Layer: "core", Start: 0, End: 1000},
	}
	self, txns := selfTimes(spans)
	if txns != 1 {
		t.Fatalf("txns = %d, want 1", txns)
	}
	want := map[string]time.Duration{
		"txn":      100 - 30 - 45,         // minus both hostdb calls
		"hostdb":   (30 - 20) + (45 - 35), // Commit's rpcs cover [55,90)
		"rpc":      (20 - 10) + (20 - 12) + (30 - 5),
		"core":     10 + 12,
		"acceptor": 5,
	}
	if !reflect.DeepEqual(self, want) {
		t.Fatalf("self times %v, want %v", self, want)
	}
}

func TestQuantile(t *testing.T) {
	var s samples
	for i := 100; i >= 1; i-- {
		s.add(time.Duration(i))
	}
	if got := s.q(0.5); got != 50 {
		t.Errorf("p50 = %d, want 50", got)
	}
	if got := s.q(0.99); got != 99 {
		t.Errorf("p99 = %d, want 99", got)
	}
	if got := (&samples{}).q(0.5); got != 0 {
		t.Errorf("empty p50 = %d", got)
	}
	if got := medianF([]float64{3, 1, 2, 10}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

// TestMetricsMatchBenchmarkJSON checks every emitted name against the
// naming rule and against BENCHMARK.json at the repository root.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type decl struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	var bj struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []decl                  `json:"end_to_end"`
		PerLayer  []decl                  `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := map[string]bool{}
	check := func(what string, ours []metric, declared []decl) {
		if len(ours) != len(declared) {
			t.Errorf("%s: %d metrics emitted, %d declared", what, len(ours), len(declared))
		}
		for i, m := range ours {
			if !nameRE.MatchString(m.name) {
				t.Errorf("%s: bad name %q", what, m.name)
			}
			if seen[m.name] {
				t.Errorf("%s: %q used twice", what, m.name)
			}
			seen[m.name] = true
			if i < len(declared) {
				d := declared[i]
				if d.Name != m.name || d.Unit != m.unit || d.Better != m.better {
					t.Errorf("%s[%d]: emitted %+v, declared %+v", what, i, m, d)
				}
			}
		}
	}
	check("end_to_end", endToEnd, bj.EndToEnd)
	check("per_layer", perLayer, bj.PerLayer)
	for _, d := range bj.EndToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json declares unknown workload %q", w.Name)
		}
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json declares %v, the benchmark has %v", names, sortedKeys(workloads))
	}
}
