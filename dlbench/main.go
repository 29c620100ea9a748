// Command dlbench is the repository's benchmark of the DATALINK commit
// path: one host transaction that links (or unlinks) files at one or more
// DLFMs and commits through two-phase commit or Paxos Commit. It runs one
// named workload with a given seed and prints every end-to-end metric
// (untraced run) or every per-layer metric (traced run) by name with its
// unit, the result of the correctness gate, and, as its last line, one JSON
// object with the results. See README.md for the workloads and metrics.
//
//	bash dlbench/run.sh --workload link_mem --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"time"
)

// watchdog fails a run that has not finished in time with a goroutine
// dump instead of letting it hang.
const watchdog = 170 * time.Second

func main() {
	root := flag.String("root", ".", "repository checkout; scratch files go under <root>/.bench_build")
	name := flag.String("workload", "", "workload name: link_mem, mixed_paged or storm_2dlfm")
	seed := flag.Int64("seed", 1, "seed of every generated input")
	seconds := flag.Int("seconds", 10, "length of the measured window")
	trace := flag.Int("trace", 0, "1: traced run reporting the per-layer metrics")
	flag.Parse()

	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "dlbench: need --workload %v, --seconds >= 1 and --trace 0|1\n", sortedKeys(workloads))
		os.Exit(2)
	}
	// One process generates all load; it may use every core but no more.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 2))

	time.AfterFunc(watchdog, func() {
		fmt.Fprintf(os.Stderr, "dlbench: watchdog: run exceeded %s; goroutines:\n", watchdog)
		_ = pprof.Lookup("goroutine").WriteTo(os.Stderr, 2) // best effort on the way out
		os.Exit(3)
	})

	out := filepath.Join(*root, ".bench_build")
	scratch := filepath.Join(out, fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "dlbench:", err)
		os.Exit(1)
	}
	res, err := runWorkload(w, runCfg{seed: *seed, seconds: *seconds, trace: *trace == 1, scratch: scratch, out: out})
	removeScratch(scratch)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dlbench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	if !report(w.name, res, *trace == 1) {
		os.Exit(1)
	}
}

// report prints the human-readable lines and the final JSON line, and
// returns whether the run passed its correctness gate.
func report(name string, res *result, traced bool) bool {
	list := endToEnd
	if traced {
		list = perLayer
	}
	fmt.Printf("workload %s (%s run)\n", name, map[bool]string{false: "untraced", true: "traced"}[traced])
	for _, n := range res.notes {
		fmt.Println("  " + n)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := make(map[string]value, len(list))
	for _, m := range list {
		v := res.metrics[m.name] // a layer the workload does not exercise reads 0
		out[m.name] = value{v, m.unit}
		fmt.Printf("  %-40s %14.6f %s\n", m.name, v, m.unit)
	}
	fmt.Printf("  attempted %d, failed %d\n", res.attempted, res.failed)
	correct := len(res.violations) == 0
	if correct {
		fmt.Println("  correctness gate: PASS")
	} else {
		sort.Strings(res.violations)
		fmt.Printf("  correctness gate: FAIL (%d violations)\n", len(res.violations))
		for i, v := range res.violations {
			if i == 20 {
				fmt.Printf("    ... %d more\n", len(res.violations)-i)
				break
			}
			fmt.Println("    " + v)
		}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{correct, res.attempted, res.failed, out})
	if err != nil {
		fmt.Fprintln(os.Stderr, "dlbench:", err)
		return false
	}
	fmt.Println(string(line))
	return correct
}
