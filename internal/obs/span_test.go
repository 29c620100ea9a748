package obs

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestSpanTreeBasics(t *testing.T) {
	tr := NewTracerCfg(TracerConfig{})
	root := tr.StartRoot(7, "host", "commit")
	if root == nil {
		t.Fatal("root span not created (spans should be on by default)")
	}
	child := tr.StartSpan(root.Ctx(), "host", "phase1")
	leaf := tr.StartSpan(child.Ctx(), "lock", "lock_wait").Attr("target", "t.1")
	leaf.End()
	child.End()

	// Root still open: it must appear in snapshots with Open set.
	spans := tr.SpansByTrace(7)
	if len(spans) != 3 {
		t.Fatalf("got %d spans, want 3: %+v", len(spans), spans)
	}
	var sawOpenRoot bool
	for _, sp := range spans {
		if sp.Op == "commit" {
			if !sp.Open || !sp.Root {
				t.Fatalf("root should be open and Root: %+v", sp)
			}
			sawOpenRoot = true
		}
		if sp.Op == "lock_wait" && (len(sp.Attrs) != 1 || sp.Attrs[0].K != "target") {
			t.Fatalf("lost attrs: %+v", sp)
		}
	}
	if !sawOpenRoot {
		t.Fatal("open root missing from SpansByTrace")
	}
	root.End()
	root.End() // idempotent

	spans = tr.SpansByTrace(7)
	for _, sp := range spans {
		if sp.Open {
			t.Fatalf("span still open after End: %+v", sp)
		}
	}
	// Parent links form the tree.
	byOp := map[string]Span{}
	for _, sp := range spans {
		byOp[sp.Op] = sp
	}
	if byOp["phase1"].Parent != byOp["commit"].ID || byOp["lock_wait"].Parent != byOp["phase1"].ID {
		t.Fatalf("broken parent chain: %+v", spans)
	}
	tree := RenderTree(spans)
	if len(tree) != 3 || !strings.Contains(tree[0], "host/commit") {
		t.Fatalf("bad RenderTree: %v", tree)
	}
}

func TestTracerNilSafe(t *testing.T) {
	var tr *Tracer
	tr.BindTxn(1, SpanCtx{Trace: 1, Span: 1})
	tr.UnbindTxn(1)
	if tr.StartRoot(1, "host", "commit") != nil || tr.Named("x") != nil ||
		tr.Spans() != nil || tr.SpansByTrace(1) != nil || tr.SlowEntries() != nil ||
		tr.CtxOf(1).Valid() || tr.Attribution(1).RootNS != 0 {
		t.Fatal("nil tracer should be inert")
	}
}

func TestSpanSampling(t *testing.T) {
	off := NewTracerCfg(TracerConfig{SampleRate: -1})
	if off.Sampled(1) {
		t.Fatal("negative rate should disable sampling")
	}
	if sp := off.StartRoot(1, "host", "commit"); sp != nil {
		t.Fatal("unsampled trace produced a span")
	}
	// Nil handles are fully inert.
	var nilH *SpanHandle
	nilH.Attr("k", "v").End()
	if nilH.Ctx().Valid() {
		t.Fatal("nil handle context should be invalid")
	}

	partial := NewTracerCfg(TracerConfig{SampleRate: 0.5})
	in, out := 0, 0
	for txn := int64(1); txn <= 1000; txn++ {
		if partial.Sampled(txn) != partial.Sampled(txn) {
			t.Fatal("sampling decision not deterministic")
		}
		if partial.Sampled(txn) {
			in++
		} else {
			out++
		}
	}
	if in < 400 || in > 600 {
		t.Fatalf("0.5 sampling kept %d/1000", in)
	}
	if sp := partial.StartSpanInTrace(0, 0, "x", "y"); sp != nil {
		t.Fatal("trace id 0 must never be sampled")
	}
	_ = out
}

func TestTxnBinding(t *testing.T) {
	tr := NewTracerCfg(TracerConfig{})
	ctx := SpanCtx{Trace: 42, Span: 9}
	tr.BindTxn(5, ctx)
	if got := tr.CtxOf(5); got != ctx {
		t.Fatalf("CtxOf = %+v, want %+v", got, ctx)
	}
	tr.UnbindTxn(5)
	if tr.CtxOf(5).Valid() {
		t.Fatal("binding survived UnbindTxn")
	}
	// Named tracers share the span store but NOT the bind table: each
	// engine numbers its local txns from 1, so host txn 6 and fs1's txn 6
	// are different transactions and must not clobber each other.
	named := tr.Named("fs1")
	named.BindTxn(6, ctx)
	if tr.CtxOf(6).Valid() {
		t.Fatal("bind leaked across engines: parent tracer sees fs1's txn 6")
	}
	if got := named.CtxOf(6); got != ctx {
		t.Fatalf("named tracer lost its own bind: %+v", got)
	}
	tr.BindTxn(6, SpanCtx{Trace: 43, Span: 1})
	named.UnbindTxn(6)
	if !tr.CtxOf(6).Valid() {
		t.Fatal("fs1's UnbindTxn clobbered the host engine's txn 6 binding")
	}
	tr.UnbindTxn(6)
	sp := named.StartSpan(ctx, "agent", "handle:Prepare")
	sp.End()
	spans := tr.SpansByTrace(42)
	if len(spans) != 1 || spans[0].Comp != "fs1/agent" {
		t.Fatalf("named span missing prefix or store: %+v", spans)
	}
}

// push injects a hand-built completed span, bypassing the clock, so the
// attribution arithmetic is tested deterministically.
func push(tr *Tracer, sp Span) {
	tr.s.mu.Lock()
	tr.s.pushLocked(sp)
	tr.s.mu.Unlock()
}

func TestAttributionSelfTime(t *testing.T) {
	tr := NewTracerCfg(TracerConfig{})
	const trace = 11
	ms := int64(time.Millisecond)
	// commit(100ms) ├ phase1(60ms) ─ rpc:Prepare(40ms) ─ handle(35ms) ─ lock_wait(10ms)
	//               └ phase2(30ms)
	push(tr, Span{Trace: trace, ID: 1, Op: "commit", Comp: "host", Root: true, DurNS: 100 * ms})
	push(tr, Span{Trace: trace, ID: 2, Parent: 1, Op: "phase1", Comp: "host", StartNS: 0, DurNS: 60 * ms})
	push(tr, Span{Trace: trace, ID: 3, Parent: 2, Op: "rpc:Prepare", Comp: "host", StartNS: 5 * ms, DurNS: 40 * ms})
	push(tr, Span{Trace: trace, ID: 4, Parent: 3, Op: "handle:Prepare", Comp: "agent", StartNS: 6 * ms, DurNS: 35 * ms})
	push(tr, Span{Trace: trace, ID: 5, Parent: 4, Op: "lock_wait", Comp: "lock", StartNS: 7 * ms, DurNS: 10 * ms})
	push(tr, Span{Trace: trace, ID: 6, Parent: 1, Op: "phase2", Comp: "host", StartNS: 65 * ms, DurNS: 30 * ms})

	a := tr.Attribution(trace)
	if a.RootNS != 100*ms {
		t.Fatalf("RootNS = %d", a.RootNS)
	}
	want := map[string]int64{
		"phase1":    20 * ms, // 60 - 40 (rpc child)
		"rpc":       30 * ms, // 40 - 10 (lock_wait under the unbucketed handle)
		"lock_wait": 10 * ms,
		"phase2":    30 * ms,
	}
	for b, ns := range want {
		if a.Buckets[b] != ns {
			t.Fatalf("bucket %s = %v, want %v (all: %v)", b, a.Buckets[b], ns, a.Buckets)
		}
	}
	// Self times telescope: buckets + other == root exactly.
	var sum int64
	for _, ns := range a.Buckets {
		sum += ns
	}
	if sum+a.OtherNS != a.RootNS {
		t.Fatalf("buckets(%d) + other(%d) != root(%d)", sum, a.OtherNS, a.RootNS)
	}
	if a.OtherNS != 10*ms { // 100 - (60 + 30)
		t.Fatalf("OtherNS = %v", a.OtherNS)
	}
}

// TestSlowLogKeepsSlowest checks the ranking and the keep limit on fixed
// durations: entries are held slowest first, a full log admits only a
// duration beating its fastest entry, and nothing below the threshold.
func TestSlowLogKeepsSlowest(t *testing.T) {
	l := slowLog{threshold: 10, keep: 2}
	if l.wants(9) {
		t.Fatal("duration below the threshold accepted")
	}
	for _, d := range []int64{20, 40, 30, 15, 10} {
		if l.wants(d) {
			l.add(SlowEntry{Trace: d, DurNS: d})
		}
	}
	entries := l.entries()
	if len(entries) != 2 || entries[0].DurNS != 40 || entries[1].DurNS != 30 {
		t.Fatalf("kept %+v, want durations [40 30]", entries)
	}
	if l.wants(30) || !l.wants(31) {
		t.Fatal("a full log must admit only durations beating its fastest entry")
	}

	disabled := NewTracerCfg(TracerConfig{SlowThreshold: -1})
	root := disabled.StartRoot(9, "host", "commit")
	time.Sleep(time.Millisecond)
	root.End()
	if len(disabled.SlowEntries()) != 0 {
		t.Fatal("negative threshold should disable the slow log")
	}
}

// TestSlowLogCapturesSlowRoot: ending a root at or over the threshold
// captures the trace's span tree, read through the per-trace index.
func TestSlowLogCapturesSlowRoot(t *testing.T) {
	tr := NewTracerCfg(TracerConfig{SpanCapacity: 8, SlowThreshold: time.Millisecond})
	for txn := int64(100); txn < 110; txn++ { // other traces wrap the ring
		tr.StartRoot(txn, "host", "commit").End()
	}
	root := tr.StartRoot(7, "host", "commit")
	tr.StartSpan(root.Ctx(), "host", "phase1").End()
	time.Sleep(time.Millisecond)
	root.End()
	var got *SlowEntry
	for _, e := range tr.SlowEntries() {
		if e.Trace == 7 {
			got = &e
		}
	}
	if got == nil {
		t.Fatal("slow root not captured")
	}
	if len(got.Spans) != 2 {
		t.Fatalf("captured %d spans, want the root and its child: %+v", len(got.Spans), got.Spans)
	}
	for _, sp := range got.Spans {
		if sp.Trace != 7 {
			t.Fatalf("captured a span of another trace: %+v", sp)
		}
	}
}

// scanByTrace is the reference for the per-trace index: a scan of the
// whole ring, oldest slot first, then the open spans. Caller holds s.mu.
func scanByTrace(s *spanStore, trace, at int64) []Span {
	ring := append([]Span{}, s.buf[:s.next]...)
	if s.full {
		ring = append(append([]Span{}, s.buf[s.next:]...), ring...)
	}
	var out []Span
	for _, sp := range ring {
		if sp.Trace == trace && len(out) < maxSpansPerEntry {
			out = append(out, sp)
		}
	}
	for _, sp := range s.open {
		if sp.Trace == trace && len(out) < maxSpansPerEntry {
			c := *sp
			c.Open = true
			c.DurNS = at - c.StartNS
			out = append(out, c)
		}
	}
	return out
}

// TestSpanIndexMatchesRingScan drives random push/open/end sequences that
// wrap small rings many times and checks after every step that the
// indexed per-trace read returns exactly what a full ring scan returns:
// the completed spans in ring order, and the same set once sorted as
// SpansByTrace sorts it. The marker variant first fills the open-span
// table to maxOpenSpans, so new spans go straight into the ring.
func TestSpanIndexMatchesRingScan(t *testing.T) {
	const traces = 5
	for _, capacity := range []int{1, 2, 7, 64} {
		for _, markers := range []bool{false, true} {
			t.Run(fmt.Sprintf("cap%d/markers=%v", capacity, markers), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(capacity)))
				tr := NewTracerCfg(TracerConfig{SpanCapacity: capacity, SlowThreshold: -1})
				if markers {
					// A leaked trace holds all but two open slots.
					for i := 0; i < maxOpenSpans-2; i++ {
						tr.StartSpanInTrace(traces+1, 0, "leak", "open")
					}
				}
				// Every check scans the open table once per trace, so the
				// marker variant (16 Ki open spans) checks less often.
				steps, every := 100*capacity+300, 1
				if markers {
					every = 32
				}
				var live []*SpanHandle
				for step := 0; step < steps; step++ {
					trace := int64(1 + rng.Intn(traces))
					switch r := rng.Intn(10); {
					case r < 4:
						push(tr, Span{Trace: trace, ID: int64(-step - 1), StartNS: rng.Int63n(1000), Op: "pushed"})
					case r < 6:
						live = append(live, tr.StartSpanInTrace(trace, 0, "c", "op"))
					case len(live) > 0:
						k := rng.Intn(len(live))
						live[k].End()
						live = append(live[:k], live[k+1:]...)
					}
					if step%every == 0 {
						checkSpanIndex(t, tr.s, traces)
					}
				}
				for _, h := range live {
					h.End()
					checkSpanIndex(t, tr.s, traces)
				}
			})
		}
	}
}

// sameSpans is reflect.DeepEqual that treats nil and empty as equal.
func sameSpans(a, b []Span) bool {
	return len(a) == len(b) && (len(a) == 0 || reflect.DeepEqual(a, b))
}

func checkSpanIndex(t *testing.T, s *spanStore, traces int64) {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.traces) > len(s.buf) {
		t.Fatalf("index holds %d traces, ring has %d slots", len(s.traces), len(s.buf))
	}
	for trace := int64(1); trace <= traces+1; trace++ {
		if trace == traces+1 && len(s.open) > maxSpansPerEntry {
			continue // the leaked trace overflows the cap; map order decides which open spans make it
		}
		got := s.byTraceLocked(trace, 1e12)
		want := scanByTrace(s, trace, 1e12)
		var completed []Span
		for _, sp := range want {
			if !sp.Open {
				completed = append(completed, sp)
			}
		}
		if len(got) < len(completed) || !sameSpans(got[:len(completed)], completed) {
			t.Fatalf("trace %d: completed spans %+v, ring scan %+v", trace, got, completed)
		}
		sortSpans(got)
		sortSpans(want)
		if !sameSpans(got, want) {
			t.Fatalf("trace %d: indexed %+v, ring scan %+v", trace, got, want)
		}
	}
}

func TestFlightRecorderRing(t *testing.T) {
	var nilF *FlightRecorder
	nilF.Record(FlightEntry{Kind: "timeout"}) // nil-safe
	if nilF.Entries() != nil {
		t.Fatal("nil recorder should return no entries")
	}

	f := NewFlightRecorder(2)
	for i := int64(1); i <= 3; i++ {
		f.Record(FlightEntry{Kind: "timeout", Victim: i})
	}
	got := f.Entries()
	if len(got) != 2 || got[0].Victim != 2 || got[1].Victim != 3 {
		t.Fatalf("ring contents wrong: %+v", got)
	}
	if got[0].Seq >= got[1].Seq {
		t.Fatal("sequence numbers not monotonic")
	}
}

func TestHistogramExemplar(t *testing.T) {
	h := NewHistogram()
	h.ObserveEx(5*time.Millisecond, 100)
	h.ObserveEx(50*time.Millisecond, 200)
	h.ObserveEx(10*time.Millisecond, 300) // smaller: must not displace
	d, trace := h.Exemplar()
	if trace != 200 || d != 50*time.Millisecond {
		t.Fatalf("exemplar = (%v, %d), want (50ms, 200)", d, trace)
	}

	reg := New()
	reg.RegisterHistogram("x_seconds", h)
	var sb strings.Builder
	if err := reg.WriteProm(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `# {trace_id="200"}`) {
		t.Fatalf("exemplar missing from exposition:\n%s", sb.String())
	}
}
