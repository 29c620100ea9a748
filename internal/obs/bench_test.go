package obs

import (
	"testing"
	"time"
)

// The counter-increment and histogram-observe paths sit inside the
// engine's per-row and per-lock loops; they must not allocate. The
// benchmarks report allocs/op and the test pins them to zero.

func BenchmarkCounterAdd(b *testing.B) {
	var c Counter
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Add(1)
	}
	if c.Load() != int64(b.N) {
		b.Fatal("lost updates")
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	h := NewHistogram()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(time.Duration(i) * time.Microsecond)
	}
}

func TestHotPathNoAlloc(t *testing.T) {
	var c Counter
	if n := testing.AllocsPerRun(1000, func() { c.Add(1) }); n != 0 {
		t.Fatalf("Counter.Add allocates %.1f times per op", n)
	}
	h := NewHistogram()
	if n := testing.AllocsPerRun(1000, func() { h.Observe(3 * time.Millisecond) }); n != 0 {
		t.Fatalf("Histogram.Observe allocates %.1f times per op", n)
	}
	var g Gauge
	if n := testing.AllocsPerRun(1000, func() { g.Add(1) }); n != 0 {
		t.Fatalf("Gauge.Add allocates %.1f times per op", n)
	}
}

// BenchmarkAttributionFullRing is one commit's latency attribution on a
// ring at its default size, full of other traces: the per-commit read the
// host makes, which should cost the trace's 15 spans, not the ring.
func BenchmarkAttributionFullRing(b *testing.B) {
	tr := NewTracerCfg(TracerConfig{})
	const trace = 1
	for i := 0; i < DefaultSpanCapacity; i++ {
		push(tr, Span{Trace: int64(2 + i/15), ID: int64(1000 + i), Op: "phase1", DurNS: 10})
	}
	push(tr, Span{Trace: trace, ID: 1, Op: "commit", Root: true, DurNS: 1000})
	for id := int64(2); id <= 15; id++ {
		op := "rpc:Prepare"
		if id%2 == 0 {
			op = "phase1"
		}
		push(tr, Span{Trace: trace, ID: id, Parent: id - 1, Op: op, StartNS: id, DurNS: 1000 - 60*id})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if a := tr.Attribution(trace); a.RootNS != 1000 {
			b.Fatalf("RootNS = %d", a.RootNS)
		}
	}
}

// BenchmarkSpanStartEnd opens and ends one span per iteration on a ring
// that keeps wrapping, 15 spans per trace as in a host commit.
func BenchmarkSpanStartEnd(b *testing.B) {
	tr := NewTracerCfg(TracerConfig{})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.StartSpanInTrace(int64(1+i/15), 0, "host", "op").End()
	}
}
