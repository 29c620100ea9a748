package main

import (
	"math"
	"sort"
	"sync"
	"time"
)

// samples keeps every observed duration so percentiles are exact rather
// than read off histogram buckets. Safe for concurrent use.
type samples struct {
	mu sync.Mutex
	d  []time.Duration
}

func (s *samples) add(d time.Duration) {
	s.mu.Lock()
	s.d = append(s.d, d)
	s.mu.Unlock()
}

func (s *samples) snapshot() []time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]time.Duration(nil), s.d...)
}

func (s *samples) n() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.d)
}

// q returns the nearest-rank q-quantile, or 0 with no samples.
func (s *samples) q(q float64) time.Duration { return quantile(s.snapshot(), q) }

// quantile returns the nearest-rank q-quantile of ds (which it sorts).
func quantile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	i := int(math.Ceil(q*float64(len(ds)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(ds) {
		i = len(ds) - 1
	}
	return ds[i]
}

// medianF returns the median of xs (the mean of the middle two for an even
// count), or 0 when empty.
func medianF(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }

// per returns num/den, or 0 when den is 0.
func per(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
