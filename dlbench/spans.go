package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call recorded by the benchmark's own wrappers, at a
// layer boundary: the transaction root ("txn"), a host call ("hostdb"), an
// RPC round trip seen from the host ("rpc"), or an agent's handling of it
// ("core", "acceptor"). Spans of one transaction share its host txn id.
type span struct {
	Txn   int64  `json:"txn"`
	Layer string `json:"layer"`
	Op    string `json:"op"`
	Start int64  `json:"start_ns"` // since the recorder's base
	End   int64  `json:"end_ns"`
}

// layerRank orders layers from the root down; a span's parent is the
// deepest enclosing span of a lower rank.
var layerRank = map[string]int{"txn": 0, "hostdb": 1, "rpc": 2, "core": 3, "acceptor": 3}

// spanRec keeps spans in memory while on is set and writes them out when
// the run ends. A traced run switches it on and off in short alternating
// blocks, so traced and untraced transactions interleave and their
// latencies give the tracing overhead.
type spanRec struct {
	base time.Time
	on   atomic.Bool

	mu    sync.Mutex
	spans []span
}

func newSpanRec() *spanRec { return &spanRec{base: time.Now()} }

// wants reports whether a span of txn would be recorded now.
func (r *spanRec) wants(txn int64) bool { return r != nil && txn != 0 && r.on.Load() }

func (r *spanRec) add(txn int64, layer, op string, start, end time.Time) {
	if !r.wants(txn) {
		return
	}
	sp := span{Txn: txn, Layer: layer, Op: op, Start: int64(start.Sub(r.base)), End: int64(end.Sub(r.base))}
	r.mu.Lock()
	r.spans = append(r.spans, sp)
	r.mu.Unlock()
}

func (r *spanRec) all() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// writeJSONL writes every span as one JSON object per line.
func (r *spanRec) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, sp := range r.all() {
		if err := enc.Encode(sp); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns, per layer, the summed self time of its spans and the
// number of transactions, counting only transactions whose root ("txn")
// span was recorded. Each span's parent is the deepest
// enclosing span of a lower-ranked layer in the same transaction; a span's
// self time is its duration minus the part of it its children cover.
func selfTimes(spans []span) (self map[string]time.Duration, txns int) {
	byTxn := make(map[int64][]span)
	for _, sp := range spans {
		byTxn[sp.Txn] = append(byTxn[sp.Txn], sp)
	}
	self = make(map[string]time.Duration)
	for _, group := range byTxn {
		if !hasRoot(group) {
			continue
		}
		txns++
		children := make([][]span, len(group))
		for i := range group {
			if p := parentOf(group, i); p >= 0 {
				children[p] = append(children[p], group[i])
			}
		}
		for i, sp := range group {
			self[sp.Layer] += time.Duration(sp.End-sp.Start) - covered(sp, children[i])
		}
	}
	return self, txns
}

func hasRoot(group []span) bool {
	for _, sp := range group {
		if sp.Layer == "txn" {
			return true
		}
	}
	return false
}

// parentOf returns the index in group of span i's parent, or -1.
func parentOf(group []span, i int) int {
	c := group[i]
	best := -1
	for j, p := range group {
		if j == i || layerRank[p.Layer] >= layerRank[c.Layer] || p.Start > c.Start || p.End < c.End {
			continue
		}
		if best < 0 {
			best = j
			continue
		}
		b := group[best]
		if layerRank[p.Layer] > layerRank[b.Layer] ||
			(layerRank[p.Layer] == layerRank[b.Layer] && p.End-p.Start < b.End-b.Start) {
			best = j
		}
	}
	return best
}

// covered returns the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, kids []span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		s, e := max(k.Start, parent.Start), min(k.End, parent.End)
		if e > s {
			iv = append(iv, [2]int64{s, e})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curS, curE int64
	for i, v := range iv {
		if i == 0 || v[0] > curE {
			total += curE - curS
			curS, curE = v[0], v[1]
			continue
		}
		if v[1] > curE {
			curE = v[1]
		}
	}
	total += curE - curS
	return time.Duration(total)
}
