package main

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/workload"
)

// Every input the benchmark feeds the program — row ids, file paths, the
// operation sequence and the arrival times — comes from the generators in
// this file, seeded from the command line. The same seed gives the same
// schedule (TestScheduleDeterministic).

type opKind int

const (
	opInsert opKind = iota
	opUpdate
	opDelete
	opRead
)

func (k opKind) String() string {
	return [...]string{"insert", "update", "delete", "read"}[k]
}

// op is one transaction of the mixed workload.
type op struct {
	kind opKind
	id   int64
	path string // the new file for insert and update
}

// opGen generates one session's operations. The session owns the rows
// whose id is congruent to its index modulo the session count, so writers
// never touch each other's rows; reads pick any preloaded row, so they
// can wait on the other session's writes.
type opGen struct {
	rng      *rand.Rand
	mix      workload.Mix
	session  int64
	sessions int64
	preload  int64
	live     []int64
	inserts  int64
	files    int64
}

func newOpGen(seed int64, session, sessions int, preload int64, mix workload.Mix) *opGen {
	g := &opGen{
		rng:      rand.New(rand.NewSource(seed*1_000_003 + int64(session))),
		mix:      mix,
		session:  int64(session),
		sessions: int64(sessions),
		preload:  preload,
	}
	for id := g.session; id < preload; id += g.sessions {
		g.live = append(g.live, id)
	}
	return g
}

func (g *opGen) newPath() string {
	g.files++
	return fmt.Sprintf("/mp/s%d/v%07d", g.session, g.files)
}

// insert yields an insert of the session's next new row.
func (g *opGen) insert() op {
	id := g.preload + g.inserts*g.sessions + g.session
	g.inserts++
	g.live = append(g.live, id)
	return op{kind: opInsert, id: id, path: g.newPath()}
}

func (g *opGen) next() op {
	roll := g.rng.Intn(100)
	switch {
	case roll < g.mix.InsertPct || len(g.live) == 0:
		return g.insert()
	case roll < g.mix.InsertPct+g.mix.UpdatePct:
		return op{kind: opUpdate, id: g.live[g.rng.Intn(len(g.live))], path: g.newPath()}
	case roll < g.mix.InsertPct+g.mix.UpdatePct+g.mix.DeletePct:
		i := g.rng.Intn(len(g.live))
		id := g.live[i]
		g.live[i] = g.live[len(g.live)-1]
		g.live = g.live[:len(g.live)-1]
		return op{kind: opDelete, id: id}
	default:
		return op{kind: opRead, id: g.rng.Int63n(g.preload)}
	}
}

// poissonArrivals returns the due offsets of a Poisson stream at rate per
// second over dur.
func poissonArrivals(seed int64, rate float64, dur time.Duration) []time.Duration {
	rng := rand.New(rand.NewSource(seed*7919 + int64(rate)))
	var out []time.Duration
	var t float64
	for {
		t += rng.ExpFloat64() / rate
		at := time.Duration(t * float64(time.Second))
		if at >= dur {
			return out
		}
		out = append(out, at)
	}
}

// probeIDs picks n row ids in [0, rows) for the read and update probes.
func probeIDs(seed int64, n int, rows int64) []int64 {
	rng := rand.New(rand.NewSource(seed*31 + 17))
	ids := make([]int64, n)
	for i := range ids {
		ids[i] = rng.Int63n(rows)
	}
	return ids
}
