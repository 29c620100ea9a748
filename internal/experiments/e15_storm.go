package experiments

import (
	"fmt"
	"time"

	"repro/internal/fault"
	"repro/internal/hostdb"
	"repro/internal/obs"
	"repro/internal/workload"
)

// E15 — the open-loop storm: what happens when the arrival rate exceeds what
// the system can serve, with and without admission control. The closed-loop
// experiments cannot ask this question — their clients slow down with the
// system. Here a Poisson arrival stream drives a multi-DLFM cluster at ~3x
// its measured saturation throughput while the chaos injector drops live
// connections. Without admission the queue grows for the whole run and every
// admitted transaction's arrival-to-completion latency blows through the
// SLO; with the hostdb admission controller shedding at the door, the
// admitted transactions stay inside it and the excess fails fast with
// ErrOverload. Consistency must hold either way.

// e15FsyncDelay models the log device, as in E14: free in-memory fsyncs
// would push saturation to CPU speed and hide the WAL queue signal the
// admission controller watches.
const e15FsyncDelay = 2 * time.Millisecond

// E15Report holds the calibration and the two storm legs.
type E15Report struct {
	FsyncDelay time.Duration
	Knee       float64 // first probed arrival rate the open loop could not sustain
	Saturation float64 // commit throughput measured at the knee, per second
	Rate       float64 // storm arrival rate (2x the knee)
	Sessions   int     // logical sessions per leg
	SLO        time.Duration

	Legs []E15Leg
}

// E15Leg is one storm run: shedding on or off.
type E15Leg struct {
	Shedding bool
	workload.StormResult
}

// e15Stack builds the clustered deployment each leg runs against.
func e15Stack(shedding bool) (*workload.Stack, error) {
	return workload.NewStack(workload.StackConfig{
		Servers: []string{"fs1", "fs2", "fs3"},
		Cluster: true,
		MutateHost: func(h *hostdb.Config) {
			h.DB.LockTimeout = 10 * time.Second
			if shedding {
				// The held-lock count is the open-loop backpressure signal:
				// it tracks in-system concurrency (waiters keep the locks
				// they already hold), while the WAL group-commit queue only
				// reflects instantaneous commit overlap (Little's law keeps
				// it at throughput x sync latency, a handful of entries even
				// far past saturation — it stays armed as a secondary trip).
				// A saturated pool of 64 holds ~130-220 locks here, so shed
				// past 0.2 * 512 ~= 102; let a burst ride it out for a
				// couple of milliseconds before refusing.
				h.DB.LockListSize = 512
				h.DB.EscalationThreshold = 0
				h.AdmissionLockFrac = 0.12
				h.AdmissionWALQueueMax = 12
				h.AdmissionMaxDelay = time.Millisecond
			}
		},
	})
}

// RunE15Storm calibrates saturation, then runs the over-saturated storm with
// shedding off and on.
func RunE15Storm(opt Options) (*E15Report, error) {
	rep := &E15Report{FsyncDelay: e15FsyncDelay}

	// The modeled fsync delay stays armed for calibration and both legs, so
	// the saturation estimate and the storms see the same log device.
	fault.Default().Arm("wal.append.fsync", fault.Action{Delay: e15FsyncDelay})
	defer fault.Default().Disarm("wal.append.fsync")

	// Calibration: ramp the arrival rate geometrically on one stack until
	// the open loop goes unstable — completions fall clearly behind
	// arrivals. The knee is the honest capacity estimate. A single
	// full-pool burst is NOT: service time inflates with concurrency (lock
	// contention across the whole pool), so a burst measures the collapsed
	// floor, and a multiple of that floor can still be a perfectly
	// sustainable rate at the low concurrency it actually induces.
	calSt, err := e15Stack(false)
	if err != nil {
		return nil, err
	}
	var stableP99 time.Duration
	probeWindow := 350 * time.Millisecond
	for i, r := range []float64{150, 300, 600, 1200, 2400, 4800, 9600} {
		res, probeErr := workload.RunStorm(calSt, workload.StormConfig{
			Rate:            r,
			Sessions:        int(r * probeWindow.Seconds()),
			Seed:            opt.Seed + 151,
			Table:           fmt.Sprintf("stormcal%d", i),
			PreloadRows:     200,
			SkipConsistency: true,
		})
		if probeErr != nil {
			calSt.Close()
			return nil, fmt.Errorf("e15 calibration at %.0f/s: %w", r, probeErr)
		}
		rep.Knee, rep.Saturation = r, res.Throughput
		if res.Throughput < 0.7*res.OfferedRate {
			break // this rate did not hold: the knee
		}
		stableP99 = res.LatencyP99
	}
	calSt.Close()
	if rep.Saturation <= 0 {
		return nil, fmt.Errorf("e15 calibration measured zero throughput")
	}

	// The storm: 2x the knee for a fixed wall-clock window, so the
	// no-shedding leg accumulates a backlog it cannot drain in time. The
	// SLO sits an order of magnitude above the last stable probe's p99 —
	// generous for admitted transactions, far below the backlog the unshed
	// queue builds, on any machine speed.
	rep.Rate = 2 * rep.Knee
	// -ops scales the storm window (and with it the session count): the CI
	// smoke stays around a second, the full bench run holds the storm for
	// several — 10k+ logical sessions at a few-thousand/s knee.
	window := time.Duration(opt.ops()) * 50 * time.Millisecond
	if window < time.Second {
		window = time.Second
	}
	if window > 5*time.Second {
		window = 5 * time.Second
	}
	rep.Sessions = int(rep.Rate * window.Seconds())
	if rep.Sessions < 200 {
		rep.Sessions = 200
	}
	rep.SLO = 10 * stableP99
	if rep.SLO < 250*time.Millisecond {
		rep.SLO = 250 * time.Millisecond
	}

	for _, shedding := range []bool{false, true} {
		st, err := e15Stack(shedding)
		if err != nil {
			return nil, err
		}
		res, runErr := workload.RunStorm(st, workload.StormConfig{
			Rate:        rep.Rate,
			Sessions:    rep.Sessions,
			SLO:         rep.SLO,
			Seed:        opt.Seed + 97,
			PreloadRows: 200,
			// Chaos during the storm: live connections drop every ~200ms;
			// the post-run drain settles what that leaves behind and the
			// invariant must still hold.
			DropInterval: 200 * time.Millisecond,
		})
		st.Close()
		if runErr != nil {
			return nil, fmt.Errorf("e15 storm (shedding=%v): %w", shedding, runErr)
		}
		rep.Legs = append(rep.Legs, E15Leg{Shedding: shedding, StormResult: res})
	}

	// Overload is not an excuse: a violated invariant fails the run (that is
	// what CI's storm smoke exits non-zero on). SLO verdicts stay in the
	// report — benchgate gates them across PRs.
	for _, l := range rep.Legs {
		for _, v := range l.Violations {
			return nil, fmt.Errorf("e15 storm (shedding=%v): consistency violation: %s", l.Shedding, v)
		}
	}
	if on := rep.leg(true); on != nil && on.Shed == 0 {
		return nil, fmt.Errorf("e15 storm: admission never shed at %.0f/s against %.0f/s saturation", rep.Rate, rep.Saturation)
	}

	rep.publish(obs.Default())
	return rep, nil
}

// leg returns the shedding-on or -off leg.
func (r *E15Report) leg(shedding bool) *E15Leg {
	for i := range r.Legs {
		if r.Legs[i].Shedding == shedding {
			return &r.Legs[i]
		}
	}
	return nil
}

// publish pushes the report into the process registry for the BENCH line.
// The e15_raw_* values are machine-speed trend data (ungated, like storm_*);
// the plain e15_* values are shape assertions benchgate gates: consistency
// holds, the shed leg meets the SLO, and shedding actually engaged.
func (r *E15Report) publish(reg *obs.Registry) {
	on, off := r.leg(true), r.leg(false)
	if on == nil || off == nil {
		return
	}
	pct := func(ok bool) int64 {
		if ok {
			return 100
		}
		return 0
	}
	reg.Gauge("e15_consistency_ok_pct").Set(pct(len(on.Violations) == 0 && len(off.Violations) == 0))
	reg.Gauge("e15_slo_on_ok_pct").Set(pct(on.SLOMet))
	reg.Gauge("e15_shed_engaged_pct").Set(pct(on.ShedRate > 0.05))

	reg.Gauge("e15_raw_knee_per_s").Set(int64(r.Knee))
	reg.Gauge("e15_raw_saturation_per_s").Set(int64(r.Saturation))
	reg.Gauge("e15_raw_rate_per_s").Set(int64(r.Rate))
	reg.Gauge("e15_raw_sessions").Set(int64(r.Sessions))
	reg.Gauge("e15_raw_slo_ms").Set(r.SLO.Milliseconds())
	for _, l := range r.Legs {
		suffix := "_off"
		if l.Shedding {
			suffix = "_on"
		}
		reg.Gauge("e15_raw_throughput" + suffix + "_per_s").Set(int64(l.Throughput))
		reg.Gauge("e15_raw_shed_rate" + suffix + "_milli").Set(int64(l.ShedRate * 1000))
		reg.Gauge("e15_raw_p99" + suffix + "_ms").Set(l.LatencyP99.Milliseconds())
		reg.Counter("e15_raw_commits" + suffix + "_total").Add(l.Commits)
		reg.Counter("e15_raw_shed" + suffix + "_total").Add(l.Shed)
	}
}

// String renders the report.
func (r *E15Report) String() string {
	t := &table{header: []string{"shedding", "arrivals", "commits", "shed", "shed %", "tput/s", "p50", "p99", "SLO met", "drops", "violations"}}
	for _, l := range r.Legs {
		mode := "off"
		if l.Shedding {
			mode = "ON"
		}
		t.add(mode, fmtI(l.Arrivals), fmtI(l.Commits), fmtI(l.Shed),
			fmt.Sprintf("%.1f", 100*l.ShedRate), fmt.Sprintf("%.0f", l.Throughput),
			fmtD(l.LatencyP50), fmtD(l.LatencyP99), fmt.Sprintf("%v", l.SLOMet),
			fmtI(l.DropArms), fmtI(int64(len(l.Violations))))
	}
	return fmt.Sprintf(
		"E15 — open-loop storm: Poisson arrivals at %.0f/s (2x the %.0f/s knee, which drained %.0f/s), %d logical sessions over a bounded pool, SLO p99 <= %s (fsync modeled at %s)\n",
		r.Rate, r.Knee, r.Saturation, r.Sessions, r.SLO, r.FsyncDelay) +
		t.String() +
		"shape: without admission the queue backlog drives p99 far past the SLO; with shedding the admitted transactions stay inside it, the excess fails fast, and the invariant holds either way\n"
}
