package main

import (
	"fmt"
	"path/filepath"
	"time"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/sql"
	"repro/internal/storage"
	"repro/internal/workload"
)

// tracedRun measures the per-layer metrics: the window runs with every
// wrapper timing and with span recording switched on and off in
// alternating blocks.
func (b *bench) tracedRun(window time.Duration) error {
	m, mt := b.m, b.res.metrics
	measured := window
	switch {
	case b.w.open:
		measured = window / 2 // then the rate ladder climbs for up to window
	case b.w.samplingTax:
		measured = window * 7 / 10 // the rest measures the sampling tax
	}

	before := b.d.read()
	stopHeap := heapPeak()
	m.on.Store(true)
	stopAlt := b.alternate()
	var ls *loopStats
	var ss *stormStats
	if b.w.open {
		var err error
		if ss, err = b.stormPhase(10_000_000, stormRefRate, measured, b.rc.seed); err != nil {
			return err
		}
		ls = &ss.loopStats
	} else {
		ls = &loopStats{}
		b.closedLoop(time.Now().Add(measured), 0, ls)
	}
	stopAlt()
	m.on.Store(false)
	mt["proc.peak_heap_mb"] = stopHeap() / (1 << 20)
	after := b.d.read()

	txns := float64(ls.all.n())
	b.res.attempted, b.res.failed = ls.attempted.Load(), ls.failed.Load()
	if ls.firstErr != nil {
		b.res.notef("first failure: %v", ls.firstErr)
	}
	b.layerMetrics(before, after, txns)
	b.traceMetrics(ls)
	b.parseMetrics(ls.all.q(0.5))
	if ss != nil {
		mt["storm.queue_wait_p99_ms"] = ms(ss.queue.q(0.99))
		mt["storm.gen_late_p99_ms"] = ms(ss.late.q(0.99))
		mt["storm.backlog_max"] = float64(ss.backlogMax)
		mt["knee_per_s"] = b.ladder(window)
	}
	if b.w.samplingTax {
		tax, err := b.samplingTax(window - measured)
		if err != nil {
			return err
		}
		mt["obs.sampling_tax_pct"] = tax
	}
	mt["error_pct"] = 100 * per(float64(b.res.failed), float64(b.res.attempted))

	path := filepath.Join(b.rc.out, fmt.Sprintf("spans-%s-seed%d.jsonl", b.w.name, b.rc.seed))
	if err := m.spans.writeJSONL(path); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	b.res.notef("spans written to %s", path)
	b.finalGate()
	return nil
}

// layerMetrics derives the per-transaction counts from the counter
// snapshots around the window. Counts read from the databases include the
// DLFM daemons' background work; the wrapper counts (rpc, acceptor calls,
// wire bytes) are exact and host-driven.
func (b *bench) layerMetrics(before, after counts, txns float64) {
	m, mt := b.m, b.res.metrics
	mt["hostdb.exec_p50_us"] = us(m.q("hostdb.exec", 0.5))
	mt["hostdb.commit_p50_us"] = us(m.q("hostdb.commit", 0.5))
	mt["hostdb.commit_p99_us"] = us(m.q("hostdb.commit", 0.99))
	mt["hostdb.query_p50_us"] = us(m.q("hostdb.query", 0.5))
	mt["rpc.calls_per_txn"] = per(float64(m.rpcCalls.Load()), txns)
	mt["rpc.wire_bytes_per_txn"] = per(float64(m.wireBytes.Load()), txns)
	mt["rpc.roundtrip_p50_us"] = us(m.q("rpc.roundtrip", 0.5))
	mt["rpc.transport_p50_us"] = us(m.q("rpc.transport", 0.5))
	mt["rpc.reconnects"] = float64(after.reconnects - before.reconnects)
	mt["rpc.reissues"] = float64(after.reissues - before.reissues)
	for _, op := range coreOps {
		mt["core.handle_p50_us."+op] = us(m.q("core."+op, 0.5))
	}
	mt["core.phase2_retries_per_1k"] = 1000 * per(float64(after.core.Phase2Retries-before.core.Phase2Retries), txns)
	mt["core.prepare_fails_per_1k"] = 1000 * per(float64(after.core.PrepareFails-before.core.PrepareFails), txns)
	mt["paxoscommit.acceptor_calls_per_txn"] = per(float64(m.accCalls.Load()), txns)
	mt["paxoscommit.acceptor_handle_p50_us"] = us(m.q("acceptor", 0.5))
	mt["paxoscommit.recoveries_per_1k"] = 1000 * per(float64(after.hostStats.PaxosRecoveries-before.hostStats.PaxosRecoveries), txns)

	host := diff(after.host, before.host)
	var dlfm dbDelta
	for name, a := range after.dlfm {
		dlfm.add(diff(a, before.dlfm[name]))
	}
	all := host
	all.add(dlfm)
	perTxn := func(n int64) float64 { return per(float64(n), txns) }
	mt["engine.rows_read_per_txn.host"] = perTxn(host.eng.RowsRead)
	mt["engine.rows_read_per_txn.dlfm"] = perTxn(dlfm.eng.RowsRead)
	mt["engine.table_scans_per_txn.host"] = perTxn(host.eng.TableScans)
	mt["engine.table_scans_per_txn.dlfm"] = perTxn(dlfm.eng.TableScans)
	mt["engine.commits_per_txn.dlfm"] = perTxn(dlfm.eng.Commits)
	mt["lock.acquisitions_per_txn.host"] = perTxn(host.eng.Lock.Acquisitions)
	mt["lock.acquisitions_per_txn.dlfm"] = perTxn(dlfm.eng.Lock.Acquisitions)
	mt["lock.waits_per_1k"] = 1000 * perTxn(all.eng.Lock.Waits)
	mt["lock.wait_p99_ms"] = ms(all.lockWait.Quantile(0.99))
	mt["lock.deadlocks_timeouts_per_1k"] = 1000 * perTxn(all.eng.Lock.Deadlocks+all.eng.Lock.Timeouts)
	mt["wal.syncs_per_txn.host"] = perTxn(host.eng.Log.Syncs)
	mt["wal.syncs_per_txn.dlfm"] = perTxn(dlfm.eng.Log.Syncs)
	mt["wal.bytes_per_txn.host"] = perTxn(host.eng.Log.Bytes)
	mt["wal.bytes_per_txn.dlfm"] = perTxn(dlfm.eng.Log.Bytes)
	mt["wal.sync_p50_us"] = us(all.walSync.Quantile(0.5))
	mt["wal.sync_p99_us"] = us(all.walSync.Quantile(0.99))
	mt["wal.group_batch_size"] = per(float64(all.gcCommits), float64(all.gcBatches))
	if hits := dlfm.pool.Hits + dlfm.pool.Misses; hits > 0 {
		mt["storage.hit_ratio.dlfm"] = 100 * float64(dlfm.pool.Hits) / float64(hits)
	}
	mt["storage.evictions_per_txn"] = perTxn(all.pool.Evictions)
	mt["storage.page_reads_per_txn"] = perTxn(all.pool.Reads)
	mt["storage.page_writes_per_txn"] = perTxn(all.pool.Writes)
	if b.w.deploy.dataDir != "" {
		rows := 0
		b.l.mu.Lock()
		for _, urls := range b.l.rows {
			if urls != nil {
				rows++
			}
		}
		b.l.mu.Unlock()
		mt["storage.disk_bytes_per_row"] = per(float64(dirBytes(b.dir)), float64(rows))
	}
	p := after.proc
	mt["proc.allocs_per_txn"] = per(p[0]-before.proc[0], txns)
	mt["proc.alloc_bytes_per_txn"] = per(p[1]-before.proc[1], txns)
	mt["proc.gc_cpu_pct"] = 100 * per(p[2]-before.proc[2], p[3]-before.proc[3])
}

// dbDelta is the change of one or more databases' counters over a window.
type dbDelta struct {
	eng                  engine.Stats
	pool                 storage.PoolStats
	lockWait, walSync    obs.HistogramData
	gcBatches, gcCommits int64
}

func diff(a, b dbCounts) dbDelta {
	d := dbDelta{eng: a.eng, pool: a.pool, gcBatches: a.gcBatches - b.gcBatches, gcCommits: a.gcCommits - b.gcCommits}
	d.eng.RowsRead -= b.eng.RowsRead
	d.eng.TableScans -= b.eng.TableScans
	d.eng.Commits -= b.eng.Commits
	d.eng.Lock.Acquisitions -= b.eng.Lock.Acquisitions
	d.eng.Lock.Waits -= b.eng.Lock.Waits
	d.eng.Lock.Deadlocks -= b.eng.Lock.Deadlocks
	d.eng.Lock.Timeouts -= b.eng.Lock.Timeouts
	d.eng.Log.Syncs -= b.eng.Log.Syncs
	d.eng.Log.Bytes -= b.eng.Log.Bytes
	d.pool.Hits -= b.pool.Hits
	d.pool.Misses -= b.pool.Misses
	d.pool.Evictions -= b.pool.Evictions
	d.pool.Reads -= b.pool.Reads
	d.pool.Writes -= b.pool.Writes
	// Both snapshots come from the same registry histogram, so the bounds
	// always match.
	d.lockWait, _ = a.lockWait.Sub(b.lockWait)
	d.walSync, _ = a.walSync.Sub(b.walSync)
	return d
}

// add folds o into d (only the fields diff fills).
func (d *dbDelta) add(o dbDelta) {
	d.eng.RowsRead += o.eng.RowsRead
	d.eng.TableScans += o.eng.TableScans
	d.eng.Commits += o.eng.Commits
	d.eng.Lock.Acquisitions += o.eng.Lock.Acquisitions
	d.eng.Lock.Waits += o.eng.Lock.Waits
	d.eng.Lock.Deadlocks += o.eng.Lock.Deadlocks
	d.eng.Lock.Timeouts += o.eng.Lock.Timeouts
	d.eng.Log.Syncs += o.eng.Log.Syncs
	d.eng.Log.Bytes += o.eng.Log.Bytes
	d.pool.Hits += o.pool.Hits
	d.pool.Misses += o.pool.Misses
	d.pool.Evictions += o.pool.Evictions
	d.pool.Reads += o.pool.Reads
	d.pool.Writes += o.pool.Writes
	// Every engine histogram uses the default bounds, so merging cannot
	// fail.
	_ = d.lockWait.Merge(o.lockWait)
	_ = d.walSync.Merge(o.walSync)
	d.gcBatches += o.gcBatches
	d.gcCommits += o.gcCommits
}

// traceMetrics reports the tracing overhead and each layer's self time per
// transaction from the recorded spans.
func (b *bench) traceMetrics(ls *loopStats) {
	mt := b.res.metrics
	tr, un := ls.traced.q(0.5), ls.untraced.q(0.5)
	mt["trace.overhead_pct"] = 100 * per(float64(tr-un), float64(un))
	mt["trace.txn_p50_ms"] = ms(ls.all.q(0.5))
	mt["txn_p90_ms"] = ms(ls.all.q(0.90))
	mt["txn_p99_ms"] = ms(ls.all.q(0.99))
	mt["trace.txn_samples"] = float64(ls.all.n())
	self, txns := selfTimes(b.m.spans.all())
	for _, l := range selfLayers {
		mt["trace.self_us_per_txn."+l] = per(us(self[l]), float64(txns))
	}
	b.res.notef("traced %d of %d transactions; traced p50 %.4f ms vs untraced %.4f ms",
		ls.traced.n(), ls.all.n(), ms(tr), ms(un))
}

// parseMetrics times sql.Parse on each distinct statement text the
// workload issues, weighted by how often it issues it (one statement per
// transaction in every workload).
func (b *bench) parseMetrics(txnP50 time.Duration) {
	weights := map[string]float64{b.sql.insert: 1}
	if b.w.mixed {
		mix := workload.DefaultMix()
		weights = map[string]float64{
			b.sql.insert: float64(mix.InsertPct) / 100,
			b.sql.update: float64(mix.UpdatePct) / 100,
			b.sql.del:    float64(mix.DeletePct) / 100,
			b.sql.read:   float64(100-mix.InsertPct-mix.UpdatePct-mix.DeletePct) / 100,
		}
	}
	var perStmt float64
	for text, w := range weights {
		var s samples
		for i := 0; i < parseReps; i++ {
			start := time.Now()
			if _, err := sql.Parse(text); err != nil {
				b.res.violations = append(b.res.violations, fmt.Sprintf("sql.Parse(%q): %v", text, err))
				return
			}
			s.add(time.Since(start))
		}
		perStmt += w * us(s.q(0.5))
	}
	b.res.metrics["sql.parse_p50_us"] = perStmt
	b.res.metrics["sql.parse_share_pct"] = 100 * per(perStmt, us(txnP50))
}

// ladder climbs the fixed rate ladder, one stormRung per rate, and returns
// the highest rate whose p99 from due time met stormLimit with every
// transaction committed and no growing backlog.
func (b *bench) ladder(budget time.Duration) float64 {
	var knee float64
	deadline := time.Now().Add(budget)
	for i, rate := range stormLadder {
		if time.Now().After(deadline) {
			b.res.notef("ladder: budget spent before %.0f/s", rate)
			break
		}
		ss, err := b.stormPhase(20_000_000+int64(i)*1_000_000, rate, stormRung, b.rc.seed+int64(i)+1)
		if err != nil {
			b.res.violations = append(b.res.violations, "ladder: "+err.Error())
			break
		}
		b.res.attempted += ss.attempted.Load()
		b.res.failed += ss.failed.Load()
		p99 := ss.all.q(0.99)
		ok := ss.failed.Load() == 0 && p99 <= stormLimit && ss.backlogEnd <= stormBacklog
		b.res.notef("ladder %.0f/s: p99 %.2f ms, backlog at end %d, failed %d, pass %v",
			rate, ms(p99), ss.backlogEnd, ss.failed.Load(), ok)
		if !ok {
			break
		}
		knee = rate
	}
	return knee
}

// samplingTax alternates link transactions between the traced deployment
// (default trace sampling) and a second one with sampling disabled, and
// returns how much slower the sampled median is, in percent.
func (b *bench) samplingTax(dur time.Duration) (float64, error) {
	w := b.w
	w.deploy.noSample = true
	off := &bench{w: w, rc: b.rc, m: b.m, sql: b.sql, res: &result{metrics: map[string]float64{}}}
	if _, _, err := off.setup(setups); err != nil {
		return 0, fmt.Errorf("sampling-off deployment: %w", err)
	}
	defer off.closeDeployment()
	var on, none loopStats
	deadline := time.Now().Add(dur)
	for time.Now().Before(deadline) {
		for _, x := range []struct {
			b  *bench
			ls *loopStats
		}{{b, &on}, {off, &none}} {
			o := x.b.gens[0].next()
			if err := x.b.files(o); err != nil {
				return 0, err
			}
			d, err := x.b.do(x.b.sess[0], o)
			x.ls.record(o.kind, d, err, false, false)
		}
	}
	b.res.attempted += on.attempted.Load() + none.attempted.Load()
	b.res.failed += on.failed.Load() + none.failed.Load()
	b.res.violations = append(b.res.violations, gate(off.d, off.w.table, off.l)...)
	p50on, p50off := on.all.q(0.5), none.all.q(0.5)
	b.res.notef("sampling tax: p50 %.4f ms sampled vs %.4f ms unsampled (%d pairs)", ms(p50on), ms(p50off), on.all.n())
	return 100 * per(float64(p50on-p50off), float64(p50off)), nil
}
