// Package repl adds log-shipping replication to the DLFM: a hot standby
// pulls write-ahead-log records from its primary over the rpc transport
// (ReplFetch), continuously redo-applies whole transactions into its own
// engine through the crash-recovery apply path, and can be promoted to
// primary when the original dies.
//
// The paper's DLFM (Section: backup and recovery) recovers only by
// restarting against its local database and archive, leaving the 2PC
// coordinator blocked for the whole restore window. The standby closes
// that window: its database trails the primary by the replication lag,
// and Promote drains the remaining stream — the stand-in for reading the
// primary's durable log device — so no transaction the primary hardened
// is lost.
package repl

import (
	"fmt"
	"io"
	"log/slog"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/rpc"
	"repro/internal/wal"
)

// Fault points in the standby's apply and promote windows (the ship window
// lives on the primary, repl.ship). An error arming skips that unit of
// work and retries; a delay widens the lag deterministically.
var (
	fpApply   = fault.P("repl.apply")
	fpPromote = fault.P("repl.promote")
)

// Config tunes one standby's replication client.
type Config struct {
	// PollInterval is the fetch polling period; zero defaults to 2 ms.
	PollInterval time.Duration
	// BatchMax caps records per fetch; zero lets the primary choose.
	BatchMax int
	// DrainAttempts bounds how many consecutive failing fetches Promote
	// tolerates before giving up on the stream and promoting with what
	// has been applied. Zero defaults to 10.
	DrainAttempts int
}

// Standby couples a fenced core.Server with a replication client that
// keeps it current against the primary's log.
type Standby struct {
	srv  *core.Server
	dial func() (io.ReadWriteCloser, error)
	cfg  Config

	applyLSN atomic.Int64 // highest primary LSN applied
	shipLSN  atomic.Int64 // primary's last LSN at the most recent fetch

	batches  obs.Counter
	records  obs.Counter
	txns     obs.Counter
	promoted atomic.Bool

	mu     sync.Mutex // serializes apply and promote
	client *rpc.Client
	// ap holds the transaction-reassembly state (range.go), shared with
	// the bounded-range apply path the cluster mover uses.
	ap *applier

	quit chan struct{}
	done chan struct{}
	stop sync.Once
}

// New builds a standby around srv (which must have been opened with
// core.NewStandby) fetching the primary's log through dial. Call Start to
// begin streaming.
func New(srv *core.Server, dial func() (io.ReadWriteCloser, error), cfg Config) *Standby {
	if cfg.PollInterval <= 0 {
		cfg.PollInterval = 2 * time.Millisecond
	}
	if cfg.DrainAttempts <= 0 {
		cfg.DrainAttempts = 10
	}
	s := &Standby{
		srv:  srv,
		dial: dial,
		cfg:  cfg,
		ap:   newApplier(srv.Tracer()),
		quit: make(chan struct{}),
		done: make(chan struct{}),
	}
	s.ap.txns = &s.txns
	reg := srv.Obs()
	reg.RegisterCounter("repl_batches_total", &s.batches)
	reg.RegisterCounter("repl_records_total", &s.records)
	reg.RegisterCounter("repl_txns_applied_total", &s.txns)
	reg.GaugeFunc("repl_apply_lsn", func() float64 { return float64(s.applyLSN.Load()) })
	reg.GaugeFunc("repl_ship_lsn", func() float64 { return float64(s.shipLSN.Load()) })
	reg.GaugeFunc("repl_lag_records", func() float64 { return float64(s.Lag()) })
	return s
}

// Server returns the standby's DLFM instance (fenced until Promote).
func (s *Standby) Server() *core.Server { return s.srv }

// ApplyLSN returns the highest primary LSN applied so far.
func (s *Standby) ApplyLSN() int64 { return s.applyLSN.Load() }

// Lag returns how many primary log records the standby has yet to apply.
func (s *Standby) Lag() int64 {
	lag := s.shipLSN.Load() - s.applyLSN.Load()
	if lag < 0 {
		return 0
	}
	return lag
}

// Promoted reports whether Promote has completed.
func (s *Standby) Promoted() bool { return s.promoted.Load() }

// Start launches the fetch-and-apply loop.
func (s *Standby) Start() {
	go s.run()
}

// Stop halts the fetch loop without promoting.
func (s *Standby) Stop() {
	s.stop.Do(func() { close(s.quit) })
	<-s.done
}

func (s *Standby) run() {
	defer close(s.done)
	tick := time.NewTicker(s.cfg.PollInterval)
	defer tick.Stop()
	for {
		select {
		case <-s.quit:
			return
		case <-tick.C:
			if _, err := s.fetchOnce(); err != nil {
				// Transport or apply failure: keep polling. The client
				// redials on the next call; a dead primary shows up as
				// growing lag, which failover resolves with Promote.
				slog.Warn("repl: standby fetch failed", "server", s.srv.Name(), "err", err)
			}
		}
	}
}

// fetchOnce pulls one batch and applies it, returning the record count.
func (s *Standby) fetchOnce() (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.fetchLocked()
}

func (s *Standby) fetchLocked() (int, error) {
	if s.client == nil {
		conn, err := s.dial()
		if err != nil {
			return 0, err
		}
		s.client = rpc.NewClient(conn)
	}
	resp, err := s.client.Call(rpc.ReplFetchReq{FromLSN: s.applyLSN.Load() + 1, Max: s.cfg.BatchMax})
	if err != nil {
		// Drop the client so the next attempt redials through the dialer
		// (the endpoint may have moved).
		s.client.Close()
		s.client = nil
		return 0, err
	}
	if !resp.OK() {
		return 0, fmt.Errorf("repl: fetch refused: %s: %s", resp.Code, resp.Msg)
	}
	recs, err := wal.DecodeRecords(resp.Data)
	if err != nil {
		return 0, err
	}
	s.shipLSN.Store(resp.LSN - 1)
	if len(recs) == 0 {
		return 0, nil
	}
	s.batches.Add(1)
	if err := s.applyLocked(recs); err != nil {
		return 0, err
	}
	return len(recs), nil
}

// applyLocked feeds a batch through the shared applier (range.go): data
// records buffer per transaction; commit/abort/prepare apply the buffered
// transaction through the engine's recovery-path primitives; DDL applies
// immediately (it is autocommitted on the primary).
func (s *Standby) applyLocked(recs []wal.Record) error {
	db := s.srv.DB()
	for _, r := range recs {
		if r.LSN <= s.applyLSN.Load() {
			continue // idempotent re-fetch overlap
		}
		if err := fpApply.FireDetail(r.Type.String()); err != nil {
			return err
		}
		if err := s.ap.apply(db, r); err != nil {
			return fmt.Errorf("repl: apply LSN %d (%s txn %d): %w", r.LSN, r.Type, r.Txn, err)
		}
		s.applyLSN.Store(r.LSN)
		s.records.Add(1)
	}
	return nil
}

// Promote turns the standby into a primary: the fetch loop stops, the
// remaining stream is drained (best effort — a handful of consecutive
// fetch failures means the log source is gone too, and the standby
// promotes with everything it has), and the DLFM unfences, binds its SQL,
// and starts its daemons. Transactions the stream left prepared surface
// through ListIndoubt for the host's resolution daemon.
func (s *Standby) Promote() error {
	if err := fpPromote.Fire(); err != nil {
		return err
	}
	s.stop.Do(func() { close(s.quit) })
	<-s.done

	s.mu.Lock()
	failures := 0
	for failures < s.cfg.DrainAttempts {
		n, err := s.fetchLocked()
		if err != nil {
			failures++
			time.Sleep(5 * time.Millisecond)
			continue
		}
		if n == 0 && s.Lag() == 0 {
			break
		}
		failures = 0
	}
	if s.client != nil {
		s.client.Close()
		s.client = nil
	}
	s.mu.Unlock()

	if err := s.srv.Promote(); err != nil {
		return err
	}
	s.promoted.Store(true)
	return nil
}
