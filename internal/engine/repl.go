package engine

import (
	"fmt"

	"repro/internal/lock"
	"repro/internal/wal"
)

// Replication apply primitives. A standby engine is a normal DB that never
// runs SQL: the replication client feeds it whole transactions of WAL
// records fetched from the primary, and these methods redo-apply them
// through the same code path crash recovery uses. Each applied transaction
// is also re-logged locally (with freshly assigned LSNs), so a promoted
// standby recovers from its own log like any primary.

// WAL exposes the database's write-ahead log so a primary can serve
// replication fetches (ReadFrom) directly from it.
func (db *DB) WAL() *wal.Log { return db.log }

// lockRecsTargets X-locks every row a replicated transaction touches (plus
// table IX), so standby readers never observe a half-applied transaction.
// On failure every lock the transaction holds is released.
func (db *DB) lockRecsTargets(txnID int64, recs []wal.Record) error {
	lm := db.lm.Load()
	locked := make(map[lock.Target]bool)
	for _, r := range recs {
		switch r.Type {
		case wal.RecInsert, wal.RecDelete, wal.RecUpdate:
		default:
			continue
		}
		tgt := lock.RowTarget(r.Table, r.RID)
		if locked[tgt] {
			continue
		}
		if err := lm.Acquire(txnID, lock.TableTarget(r.Table), lock.IX); err != nil {
			lm.ReleaseAll(txnID)
			return err
		}
		if err := lm.Acquire(txnID, tgt, lock.X); err != nil {
			lm.ReleaseAll(txnID)
			return err
		}
		locked[tgt] = true
	}
	return nil
}

// bumpTxnID keeps locally assigned transaction ids clear of replicated
// ones, exactly as recovery does for ids found in the log.
func (db *DB) bumpTxnID(txnID int64) {
	if txnID >= db.nextTxn.Load() {
		db.nextTxn.Store(txnID)
	}
}

// ApplyDDL replays one replicated DDL record (create table/index, drop
// table). DDL is autocommitted on the primary, so it applies immediately.
func (db *DB) ApplyDDL(r wal.Record) error {
	if _, err := db.log.Append(wal.Record{Txn: r.Txn, Type: r.Type, Table: r.Table}); err != nil {
		return err
	}
	db.latch.Lock()
	defer db.latch.Unlock()
	db.bumpTxnID(r.Txn)
	return db.applyRedoLocked(r)
}

// ApplyCommitted applies one committed replicated transaction: its data
// records are re-logged and redone atomically under the transaction's own
// X locks, then a commit record seals it. Locks are only needed to fence
// concurrent standby readers; on error (lock timeout, deadlock victim)
// nothing has been applied and the caller may retry.
func (db *DB) ApplyCommitted(txnID int64, recs []wal.Record) error {
	lm := db.lm.Load()
	if err := db.lockRecsTargets(txnID, recs); err != nil {
		return err
	}
	for _, r := range recs {
		rec := wal.Record{Txn: txnID, Type: r.Type, Table: r.Table, RID: r.RID, Before: r.Before, After: r.After}
		if _, err := db.log.Append(rec); err != nil {
			lm.ReleaseAll(txnID)
			return err
		}
	}
	if _, err := db.log.Append(wal.Record{Txn: txnID, Type: wal.RecCommit}); err != nil {
		lm.ReleaseAll(txnID)
		return err
	}
	if db.cfg.SyncCommit {
		if err := db.log.Sync(); err != nil {
			lm.ReleaseAll(txnID)
			return err
		}
	}
	db.latch.Lock()
	var applyErr error
	for _, r := range recs {
		if err := db.applyRedoLocked(r); err != nil {
			applyErr = err
			break
		}
	}
	db.bumpTxnID(txnID)
	db.latch.Unlock()
	lm.ReleaseAll(txnID)
	if applyErr != nil {
		return fmt.Errorf("engine: repl apply txn %d: %w", txnID, applyErr)
	}
	db.commits.Add(1)
	return nil
}

// ApplyPrepared applies a replicated transaction hardened by prepare but
// not yet resolved: its effects are redone and it is registered indoubt
// with its undo list rebuilt and its X locks retained, exactly the state
// crash recovery would restore. The coordinator's later decision arrives
// through ResolveIndoubt.
func (db *DB) ApplyPrepared(txnID int64, recs []wal.Record) error {
	lm := db.lm.Load()
	if err := db.lockRecsTargets(txnID, recs); err != nil {
		return err
	}
	for _, r := range recs {
		rec := wal.Record{Txn: txnID, Type: r.Type, Table: r.Table, RID: r.RID, Before: r.Before, After: r.After}
		if _, err := db.log.Append(rec); err != nil {
			lm.ReleaseAll(txnID)
			return err
		}
	}
	if _, err := db.log.Append(wal.Record{Txn: txnID, Type: wal.RecPrepare}); err != nil {
		lm.ReleaseAll(txnID)
		return err
	}
	if err := db.log.Sync(); err != nil {
		lm.ReleaseAll(txnID)
		return err
	}
	db.latch.Lock()
	defer db.latch.Unlock()
	t := &txn{id: txnID, prepared: true, wrote: true}
	for _, r := range recs {
		if err := db.applyRedoLocked(r); err != nil {
			lm.ReleaseAll(txnID)
			return fmt.Errorf("engine: repl apply prepared txn %d: %w", txnID, err)
		}
		switch r.Type {
		case wal.RecInsert:
			t.undo = append(t.undo, undoOp{typ: wal.RecInsert, table: r.Table, rid: r.RID, after: r.After})
		case wal.RecDelete:
			t.undo = append(t.undo, undoOp{typ: wal.RecDelete, table: r.Table, rid: r.RID, before: r.Before})
		case wal.RecUpdate:
			t.undo = append(t.undo, undoOp{typ: wal.RecUpdate, table: r.Table, rid: r.RID, before: r.Before, after: r.After})
		}
	}
	db.bumpTxnID(txnID)
	db.indoubt[txnID] = t
	return nil
}
