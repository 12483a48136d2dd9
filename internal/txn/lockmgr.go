package txn

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/dc"
)

// TxnID identifies a transaction.
type TxnID uint64

// ErrLockTimeout is returned when a lock cannot be granted within the
// manager's timeout (the engine surfaces it as a lock conflict to the user
// rather than queueing indefinitely, which also breaks deadlocks).
var ErrLockTimeout = fmt.Errorf("txn: lock request timed out")

// LockManager grants table locks according to the compatibility matrix
// (Table 1), converting a transaction's existing lock per Table 2 when it
// re-requests on the same table.
type LockManager struct {
	mu      sync.Mutex
	cond    *sync.Cond
	tables  map[string]map[TxnID]LockMode
	timeout time.Duration
	col     *dc.Collector // nil-safe Data Collector for lock-attempt events
}

// SetCollector wires the Data Collector that records blocking lock
// attempts (v_monitor.dc_lock_attempts). Nil disables recording.
func (lm *LockManager) SetCollector(col *dc.Collector) {
	lm.mu.Lock()
	lm.col = col
	lm.mu.Unlock()
}

// NewLockManager creates a lock manager. timeout bounds how long Acquire
// blocks; 0 means a 5s default.
func NewLockManager(timeout time.Duration) *LockManager {
	if timeout <= 0 {
		timeout = 5 * time.Second
	}
	lm := &LockManager{tables: map[string]map[TxnID]LockMode{}, timeout: timeout}
	lm.cond = sync.NewCond(&lm.mu)
	return lm
}

// grantable reports whether txn may hold mode on the table right now, and
// the effective mode after conversion with any lock it already holds.
func (lm *LockManager) grantable(txn TxnID, table string, mode LockMode) (LockMode, bool) {
	holders := lm.tables[table]
	eff := Convert(mode, holders[txn])
	for other, held := range holders {
		if other == txn {
			continue
		}
		if !Compatible(eff, held) {
			return eff, false
		}
	}
	return eff, true
}

// TryAcquire attempts to grant the lock without blocking.
func (lm *LockManager) TryAcquire(txn TxnID, table string, mode LockMode) error {
	lm.mu.Lock()
	defer lm.mu.Unlock()
	eff, ok := lm.grantable(txn, table, mode)
	if !ok {
		return fmt.Errorf("txn: %s lock on %q conflicts with held locks", mode, table)
	}
	lm.grant(txn, table, eff)
	return nil
}

// Acquire blocks until the lock is granted or the timeout elapses. Every
// attempt — granted or timed out — is recorded with its wait time in the
// Data Collector's lock stream (dc is a leaf package, so emitting under
// lm.mu cannot re-enter the lock manager).
func (lm *LockManager) Acquire(txn TxnID, table string, mode LockMode) error {
	start := time.Now()
	deadline := start.Add(lm.timeout)
	lm.mu.Lock()
	defer lm.mu.Unlock()
	for {
		eff, ok := lm.grantable(txn, table, mode)
		if ok {
			lm.grant(txn, table, eff)
			lm.col.RecordLock(dc.LockEvent{Table: table, Txn: uint64(txn),
				Mode: mode.String(), Wait: time.Since(start), Granted: true})
			return nil
		}
		if time.Now().After(deadline) {
			lm.col.RecordLock(dc.LockEvent{Table: table, Txn: uint64(txn),
				Mode: mode.String(), Wait: time.Since(start), Granted: false})
			return ErrLockTimeout
		}
		// Wake periodically to re-check the deadline; Release broadcasts.
		waitWithDeadline(lm.cond, deadline)
	}
}

// waitWithDeadline waits on cond but wakes by the deadline at the latest.
func waitWithDeadline(cond *sync.Cond, deadline time.Time) {
	t := time.AfterFunc(time.Until(deadline)+time.Millisecond, cond.Broadcast)
	defer t.Stop()
	cond.Wait()
}

func (lm *LockManager) grant(txn TxnID, table string, eff LockMode) {
	holders := lm.tables[table]
	if holders == nil {
		holders = map[TxnID]LockMode{}
		lm.tables[table] = holders
	}
	holders[txn] = eff
}

// Release drops txn's lock on a table.
func (lm *LockManager) Release(txn TxnID, table string) {
	lm.mu.Lock()
	defer lm.mu.Unlock()
	if holders := lm.tables[table]; holders != nil {
		delete(holders, txn)
		if len(holders) == 0 {
			delete(lm.tables, table)
		}
	}
	lm.cond.Broadcast()
}

// ReleaseAll drops every lock held by txn (commit/rollback).
func (lm *LockManager) ReleaseAll(txn TxnID) {
	lm.mu.Lock()
	defer lm.mu.Unlock()
	for table, holders := range lm.tables {
		delete(holders, txn)
		if len(holders) == 0 {
			delete(lm.tables, table)
		}
	}
	lm.cond.Broadcast()
}

// Held returns the mode txn holds on table (NoLock if none).
func (lm *LockManager) Held(txn TxnID, table string) LockMode {
	lm.mu.Lock()
	defer lm.mu.Unlock()
	return lm.tables[table][txn]
}

// LockInfo is one held table lock, for monitoring (v_monitor.locks).
type LockInfo struct {
	Table string   `vt:"table_name"`
	Txn   TxnID    `vt:"txn_id"`
	Mode  LockMode `vt:"mode"`
}

// Snapshot lists every held lock, sorted by table then transaction id, for
// the v_monitor.locks system table.
func (lm *LockManager) Snapshot() []LockInfo {
	lm.mu.Lock()
	defer lm.mu.Unlock()
	var out []LockInfo
	for table, holders := range lm.tables {
		for txn, mode := range holders {
			out = append(out, LockInfo{Table: table, Txn: txn, Mode: mode})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Table != out[j].Table {
			return out[i].Table < out[j].Table
		}
		return out[i].Txn < out[j].Txn
	})
	return out
}

// HoldersOf lists transactions holding locks on a table, for monitoring.
func (lm *LockManager) HoldersOf(table string) []TxnID {
	lm.mu.Lock()
	defer lm.mu.Unlock()
	out := make([]TxnID, 0, len(lm.tables[table]))
	for t := range lm.tables[table] {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
