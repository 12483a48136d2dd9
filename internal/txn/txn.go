package txn

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/types"
)

// Txn is one transaction's bookkeeping. Effects are staged as callbacks and
// applied only at commit, mirroring Vertica's model where "transaction
// rollback simply entails discarding any ROS container or WOS data created
// by the transaction" (§5) — nothing is visible until commit.
type Txn struct {
	ID TxnID

	mu      sync.Mutex
	commits []func(epoch types.Epoch) error
	dml     bool // DML has been staged
	done    bool
}

// Manager creates transactions and coordinates their commit with the epoch
// clock and the lock manager.
type Manager struct {
	Locks  *LockManager
	Epochs *EpochManager

	nextID   atomic.Uint64
	commitMu sync.Mutex // serializes the commit critical section
}

// NewManager creates a transaction manager with fresh lock and epoch state.
func NewManager() *Manager {
	return &Manager{Locks: NewLockManager(0), Epochs: NewEpochManager()}
}

// Begin starts a transaction; its queries read committed data (paper §5).
func (m *Manager) Begin() *Txn {
	return &Txn{ID: TxnID(m.nextID.Add(1))}
}

// StageCommit registers an effect applied at commit with the commit epoch.
// dml marks the transaction as containing DML so commit advances the epoch.
func (t *Txn) StageCommit(dml bool, apply func(epoch types.Epoch) error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.dml = t.dml || dml
	if apply != nil {
		t.commits = append(t.commits, apply)
	}
}

// Commit applies staged effects at a single commit epoch and advances the
// clock when DML is present ("Vertica automatically advances the epoch as
// part of commit when the committing transaction includes DML", §5.1).
// The commit epoch is returned (0 for read-only transactions).
func (m *Manager) Commit(t *Txn) (types.Epoch, error) {
	t.mu.Lock()
	if t.done {
		t.mu.Unlock()
		return 0, fmt.Errorf("txn: transaction %d already finished", t.ID)
	}
	t.done = true
	commits := t.commits
	dml := t.dml
	t.mu.Unlock()

	defer m.Locks.ReleaseAll(t.ID)
	if !dml && len(commits) == 0 {
		return 0, nil
	}
	m.commitMu.Lock()
	defer m.commitMu.Unlock()
	var epoch types.Epoch
	if dml {
		// Stamp now, publish after the applies: the clock advances past the
		// commit epoch only once every staged effect has landed, so READ
		// COMMITTED queries (targeting current-1) can never observe a
		// half-applied commit — e.g. rows present in one projection of a
		// table but not yet in another.
		epoch = m.Epochs.BeginCommitDML()
		defer m.Epochs.FinishCommitDML()
	} else {
		epoch = m.Epochs.Current()
	}
	for _, apply := range commits {
		if err := apply(epoch); err != nil {
			// A failed apply is fatal to the transaction; already-applied
			// effects are at a consistent epoch boundary, matching the
			// paper's "nodes either successfully complete the commit or
			// are ejected" semantics at single-node scope.
			return 0, fmt.Errorf("txn: commit of %d failed: %w", t.ID, err)
		}
	}
	return epoch, nil
}

// Rollback discards the transaction: its staged effects never run.
func (m *Manager) Rollback(t *Txn) {
	t.mu.Lock()
	if t.done {
		t.mu.Unlock()
		return
	}
	t.done = true
	t.mu.Unlock()
	m.Locks.ReleaseAll(t.ID)
}
