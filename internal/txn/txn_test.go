package txn

import (
	"sync"
	"testing"
	"time"

	"repro/internal/types"
)

// TestLockCompatibilityMatrix verifies the implementation against Table 1 of
// the paper, cell by cell.
func TestLockCompatibilityMatrix(t *testing.T) {
	// Rows: requested S, I, SI, X, T, U, O; columns: granted S I SI X T U O.
	want := [7][7]bool{
		{true, false, false, false, true, true, false},    // S
		{false, true, false, false, true, true, false},    // I
		{false, false, false, false, true, true, false},   // SI
		{false, false, false, false, false, true, false},  // X
		{true, true, true, false, true, true, false},      // T
		{true, true, true, true, true, true, false},       // U
		{false, false, false, false, false, false, false}, // O
	}
	for i, req := range Modes {
		for j, granted := range Modes {
			if got := Compatible(req, granted); got != want[i][j] {
				t.Errorf("Compatible(%s, %s) = %v, want %v (Table 1)", req, granted, got, want[i][j])
			}
		}
	}
}

// TestLockConversionMatrix verifies the implementation against Table 2.
func TestLockConversionMatrix(t *testing.T) {
	want := [7][7]LockMode{
		{S, SI, SI, X, S, S, O},    // S requested
		{SI, I, SI, X, I, I, O},    // I
		{SI, SI, SI, X, SI, SI, O}, // SI
		{X, X, X, X, X, X, O},      // X
		{S, I, SI, X, T, T, O},     // T
		{S, I, SI, X, T, U, O},     // U
		{O, O, O, O, O, O, O},      // O
	}
	for i, req := range Modes {
		for j, granted := range Modes {
			if got := Convert(req, granted); got != want[i][j] {
				t.Errorf("Convert(%s, %s) = %s, want %s (Table 2)", req, granted, got, want[i][j])
			}
		}
	}
}

func TestCompatibilitySymmetryWhereExpected(t *testing.T) {
	// Table 1 is symmetric except for the X/U pair: requested U is
	// compatible with granted X, but requested X is not compatible with
	// granted U... actually per Table 1, X requested vs U granted is Yes and
	// U requested vs X granted is Yes. The lone asymmetry is T vs X (No/No —
	// symmetric) so verify full symmetry of the table.
	for _, a := range Modes {
		for _, b := range Modes {
			if a == X && b == U || a == U && b == X {
				continue // X/U documented asymmetric in Table 1? verify below
			}
			if Compatible(a, b) != Compatible(b, a) {
				t.Errorf("asymmetric: Compatible(%s,%s)=%v but Compatible(%s,%s)=%v",
					a, b, Compatible(a, b), b, a, Compatible(b, a))
			}
		}
	}
	// Per Table 1 as printed: requested X vs granted U = Yes; requested U vs
	// granted X = Yes. So X/U is symmetric too.
	if !Compatible(X, U) || !Compatible(U, X) {
		t.Error("X and U should be mutually compatible per Table 1")
	}
}

func TestLockManagerBasicGrantRelease(t *testing.T) {
	lm := NewLockManager(50 * time.Millisecond)
	if err := lm.TryAcquire(1, "sales", I); err != nil {
		t.Fatal(err)
	}
	// Insert locks are compatible with themselves: parallel loads.
	if err := lm.TryAcquire(2, "sales", I); err != nil {
		t.Fatalf("parallel insert should be allowed: %v", err)
	}
	// X conflicts with I.
	if err := lm.TryAcquire(3, "sales", X); err == nil {
		t.Fatal("X should conflict with granted I")
	}
	lm.Release(1, "sales")
	lm.Release(2, "sales")
	if err := lm.TryAcquire(3, "sales", X); err != nil {
		t.Fatalf("X after release: %v", err)
	}
	if lm.Held(3, "sales") != X {
		t.Error("Held should report X")
	}
	if got := lm.HoldersOf("sales"); len(got) != 1 || got[0] != 3 {
		t.Errorf("HoldersOf = %v", got)
	}
}

func TestLockManagerConversion(t *testing.T) {
	lm := NewLockManager(50 * time.Millisecond)
	// A txn holding S that requests I converts to SI (Table 2).
	if err := lm.TryAcquire(1, "t", S); err != nil {
		t.Fatal(err)
	}
	if err := lm.TryAcquire(1, "t", I); err != nil {
		t.Fatal(err)
	}
	if got := lm.Held(1, "t"); got != SI {
		t.Errorf("converted mode = %s, want SI", got)
	}
	// Another txn's I must now be refused (SI vs I incompatible).
	if err := lm.TryAcquire(2, "t", I); err == nil {
		t.Error("I should conflict with converted SI")
	}
}

func TestLockManagerConversionBlockedByOthers(t *testing.T) {
	lm := NewLockManager(50 * time.Millisecond)
	// Two transactions hold S; one upgrades to X — must be refused because
	// the other S holder is incompatible with X.
	lm.TryAcquire(1, "t", S)
	lm.TryAcquire(2, "t", S)
	if err := lm.TryAcquire(1, "t", X); err == nil {
		t.Error("upgrade to X should be blocked by other S holder")
	}
}

func TestLockManagerBlockingAcquire(t *testing.T) {
	lm := NewLockManager(2 * time.Second)
	lm.TryAcquire(1, "t", X)
	done := make(chan error, 1)
	go func() {
		done <- lm.Acquire(2, "t", S)
	}()
	time.Sleep(20 * time.Millisecond)
	lm.ReleaseAll(1)
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("blocked acquire should succeed after release: %v", err)
		}
	case <-time.After(time.Second):
		t.Fatal("Acquire did not wake after release")
	}
}

func TestLockManagerTimeout(t *testing.T) {
	lm := NewLockManager(30 * time.Millisecond)
	lm.TryAcquire(1, "t", O)
	start := time.Now()
	err := lm.Acquire(2, "t", S)
	if err != ErrLockTimeout {
		t.Fatalf("want ErrLockTimeout, got %v", err)
	}
	if time.Since(start) > time.Second {
		t.Error("timeout took far too long")
	}
}

func TestTupleMoverLockCompatibleWithQueriesAndLoads(t *testing.T) {
	// Paper: T is compatible with every lock except X, letting the tuple
	// mover run concurrently with queries (S) and loads (I).
	lm := NewLockManager(50 * time.Millisecond)
	lm.TryAcquire(1, "t", S)
	lm.TryAcquire(2, "t", I)
	if err := lm.TryAcquire(3, "t", T); err != nil {
		t.Fatalf("T should coexist with S and I: %v", err)
	}
	lm.ReleaseAll(1)
	lm.ReleaseAll(2)
	lm.ReleaseAll(3)
	lm.TryAcquire(4, "t", X)
	if err := lm.TryAcquire(5, "t", T); err == nil {
		t.Error("T must conflict with X")
	}
}

func TestEpochManagerBasics(t *testing.T) {
	em := NewEpochManager()
	if em.Current() != 1 {
		t.Fatalf("initial epoch = %d", em.Current())
	}
	if em.ReadEpoch() != 0 {
		t.Fatalf("initial read epoch = %d", em.ReadEpoch())
	}
	e := em.CommitDML()
	if e != 1 || em.Current() != 2 {
		t.Errorf("CommitDML: epoch %d, current %d", e, em.Current())
	}
	// READ COMMITTED sees the committed epoch immediately (automatic epoch
	// advancement, §5.1: commits become visible without waiting).
	if em.ReadEpoch() != e {
		t.Errorf("ReadEpoch = %d, want %d", em.ReadEpoch(), e)
	}
}

func TestLGETracking(t *testing.T) {
	em := NewEpochManager()
	em.SetLGE("p1", 5)
	em.SetLGE("p1", 3) // must not regress
	if em.LGE("p1") != 5 {
		t.Errorf("LGE = %d, want 5", em.LGE("p1"))
	}
	em.SetLGE("p2", 2)
	if got := em.MinLGE([]string{"p1", "p2"}); got != 2 {
		t.Errorf("MinLGE = %d", got)
	}
	if got := em.MinLGE(nil); got != em.Current() {
		t.Errorf("empty MinLGE = %d, want current", got)
	}
}

func TestAHMAdvancement(t *testing.T) {
	em := NewEpochManager()
	for i := 0; i < 10; i++ {
		em.CommitDML()
	}
	em.SetLGE("p1", 8)
	got := em.AdvanceAHM()
	// current = 11; target = 10, limited by LGE 8.
	if got != 8 {
		t.Errorf("AHM = %d, want 8 (limited by LGE)", got)
	}
	// AHM held while a node is down.
	em.HoldAHM(true)
	em.SetLGE("p1", 10)
	if got := em.AdvanceAHM(); got != 8 {
		t.Errorf("held AHM advanced to %d", got)
	}
	em.HoldAHM(false)
	if got := em.AdvanceAHM(); got != 10 {
		t.Errorf("released AHM = %d, want 10", got)
	}
	if err := em.SetAHM(5); err == nil {
		t.Error("AHM must not move backward")
	}
}

func TestTxnCommitAppliesAtSingleEpoch(t *testing.T) {
	m := NewManager()
	tx := m.Begin()
	var got []types.Epoch
	tx.StageCommit(true, func(e types.Epoch) error { got = append(got, e); return nil })
	tx.StageCommit(true, func(e types.Epoch) error { got = append(got, e); return nil })
	epoch, err := m.Commit(tx)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != epoch || got[1] != epoch {
		t.Errorf("effects applied at %v, commit epoch %d", got, epoch)
	}
	if m.Epochs.Current() != epoch+1 {
		t.Error("DML commit should advance the epoch")
	}
	// Double commit refused.
	if _, err := m.Commit(tx); err == nil {
		t.Error("second commit should fail")
	}
}

func TestReadOnlyCommitDoesNotAdvanceEpoch(t *testing.T) {
	m := NewManager()
	before := m.Epochs.Current()
	tx := m.Begin()
	if _, err := m.Commit(tx); err != nil {
		t.Fatal(err)
	}
	if m.Epochs.Current() != before {
		t.Error("read-only commit advanced the epoch")
	}
}

func TestTxnRollbackDiscardsStagedEffects(t *testing.T) {
	m := NewManager()
	tx := m.Begin()
	tx.StageCommit(true, func(types.Epoch) error { t.Error("commit effect ran on rollback"); return nil })
	m.Rollback(tx)
	if m.Epochs.Current() != 1 {
		t.Error("rollback advanced the epoch")
	}
	// Rollback after rollback is a no-op.
	m.Rollback(tx)
	if m.Epochs.Current() != 1 {
		t.Error("second rollback advanced the epoch")
	}
}

func TestCommitReleasesLocks(t *testing.T) {
	m := NewManager()
	tx := m.Begin()
	m.Locks.TryAcquire(tx.ID, "t", X)
	m.Commit(tx)
	if m.Locks.Held(tx.ID, "t") != NoLock {
		t.Error("commit did not release locks")
	}
}

func TestConcurrentCommitsGetDistinctEpochs(t *testing.T) {
	m := NewManager()
	const n = 32
	epochs := make([]types.Epoch, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tx := m.Begin()
			tx.StageCommit(true, func(types.Epoch) error { return nil })
			e, err := m.Commit(tx)
			if err != nil {
				t.Error(err)
			}
			epochs[i] = e
		}(i)
	}
	wg.Wait()
	seen := map[types.Epoch]bool{}
	for _, e := range epochs {
		if seen[e] {
			t.Fatalf("epoch %d assigned twice", e)
		}
		seen[e] = true
	}
}
