package resmgr

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"
)

const kib = int64(1 << 10)

// TestPoolReservationHonored verifies the borrow-from-general rule: memory
// reserved by a pool is never handed to another pool, while the reserving
// pool itself may borrow beyond its reservation when general memory is free.
func TestPoolReservationHonored(t *testing.T) {
	g := NewGovernor(Config{PoolBytes: 1024 * kib, MaxConcurrency: 8, QueueTimeout: -1})
	if err := g.CreatePool(PoolConfig{Name: "etl", MemBytes: 512 * kib}); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	// General may never eat into etl's 512K reservation: a 768K request can
	// never fit beside it, so admission fails fast instead of queueing.
	if _, err := g.AdmitPoolBytes(ctx, GeneralPool, 768*kib); err == nil {
		t.Fatal("768K general grant should not fit beside a 512K reservation")
	}

	// 512K on general fits exactly beside the reservation.
	gr1, err := g.AdmitPoolBytes(ctx, GeneralPool, 512*kib)
	if err != nil {
		t.Fatal(err)
	}
	// etl gets its guaranteed 512K even with general's 512K outstanding.
	gr2, err := g.AdmitPoolBytes(ctx, "etl", 512*kib)
	if err != nil {
		t.Fatal(err)
	}
	gr1.Release()
	gr2.Release()

	// With general idle, etl may borrow the whole pool.
	gr3, err := g.AdmitPoolBytes(ctx, "etl", 1024*kib)
	if err != nil {
		t.Fatal(err)
	}
	gr3.Release()
}

// TestPoolMaxMemCapsBorrowing checks MAXMEMORYSIZE == MEMORYSIZE disables
// borrowing entirely.
func TestPoolMaxMemCapsBorrowing(t *testing.T) {
	g := NewGovernor(Config{PoolBytes: 1024 * kib, MaxConcurrency: 8})
	err := g.CreatePool(PoolConfig{Name: "capped", MemBytes: 128 * kib, MaxMemBytes: 128 * kib})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.AdmitPoolBytes(context.Background(), "capped", 256*kib); err == nil {
		t.Fatal("grant above the pool cap must be rejected outright")
	}
	gr, err := g.AdmitPoolBytes(context.Background(), "capped", 128*kib)
	if err != nil {
		t.Fatal(err)
	}
	defer gr.Release()
	st, _ := g.PoolStatus("capped")
	if st.BorrowedBytes != 0 || st.InUseBytes != 128*kib {
		t.Fatalf("capped pool accounting: %+v", st)
	}
}

// TestPoolConcurrencyIsolation verifies one pool's saturated slots do not
// block another pool's admission.
func TestPoolConcurrencyIsolation(t *testing.T) {
	g := NewGovernor(Config{PoolBytes: 1024 * kib, MaxConcurrency: 4, QueueTimeout: time.Minute})
	if err := g.CreatePool(PoolConfig{Name: "a", MaxConcurrency: 1, GrantBytes: 64 * kib}); err != nil {
		t.Fatal(err)
	}
	if err := g.CreatePool(PoolConfig{Name: "b", MaxConcurrency: 1, GrantBytes: 64 * kib}); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	hold, err := g.AdmitPoolBytes(ctx, "a", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer hold.Release()
	// a is saturated: a second a-admission queues...
	queued := make(chan error, 1)
	go func() {
		gr, err := g.AdmitPoolBytes(ctx, "a", 0)
		if gr != nil {
			gr.Release()
		}
		queued <- err
	}()
	for st, _ := g.PoolStatus("a"); st.Waiting != 1; st, _ = g.PoolStatus("a") {
		time.Sleep(time.Millisecond)
	}
	// ...while b admits immediately.
	gr, err := g.AdmitPoolBytes(ctx, "b", 0)
	if err != nil {
		t.Fatal(err)
	}
	gr.Release()
	hold.Release()
	if err := <-queued; err != nil {
		t.Fatalf("queued a-admission after release: %v", err)
	}
}

// TestPoolQueueTimeout exercises the per-pool timeout override.
func TestPoolQueueTimeout(t *testing.T) {
	g := NewGovernor(Config{PoolBytes: 1024 * kib, MaxConcurrency: 4, QueueTimeout: time.Hour})
	if err := g.CreatePool(PoolConfig{Name: "impatient", MaxConcurrency: 1, QueueTimeout: 10 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	hold, err := g.AdmitPoolBytes(context.Background(), "impatient", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer hold.Release()
	if _, err := g.AdmitPoolBytes(context.Background(), "impatient", 0); !errors.Is(err, ErrQueueTimeout) {
		t.Fatalf("expected ErrQueueTimeout, got %v", err)
	}
	st, _ := g.PoolStatus("impatient")
	if st.TimedOut != 1 {
		t.Fatalf("pool timeout counter = %d", st.TimedOut)
	}
}

// TestAlterPoolWakesQueue checks loosening MAXCONCURRENCY dispatches queued
// admissions without a release.
func TestAlterPoolWakesQueue(t *testing.T) {
	g := NewGovernor(Config{PoolBytes: 1024 * kib, MaxConcurrency: 4, QueueTimeout: time.Minute})
	if err := g.CreatePool(PoolConfig{Name: "narrow", MaxConcurrency: 1, GrantBytes: 64 * kib}); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	hold, err := g.AdmitPoolBytes(ctx, "narrow", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer hold.Release()
	got := make(chan *Grant, 1)
	go func() {
		gr, err := g.AdmitPoolBytes(ctx, "narrow", 0)
		if err != nil {
			t.Error(err)
		}
		got <- gr
	}()
	for st, _ := g.PoolStatus("narrow"); st.Waiting != 1; st, _ = g.PoolStatus("narrow") {
		time.Sleep(time.Millisecond)
	}
	two := 2
	if err := g.AlterPool("narrow", PoolAlter{MaxConcurrency: &two}); err != nil {
		t.Fatal(err)
	}
	gr := <-got
	if gr == nil {
		t.Fatal("alter did not admit the queued query")
	}
	gr.Release()
}

// TestDropPoolSafety: the general pool and busy pools refuse to drop.
func TestDropPoolSafety(t *testing.T) {
	g := NewGovernor(Config{PoolBytes: 1024 * kib})
	if err := g.DropPool(GeneralPool); err == nil {
		t.Fatal("dropping general must fail")
	}
	if err := g.CreatePool(PoolConfig{Name: "busy"}); err != nil {
		t.Fatal(err)
	}
	gr, err := g.AdmitPoolBytes(context.Background(), "busy", 64*kib)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.DropPool("busy"); err == nil {
		t.Fatal("dropping a pool with a running query must fail")
	}
	gr.Release()
	if err := g.DropPool("busy"); err != nil {
		t.Fatal(err)
	}
	if g.HasPool("busy") {
		t.Fatal("pool still present after drop")
	}
}

// TestPoolReservationOverCommit rejects reservations exceeding the global
// pool.
func TestPoolReservationOverCommit(t *testing.T) {
	g := NewGovernor(Config{PoolBytes: 1024 * kib})
	if err := g.CreatePool(PoolConfig{Name: "half", MemBytes: 512 * kib}); err != nil {
		t.Fatal(err)
	}
	if err := g.CreatePool(PoolConfig{Name: "toobig", MemBytes: 768 * kib}); err == nil {
		t.Fatal("reservations beyond the global pool must be rejected")
	}
	mb := int64(768 * kib)
	if err := g.AlterPool("half", PoolAlter{MemBytes: &mb}); err != nil {
		t.Fatal(err) // 768K alone fits
	}
	if err := g.CreatePool(PoolConfig{Name: "slim", MemBytes: 512 * kib}); err == nil {
		t.Fatal("second reservation pushing the total over must be rejected")
	}
}

// TestProfileRetained: a released query and a pre-admission failure each
// land one profile carrying the id, label and status that identify it (ring
// behaviour itself is tested once, on dc.Ring).
func TestProfileRetained(t *testing.T) {
	g := NewGovernor(Config{PoolBytes: 1024 * kib})
	ctx := WithLabel(context.Background(), "q0")
	gr, err := g.AdmitPoolBytes(ctx, PoolFromContext(ctx), 64*kib)
	if err != nil {
		t.Fatal(err)
	}
	gr.ReportRows(7)
	gr.Release()
	g.RecordFailure("", "q1", errors.New("no such table"))

	profs := g.Profiles()
	if len(profs) != 2 {
		t.Fatalf("retained %d profiles, want 2: %+v", len(profs), profs)
	}
	if p := profs[0]; p.ID != gr.QueryID() || p.Label != "q0" || p.Pool != GeneralPool || p.Rows != 7 || p.Status != "ok" {
		t.Fatalf("released profile = %+v", p)
	}
	if p := profs[1]; p.ID != gr.QueryID()+1 || p.Label != "q1" || p.Status != "error" || p.Error != "no such table" {
		t.Fatalf("failure profile = %+v", p)
	}
	for _, st := range g.RingStats() {
		if want := map[string]int{"query_profiles": ProfileCapacity, "execution_engine_profiles": OpProfileCapacity}[st.Stream]; st.Cap != want {
			t.Fatalf("ring %q capacity = %d, want %d", st.Stream, st.Cap, want)
		}
	}
}

// TestPoolContentionDrainsToZero is the borrow/return soak: N goroutines
// hammer M pools with random grant sizes; after the drain every pool's
// accounting must return to zero with no leaked grants, bytes or slots.
// Run with -race (CI does).
func TestPoolContentionDrainsToZero(t *testing.T) {
	g := NewGovernor(Config{PoolBytes: 2048 * kib, MaxConcurrency: 6, QueueTimeout: time.Minute})
	pools := []string{GeneralPool}
	for i := 0; i < 3; i++ {
		name := fmt.Sprintf("pool%d", i)
		if err := g.CreatePool(PoolConfig{
			Name:           name,
			MemBytes:       256 * kib,
			MaxMemBytes:    1024 * kib,
			MaxConcurrency: 2 + i,
		}); err != nil {
			t.Fatal(err)
		}
		pools = append(pools, name)
	}
	const (
		workers  = 16
		perChain = 25
	)
	ctx := context.Background()
	var wg sync.WaitGroup
	var admitted int64
	var mu sync.Mutex
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < perChain; i++ {
				pool := pools[rng.Intn(len(pools))]
				bytes := (1 + int64(rng.Intn(8))) * 64 * kib
				gr, err := g.AdmitPoolBytes(WithLabel(ctx, "soak"), pool, bytes)
				if err != nil {
					t.Errorf("admit %s/%d: %v", pool, bytes, err)
					return
				}
				gr.ReportRows(1)
				if rng.Intn(4) == 0 {
					gr.ReportSpill(int64(rng.Intn(1000)))
				}
				if rng.Intn(2) == 0 {
					time.Sleep(time.Duration(rng.Intn(200)) * time.Microsecond)
				}
				gr.Release()
				gr.Release() // idempotent double release must not corrupt accounting
				mu.Lock()
				admitted++
				mu.Unlock()
			}
		}(int64(w))
	}
	wg.Wait()

	st := g.Stats()
	if st.Running != 0 || st.Waiting != 0 || st.InUseBytes != 0 {
		t.Fatalf("governor did not drain: %+v", st)
	}
	if st.Admitted != admitted || admitted != workers*perChain {
		t.Fatalf("admitted %d, expected %d", st.Admitted, admitted)
	}
	var perPoolAdmitted, perPoolRows int64
	for _, ps := range g.Pools() {
		if ps.Running != 0 || ps.Waiting != 0 || ps.InUseBytes != 0 || ps.BorrowedBytes != 0 {
			t.Fatalf("pool %s did not drain: %+v", ps.Name, ps)
		}
		perPoolAdmitted += ps.Admitted
		perPoolRows += ps.RowsReturned
	}
	if perPoolAdmitted != st.Admitted {
		t.Fatalf("per-pool admitted %d != aggregate %d", perPoolAdmitted, st.Admitted)
	}
	if perPoolRows != st.RowsReturned || perPoolRows != admitted {
		t.Fatalf("per-pool rows %d, aggregate %d, admitted %d", perPoolRows, st.RowsReturned, admitted)
	}
	wantProfiles := int(admitted)
	if wantProfiles > ProfileCapacity {
		wantProfiles = ProfileCapacity
	}
	if len(g.Profiles()) != wantProfiles {
		t.Fatalf("profiles retained = %d, want %d", len(g.Profiles()), wantProfiles)
	}
}

// TestUnknownPool rejects admission against a pool that does not exist.
func TestUnknownPool(t *testing.T) {
	g := NewGovernor(Config{PoolBytes: 1024 * kib})
	if _, err := g.AdmitPoolBytes(context.Background(), "nope", 0); err == nil {
		t.Fatal("admission on an unknown pool must fail")
	}
	if _, err := g.Admit(WithPool(context.Background(), "nope")); err == nil {
		t.Fatal("context-tagged unknown pool must fail")
	}
}

// TestPoolAPIEdgeCases sweeps the small accessors and validation branches:
// alter of every knob, grant metadata and nil-safety.
func TestPoolAPIEdgeCases(t *testing.T) {
	g := NewGovernor(Config{PoolBytes: 1024 * kib, MaxConcurrency: 2})
	if got := g.Config().MaxConcurrency; got != 2 {
		t.Fatalf("Config() = %+v", g.Config())
	}
	if err := g.CreatePool(PoolConfig{}); err == nil {
		t.Fatal("empty pool name must fail")
	}
	if err := g.CreatePool(PoolConfig{Name: "neg", MemBytes: -1}); err == nil {
		t.Fatal("negative sizes must fail")
	}
	if err := g.CreatePool(PoolConfig{Name: "neg", MaxConcurrency: -2}); err == nil {
		t.Fatal("negative concurrency must fail")
	}
	if err := g.CreatePool(PoolConfig{Name: "p", MemBytes: 128 * kib, GrantBytes: 64 * kib,
		PlannedConcurrency: 2, QueueTimeout: time.Second}); err != nil {
		t.Fatal(err)
	}
	mem, maxMem, grant := int64(256*kib), int64(512*kib), int64(128*kib)
	pc, mc := 4, 3
	qt := 2 * time.Second
	if err := g.AlterPool("p", PoolAlter{
		MemBytes: &mem, MaxMemBytes: &maxMem, GrantBytes: &grant,
		PlannedConcurrency: &pc, MaxConcurrency: &mc, QueueTimeout: &qt,
	}); err != nil {
		t.Fatal(err)
	}
	st, ok := g.PoolStatus("p")
	if cfg := st.Config; !ok || st.MemBytes != mem || cfg.MaxMemBytes != maxMem || cfg.GrantBytes != grant ||
		st.PlannedConcurrency != pc || cfg.MaxConcurrency != mc || cfg.QueueTimeout != qt {
		t.Fatalf("altered status = %+v", st)
	}
	if _, ok := g.PoolStatus("nosuch"); ok {
		t.Fatal("PoolStatus on unknown pool")
	}
	huge := int64(2048 * kib)
	if err := g.AlterPool("p", PoolAlter{MemBytes: &huge}); err == nil {
		t.Fatal("alter beyond the global pool must fail")
	}

	gr, err := g.Admit(WithPool(WithLabel(context.Background(), "labeled"), "p"))
	if err != nil {
		t.Fatal(err)
	}
	if gr.Pool() != "p" || gr.Bytes() != grant || gr.QueueWait() != 0 {
		t.Fatalf("grant metadata: pool=%q bytes=%d wait=%s", gr.Pool(), gr.Bytes(), gr.QueueWait())
	}
	gr.SetError(errors.New("boom"))
	gr.SetError(nil) // no-op
	gr.Release()
	if profs := g.Profiles(); len(profs) != 1 || profs[0].Error != "boom" || profs[0].Status != "error" {
		t.Fatalf("failed statement's profile = %+v", profs)
	}
	if g.Stats().String() == "" {
		t.Fatal("Stats stringer")
	}

	// nil-grant safety.
	var nilGr *Grant
	if nilGr.Pool() != "" || nilGr.Bytes() != 0 || nilGr.QueueWait() != 0 {
		t.Fatal("nil grant accessors")
	}
	nilGr.SetError(errors.New("x"))

	// Context helpers on untagged/nil contexts.
	if PoolFromContext(context.Background()) != "" || PoolFromContext(nil) != "" {
		t.Fatal("PoolFromContext zero values")
	}
	if LabelFromContext(context.Background()) != "" || LabelFromContext(nil) != "" {
		t.Fatal("LabelFromContext zero values")
	}
}

// TestInfeasibleAdmissionFailsFast: a request that cannot fit even on a
// fully drained governor errors immediately instead of queueing to timeout.
func TestInfeasibleAdmissionFailsFast(t *testing.T) {
	g := NewGovernor(Config{PoolBytes: 1024 * kib, MaxConcurrency: 8, QueueTimeout: -1})
	if err := g.CreatePool(PoolConfig{Name: "hog", MemBytes: 1024 * kib}); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if _, err := g.AdmitPoolBytes(context.Background(), GeneralPool, 64*kib); err == nil {
		t.Fatal("general admission beside a full reservation must fail")
	}
	if time.Since(start) > time.Second {
		t.Fatal("infeasible admission blocked instead of failing fast")
	}
	// The reserving pool itself still admits.
	gr, err := g.AdmitPoolBytes(context.Background(), "hog", 0)
	if err != nil {
		t.Fatal(err)
	}
	gr.Release()
}

// TestReservationShrinksDefaultGrants: a legal reservation must not brick
// other pools' default admissions — derived grants shrink to the unreserved
// remainder.
func TestReservationShrinksDefaultGrants(t *testing.T) {
	g := NewGovernor(Config{PoolBytes: 1024 * kib, MaxConcurrency: 2}) // general grant 512K
	if err := g.CreatePool(PoolConfig{Name: "etl", MemBytes: 640 * kib}); err != nil {
		t.Fatal(err)
	}
	gr, err := g.Admit(context.Background()) // general default admission
	if err != nil {
		t.Fatalf("general admission bricked by a legal reservation: %v", err)
	}
	if gr.Bytes() != 384*kib { // the unreserved remainder
		t.Fatalf("general grant = %d, want %d", gr.Bytes(), 384*kib)
	}
	gr.Release()
	st, _ := g.PoolStatus(GeneralPool)
	if st.EffGrantBytes != 384*kib {
		t.Fatalf("status grant = %d", st.EffGrantBytes)
	}
}
