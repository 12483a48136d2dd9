package resmgr

import (
	"context"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestGrantRequestExtendsFromHeadroom: an admitted query grows its grant
// from free pool memory without re-queueing, the extension shows in the
// governor's in-use accounting immediately, and release returns everything.
func TestGrantRequestExtendsFromHeadroom(t *testing.T) {
	g := NewGovernor(Config{PoolBytes: 1024 * kib, MaxConcurrency: 4, GrantBytes: 128 * kib})
	gr, err := g.Admit(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if gr.Bytes() != 128*kib {
		t.Fatalf("admitted bytes = %d, want %d", gr.Bytes(), 128*kib)
	}
	if err := gr.Request(256 * kib); err != nil {
		t.Fatalf("extension with free headroom failed: %v", err)
	}
	if gr.Bytes() != 384*kib {
		t.Fatalf("extended bytes = %d, want %d", gr.Bytes(), 384*kib)
	}
	if st := g.Stats(); st.InUseBytes != 384*kib {
		t.Fatalf("in-use after extension = %d, want %d", st.InUseBytes, 384*kib)
	}
	qs := gr.Stats()
	if qs.GrantExtensions != 1 || qs.ExtensionBytes != 256*kib || qs.DeniedExtensions != 0 {
		t.Fatalf("grant counters = %+v", qs)
	}
	gr.Release()
	st := g.Stats()
	if st.InUseBytes != 0 || st.Running != 0 {
		t.Fatalf("release leaked: %+v", st)
	}
	if st.GrantExtensions != 1 || st.ExtensionBytes != 256*kib {
		t.Fatalf("governor aggregates missing extensions: %+v", st)
	}
	profs := g.Profiles()
	if len(profs) != 1 {
		t.Fatalf("want 1 profile, got %d", len(profs))
	}
	p := profs[0]
	if p.GrantBytes != 384*kib || p.GrantExtensions != 1 || p.ExtensionBytes != 256*kib {
		t.Fatalf("profile = %+v", p)
	}
}

// TestGrantRequestInfeasiblePoolCap: an extension that would push the grant
// past the pool's MAXMEMORYSIZE fails fast with an error naming the cap —
// mirroring the admission-time feasibility error — and counts as denied.
func TestGrantRequestInfeasiblePoolCap(t *testing.T) {
	g := NewGovernor(Config{PoolBytes: 1024 * kib, MaxConcurrency: 4})
	if err := g.CreatePool(PoolConfig{Name: "capped", MemBytes: 128 * kib, MaxMemBytes: 192 * kib}); err != nil {
		t.Fatal(err)
	}
	ctx := WithPool(context.Background(), "capped")
	gr, err := g.Admit(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer gr.Release()
	err = gr.Request(192 * kib) // grant is already >= 64K, cap is 192K
	if err == nil {
		t.Fatal("extension past maxmemorysize should fail")
	}
	if errors.Is(err, ErrExtensionDenied) {
		t.Fatalf("infeasible extension should not be a retriable denial: %v", err)
	}
	if !strings.Contains(err.Error(), "maxmemorysize") || !strings.Contains(err.Error(), "capped") {
		t.Fatalf("error should name the pool cap: %v", err)
	}
	var inf *InfeasibleError
	if !errors.As(err, &inf) {
		t.Fatalf("infeasible extension should be typed InfeasibleError: %v", err)
	}
	if qs := gr.Stats(); qs.DeniedExtensions != 1 {
		t.Fatalf("infeasible request not counted as denied: %+v", qs)
	}
}

// TestGrantRequestInfeasibleReservations: an extension excluded for good by
// other pools' reservations fails fast naming the global pool, even though
// the pool itself has no MAXMEMORYSIZE.
func TestGrantRequestInfeasibleReservations(t *testing.T) {
	g := NewGovernor(Config{PoolBytes: 1024 * kib, MaxConcurrency: 4, GrantBytes: 128 * kib})
	if err := g.CreatePool(PoolConfig{Name: "hog", MemBytes: 768 * kib}); err != nil {
		t.Fatal(err)
	}
	gr, err := g.Admit(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer gr.Release()
	err = gr.Request(512 * kib) // 128K + 512K + 768K reservation > 1024K forever
	if err == nil {
		t.Fatal("structurally impossible extension should fail")
	}
	if errors.Is(err, ErrExtensionDenied) {
		t.Fatalf("want a fail-fast infeasibility error, got retriable denial: %v", err)
	}
	if !strings.Contains(err.Error(), "reserve") {
		t.Fatalf("error should name the reservations: %v", err)
	}
}

// TestGrantRequestDeniedThenRetriable: a feasible extension is denied while
// another query holds the headroom and succeeds after that query releases.
func TestGrantRequestDeniedThenRetriable(t *testing.T) {
	g := NewGovernor(Config{PoolBytes: 512 * kib, MaxConcurrency: 4, GrantBytes: 128 * kib})
	ctx := context.Background()
	gr1, err := g.Admit(ctx)
	if err != nil {
		t.Fatal(err)
	}
	gr2, err := g.AdmitPoolBytes(ctx, PoolFromContext(ctx), 384*kib) // pool now full
	if err != nil {
		t.Fatal(err)
	}
	if err := gr1.Request(128 * kib); !errors.Is(err, ErrExtensionDenied) {
		t.Fatalf("extension on a full pool: err = %v, want ErrExtensionDenied", err)
	}
	if qs := gr1.Stats(); qs.DeniedExtensions != 1 {
		t.Fatalf("denied extension not counted: %+v", qs)
	}
	gr2.Release()
	if err := gr1.Request(128 * kib); err != nil {
		t.Fatalf("extension after release failed: %v", err)
	}
	gr1.Release()
}

// TestExtensionRespectsReservations: borrowing via extension can never eat
// another pool's unfilled MEMORYSIZE guarantee.
func TestExtensionRespectsReservations(t *testing.T) {
	g := NewGovernor(Config{PoolBytes: 1024 * kib, MaxConcurrency: 4, GrantBytes: 128 * kib})
	if err := g.CreatePool(PoolConfig{Name: "etl", MemBytes: 512 * kib}); err != nil {
		t.Fatal(err)
	}
	gr, err := g.Admit(context.Background()) // general, 128K
	if err != nil {
		t.Fatal(err)
	}
	defer gr.Release()
	// 1024K - 512K reserved = 512K for general; 128K held → 384K headroom.
	if err := gr.Request(448 * kib); err == nil {
		t.Fatal("extension into etl's idle reservation should be refused")
	}
	if err := gr.Request(384 * kib); err != nil {
		t.Fatalf("extension up to the unreserved remainder failed: %v", err)
	}
	// The etl pool still gets its full guarantee right now.
	egr, err := g.AdmitPoolBytes(context.Background(), "etl", 512*kib)
	if err != nil {
		t.Fatalf("reservation violated by extension: %v", err)
	}
	egr.Release()
}

// TestExtensionCountsAgainstAdmission: outstanding extensions are in-use
// memory — an admission sized to the pre-extension free space must wait.
func TestExtensionCountsAgainstAdmission(t *testing.T) {
	g := NewGovernor(Config{PoolBytes: 512 * kib, MaxConcurrency: 4,
		GrantBytes: 128 * kib, QueueTimeout: 50 * time.Millisecond})
	ctx := context.Background()
	gr, err := g.Admit(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if err := gr.Request(256 * kib); err != nil { // 384K now in use
		t.Fatal(err)
	}
	if _, err := g.AdmitPoolBytes(ctx, PoolFromContext(ctx), 256*kib); !errors.Is(err, ErrQueueTimeout) {
		t.Fatalf("admission ignoring outstanding extension: err = %v, want timeout", err)
	}
	gr.Release()
	gr2, err := g.AdmitPoolBytes(ctx, PoolFromContext(ctx), 256*kib)
	if err != nil {
		t.Fatalf("admission after release failed: %v", err)
	}
	gr2.Release()
}

// TestConcurrentExtendersDrainHeadroom races many queries extending in
// small steps until the pool is dry and verifies the global invariant held:
// granted bytes never exceed the pool, nothing leaks on release, and the
// denials line up with the headroom that actually existed.
func TestConcurrentExtendersDrainHeadroom(t *testing.T) {
	const (
		pool    = 2048 * kib
		grant   = 64 * kib
		step    = 32 * kib
		workers = 8
	)
	g := NewGovernor(Config{PoolBytes: pool, MaxConcurrency: workers, GrantBytes: grant})
	ctx := context.Background()
	var granted atomic.Int64
	var wg sync.WaitGroup
	grants := make([]*Grant, workers)
	for i := 0; i < workers; i++ {
		gr, err := g.Admit(ctx)
		if err != nil {
			t.Fatal(err)
		}
		grants[i] = gr
		granted.Add(grant)
	}
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(gr *Grant) {
			defer wg.Done()
			for {
				if err := gr.Request(step); err != nil {
					if !errors.Is(err, ErrExtensionDenied) {
						t.Errorf("unexpected extension error: %v", err)
					}
					return
				}
				granted.Add(step)
			}
		}(grants[i])
	}
	wg.Wait()
	if got := granted.Load(); got != pool {
		t.Fatalf("extenders drained %d bytes, want the whole %d-byte pool", got, pool)
	}
	if st := g.Stats(); st.InUseBytes != pool {
		t.Fatalf("governor in-use = %d, want %d", st.InUseBytes, pool)
	}
	var sum int64
	for _, gr := range grants {
		sum += gr.Bytes()
		gr.Release()
	}
	if sum != pool {
		t.Fatalf("grants account for %d bytes, want %d", sum, pool)
	}
	st := g.Stats()
	if st.InUseBytes != 0 || st.Running != 0 {
		t.Fatalf("release leaked: %+v", st)
	}
	if st.DeniedExtensions < int64(workers) {
		t.Fatalf("every worker should end on a denial: %+v", st)
	}
}

// TestExtensionVsAlterShrink races grant extensions against ALTER RESOURCE
// POOL shrinking and restoring MAXMEMORYSIZE. The cap must bind atomically:
// whatever interleaving happens, the pool's in-use bytes never exceed the
// global pool and the governor stays consistent after release.
func TestExtensionVsAlterShrink(t *testing.T) {
	const pool = 1024 * kib
	g := NewGovernor(Config{PoolBytes: pool, MaxConcurrency: 4})
	if err := g.CreatePool(PoolConfig{Name: "elastic", MemBytes: 128 * kib, MaxMemBytes: 512 * kib}); err != nil {
		t.Fatal(err)
	}
	ctx := WithPool(context.Background(), "elastic")
	gr, err := g.AdmitPoolBytes(ctx, "elastic", 64*kib)
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		small, big := int64(192*kib), int64(512*kib)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			mm := big
			if i%2 == 0 {
				mm = small
			}
			if err := g.AlterPool("elastic", PoolAlter{MaxMemBytes: &mm}); err != nil {
				t.Errorf("alter: %v", err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		defer close(stop)
		for i := 0; i < 2000; i++ {
			err := gr.Request(16 * kib)
			switch {
			case err == nil, errors.Is(err, ErrExtensionDenied):
			case strings.Contains(err.Error(), "maxmemorysize"):
				// Shrunk cap observed mid-flight: infeasible under the
				// current configuration, retriable after the next grow.
			default:
				t.Errorf("extension: %v", err)
				return
			}
		}
	}()
	wg.Wait()
	if got := gr.Bytes(); got > pool {
		t.Fatalf("grant grew past the global pool: %d", got)
	}
	st, ok := g.PoolStatus("elastic")
	if !ok {
		t.Fatal("pool vanished")
	}
	if st.InUseBytes != gr.Bytes() {
		t.Fatalf("pool in-use %d != grant %d", st.InUseBytes, gr.Bytes())
	}
	gr.Release()
	if st := g.Stats(); st.InUseBytes != 0 {
		t.Fatalf("release leaked: %+v", st)
	}
}

// TestGrantRequestMisuse: non-positive sizes and released grants error
// without touching the accounting; a nil grant reports a plain denial so
// ungoverned operators just spill.
func TestGrantRequestMisuse(t *testing.T) {
	g := NewGovernor(Config{PoolBytes: 512 * kib, MaxConcurrency: 2, GrantBytes: 128 * kib})
	gr, err := g.Admit(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if err := gr.Request(0); err == nil {
		t.Fatal("zero-byte extension should error")
	}
	if err := gr.Request(-1); err == nil {
		t.Fatal("negative extension should error")
	}
	gr.Release()
	if err := gr.Request(64 * kib); err == nil {
		t.Fatal("extension after release should error")
	}
	if st := g.Stats(); st.InUseBytes != 0 {
		t.Fatalf("misuse changed accounting: %+v", st)
	}
	var nilGr *Grant
	if err := nilGr.Request(64 * kib); !errors.Is(err, ErrExtensionDenied) {
		t.Fatalf("nil grant: err = %v, want ErrExtensionDenied", err)
	}
}
