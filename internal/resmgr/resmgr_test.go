package resmgr

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

func TestAdmitFastPath(t *testing.T) {
	g := NewGovernor(Config{PoolBytes: 1 << 20, MaxConcurrency: 2})
	gr, err := g.Admit(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if gr.Bytes() != 512<<10 {
		t.Fatalf("grant bytes = %d, want %d", gr.Bytes(), 512<<10)
	}
	st := g.Stats()
	if st.Running != 1 || st.InUseBytes != 512<<10 || st.Admitted != 1 {
		t.Fatalf("stats after admit: %+v", st)
	}
	gr.Release()
	gr.Release() // idempotent
	st = g.Stats()
	if st.Running != 0 || st.InUseBytes != 0 {
		t.Fatalf("stats after release: %+v", st)
	}
}

func TestConcurrencyBoundAndFIFOFairness(t *testing.T) {
	// One slot so admissions drain strictly one at a time: completion order
	// equals dispatch order.
	g := NewGovernor(Config{PoolBytes: 64 << 20, MaxConcurrency: 1, QueueTimeout: -1})
	a, err := g.Admit(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	// Queue 8 more; record the order they are admitted in.
	const n = 8
	var mu sync.Mutex
	var order []int
	var wg sync.WaitGroup
	started := make(chan struct{}, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			started <- struct{}{}
			gr, err := g.Admit(context.Background())
			if err != nil {
				t.Error(err)
				return
			}
			mu.Lock()
			order = append(order, id)
			mu.Unlock()
			gr.Release()
		}(i)
		<-started // serialize enqueue so FIFO order is deterministic
		for {
			if g.Stats().Waiting == i+1 {
				break
			}
			time.Sleep(time.Millisecond)
		}
	}
	if st := g.Stats(); st.Running != 1 || st.Waiting != n {
		t.Fatalf("expected 1 running / %d waiting, got %+v", n, st)
	}
	a.Release()
	wg.Wait()
	for i, id := range order {
		if id != i {
			t.Fatalf("admission order %v not FIFO", order)
		}
	}
	st := g.Stats()
	if st.Queued != n || st.TotalQueueWait <= 0 {
		t.Fatalf("queue stats: %+v", st)
	}
}

func TestQueueTimeout(t *testing.T) {
	g := NewGovernor(Config{PoolBytes: 1 << 20, MaxConcurrency: 1, QueueTimeout: 20 * time.Millisecond})
	hold, err := g.Admit(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer hold.Release()
	_, err = g.Admit(context.Background())
	if !errors.Is(err, ErrQueueTimeout) {
		t.Fatalf("err = %v, want ErrQueueTimeout", err)
	}
	st := g.Stats()
	if st.TimedOut != 1 || st.Waiting != 0 {
		t.Fatalf("stats after timeout: %+v", st)
	}
}

func TestAdmitCancelWhileQueued(t *testing.T) {
	g := NewGovernor(Config{PoolBytes: 1 << 20, MaxConcurrency: 1, QueueTimeout: -1})
	hold, err := g.Admit(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := g.Admit(ctx)
		done <- err
	}()
	for g.Stats().Waiting != 1 {
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if st := g.Stats(); st.Canceled != 1 || st.Waiting != 0 {
		t.Fatalf("stats after cancel: %+v", st)
	}
	hold.Release()
	if st := g.Stats(); st.Running != 0 || st.InUseBytes != 0 {
		t.Fatalf("pool not restored: %+v", st)
	}
}

func TestAbandonedHeadUnblocksQueue(t *testing.T) {
	// A large queued grant at the head must not strand a smaller one behind
	// it forever once the head gives up.
	g := NewGovernor(Config{PoolBytes: 1 << 20, MaxConcurrency: 4, QueueTimeout: -1, GrantBytes: 256 << 10})
	hold, err := g.AdmitPoolBytes(context.Background(), PoolFromContext(context.Background()), 900<<10)
	if err != nil {
		t.Fatal(err)
	}
	bigCtx, cancelBig := context.WithCancel(context.Background())
	bigDone := make(chan error, 1)
	go func() {
		_, err := g.AdmitPoolBytes(bigCtx, PoolFromContext(bigCtx), 1<<20)
		bigDone <- err
	}()
	for g.Stats().Waiting != 1 {
		time.Sleep(time.Millisecond)
	}
	smallDone := make(chan *Grant, 1)
	go func() {
		gr, err := g.AdmitPoolBytes(context.Background(), PoolFromContext(context.Background()), 64<<10)
		if err != nil {
			t.Error(err)
		}
		smallDone <- gr
	}()
	for g.Stats().Waiting != 2 {
		time.Sleep(time.Millisecond)
	}
	// Small fits but must wait behind the big head (fairness).
	select {
	case <-smallDone:
		t.Fatal("small grant jumped the queue")
	case <-time.After(20 * time.Millisecond):
	}
	cancelBig()
	<-bigDone
	gr := <-smallDone
	gr.Release()
	hold.Release()
}

func TestGrantReportingAggregation(t *testing.T) {
	g := NewGovernor(Config{PoolBytes: 1 << 20, MaxConcurrency: 2})
	gr, err := g.Admit(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	gr.ReportRows(100)
	gr.ReportSpill(4096)
	gr.ReportSpill(1024)
	gr.ReportAlloc(2000)
	gr.ReportAlloc(1000) // lower: ignored
	qs := gr.Stats()
	if qs.Rows != 100 || qs.Spills != 2 || qs.SpilledBytes != 5120 || qs.AllocPeak != 2000 {
		t.Fatalf("query stats: %+v", qs)
	}
	gr.Release()
	st := g.Stats()
	if st.RowsReturned != 100 || st.SpilledBytes != 5120 {
		t.Fatalf("aggregated stats: %+v", st)
	}
}

func TestNilGrantSafe(t *testing.T) {
	var gr *Grant
	gr.ReportRows(1)
	gr.ReportSpill(1)
	gr.ReportAlloc(1)
	gr.Release()
	if gr.Bytes() != 0 || gr.OperatorBudget(4) != 0 || gr.QueueWait() != 0 {
		t.Fatal("nil grant must be inert")
	}
	if (gr.Stats() != QueryStats{}) {
		t.Fatal("nil grant stats must be zero")
	}
}

func TestOperatorBudgetSplit(t *testing.T) {
	g := NewGovernor(Config{PoolBytes: 32 << 20, MaxConcurrency: 2})
	gr, err := g.Admit(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer gr.Release()
	if b := gr.OperatorBudget(4); b != 4<<20 {
		t.Fatalf("budget = %d, want %d", b, 4<<20)
	}
	if b := gr.OperatorBudget(0); b != 16<<20 {
		t.Fatalf("budget(0) = %d, want %d", b, 16<<20)
	}
	// Tiny grants never divide below the floor.
	tiny, err := g.AdmitPoolBytes(context.Background(), PoolFromContext(context.Background()), 128<<10)
	if err != nil {
		t.Fatal(err)
	}
	defer tiny.Release()
	if b := tiny.OperatorBudget(16); b != 64<<10 {
		t.Fatalf("floored budget = %d, want %d", b, 64<<10)
	}
}

func TestGrantTooLarge(t *testing.T) {
	g := NewGovernor(Config{PoolBytes: 1 << 20, MaxConcurrency: 2})
	if _, err := g.AdmitPoolBytes(context.Background(), PoolFromContext(context.Background()), 2<<20); err == nil {
		t.Fatal("expected error for grant larger than pool")
	}
}

// TestConcurrentStress hammers the governor from many goroutines under the
// race detector: the pool must never overcommit and must drain to zero.
func TestConcurrentStress(t *testing.T) {
	g := NewGovernor(Config{PoolBytes: 1 << 20, MaxConcurrency: 4, QueueTimeout: -1})
	var wg sync.WaitGroup
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ctx := context.Background()
			if i%8 == 0 {
				var cancel context.CancelFunc
				ctx, cancel = context.WithTimeout(ctx, time.Duration(i)*100*time.Microsecond)
				defer cancel()
			}
			gr, err := g.Admit(ctx)
			if err != nil {
				return
			}
			gr.ReportRows(1)
			if st := g.Stats(); st.InUseBytes > st.PoolBytes || st.Running > 4 {
				t.Errorf("overcommit: %+v", st)
			}
			gr.Release()
		}(i)
	}
	wg.Wait()
	st := g.Stats()
	if st.Running != 0 || st.InUseBytes != 0 || st.Waiting != 0 {
		t.Fatalf("pool not drained: %+v", st)
	}
}
