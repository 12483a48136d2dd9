package exec

import (
	"context"
	"errors"
	"runtime"
	"time"

	"strings"
	"sync"
	"testing"

	"repro/internal/types"
	"repro/internal/vector"
)

// batchSource produces `batches` synthetic batches of `rowsPer` rows and
// can be told to fail at a given batch index (simulating a dying worker
// pipeline mid-pump).
type batchSource struct {
	schema   *types.Schema
	batches  int
	rowsPer  int
	failAt   int // batch index at which Next errors; -1 = never
	base     int
	produced int
}

var errWorkerDied = errors.New("worker pipeline died")

func (s *batchSource) Schema() *types.Schema { return s.schema }
func (s *batchSource) Open(*Ctx) error       { s.produced = 0; return nil }
func (s *batchSource) Close(*Ctx) error      { return nil }
func (s *batchSource) Describe() string      { return "BatchSource" }

func (s *batchSource) Next(*Ctx) (*vector.Batch, error) {
	if s.produced == s.failAt {
		return nil, errWorkerDied
	}
	if s.produced >= s.batches {
		return nil, nil
	}
	b := vector.NewBatchForSchema(s.schema, s.rowsPer)
	for i := 0; i < s.rowsPer; i++ {
		n := int64(s.base + s.produced*s.rowsPer + i)
		b.AppendRow(types.Row{types.NewInt(n), types.NewInt(n % 7)})
	}
	s.produced++
	return b, nil
}

func exchangeSchema() *types.Schema {
	return types.NewSchema(
		types.Column{Name: "k", Typ: types.Int64},
		types.Column{Name: "g", Typ: types.Int64},
	)
}

// failAfter passes batches through until n have been seen, then errors —
// a consumer pipeline dying above an exchange port.
type failAfter struct {
	single
	n    int
	seen int
}

var errConsumerDied = errors.New("consumer pipeline died")

func (f *failAfter) Schema() *types.Schema { return f.child.Schema() }
func (f *failAfter) Open(ctx *Ctx) error   { f.seen = 0; return f.openChild(ctx) }
func (f *failAfter) Close(ctx *Ctx) error  { return f.closeChild(ctx) }
func (f *failAfter) Describe() string      { return "FailAfter" }

func (f *failAfter) Next(ctx *Ctx) (*vector.Batch, error) {
	if f.seen >= f.n {
		return nil, errConsumerDied
	}
	f.seen++
	return f.child.Next(ctx)
}

// TestExchangeWorkerErrorPropagation kills one of 4 worker inputs mid-pump
// and requires every port reader to surface the first error instead of
// deadlocking (run under -race in CI).
func TestExchangeWorkerErrorPropagation(t *testing.T) {
	checkGoroutines(t)
	const ways = 4
	inputs := make([]Operator, ways)
	for i := range inputs {
		fail := -1
		if i == 2 {
			fail = 10
		}
		inputs[i] = &batchSource{schema: exchangeSchema(), batches: 50, rowsPer: 512, failAt: fail, base: i << 20}
	}
	ex := NewExchange(inputs, ways, []int{1})
	ports := ex.Ports()
	errs := make([]error, ways)
	var wg sync.WaitGroup
	for i, p := range ports {
		wg.Add(1)
		go func(i int, p Operator) {
			defer wg.Done()
			_, errs[i] = Drain(NewCtx(1), p)
		}(i, p)
	}
	wg.Wait()
	for i, err := range errs {
		if !errors.Is(err, errWorkerDied) {
			t.Errorf("port %d: err = %v, want the dead worker's error", i, err)
		}
	}
}

// TestExchangeConsumerAbandonment kills one of 4 port consumers while the
// pump still has far more batches queued than the port buffer holds: the
// abandoned port must not wedge the pump, the surviving ports must drain
// completely, and the consumer's error must surface.
func TestExchangeConsumerAbandonment(t *testing.T) {
	checkGoroutines(t)
	const ways = 4
	src := &batchSource{schema: exchangeSchema(), batches: 200, rowsPer: 512, failAt: -1}
	ex := NewExchange([]Operator{src}, ways, []int{0})
	ports := ex.Ports()
	children := make([]Operator, ways)
	for i, p := range ports {
		if i == 1 {
			children[i] = &failAfter{single: single{child: p}, n: 1}
		} else {
			children[i] = p
		}
	}
	u := NewParallelUnion(children...)
	_, err := Drain(NewCtx(1), u)
	if !errors.Is(err, errConsumerDied) {
		t.Fatalf("err = %v, want the dead consumer's error", err)
	}
}

// TestExchangeCancelUnblocksPumps cancels the query context and requires
// readers and pumps to wind down with the cancellation error.
func TestExchangeCancelUnblocksPumps(t *testing.T) {
	checkGoroutines(t)
	cctx, cancel := context.WithCancel(context.Background())
	src := &batchSource{schema: exchangeSchema(), batches: 10000, rowsPer: 512, failAt: -1}
	ex := NewExchange([]Operator{src}, 2, []int{0})
	ports := ex.Ports()
	ctx := NewCtx(1)
	ctx.Context = cctx
	cancel()
	var wg sync.WaitGroup
	errs := make([]error, len(ports))
	for i, p := range ports {
		wg.Add(1)
		go func(i int, p Operator) {
			defer wg.Done()
			_, errs[i] = Drain(ctx, p)
		}(i, p)
	}
	wg.Wait()
	for i, err := range errs {
		if !errors.Is(err, context.Canceled) {
			t.Errorf("port %d: err = %v, want context.Canceled", i, err)
		}
	}
}

// TestExchangeMergeMultipleInputs merges 3 sorted worker streams through a
// single port and checks global order and completeness — the parallel
// sort's merge step, on batch cursors.
func TestExchangeMergeMultipleInputs(t *testing.T) {
	checkGoroutines(t)
	schema := exchangeSchema()
	const n = 900
	inputs := make([]Operator, 3)
	for w := 0; w < 3; w++ {
		var rows []types.Row
		for i := w; i < n; i += 3 { // each worker holds a sorted residue class
			rows = append(rows, types.Row{types.NewInt(int64(i)), types.NewInt(int64(i % 7))})
		}
		inputs[w] = NewValues(schema, rows)
	}
	ex := NewMergeExchange(inputs, []SortSpec{{Col: 0}})
	rows, err := Drain(NewCtx(1), ex.Ports()[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != n {
		t.Fatalf("rows = %d, want %d", len(rows), n)
	}
	for i, r := range rows {
		if r[0].I != int64(i) {
			t.Fatalf("row %d = %d: merge lost global order", i, r[0].I)
		}
	}
}

// TestExchangeSegmentManyInputsManyPorts routes 3 inputs into 5 ports and
// checks conservation plus the co-location invariant.
func TestExchangeSegmentManyInputsManyPorts(t *testing.T) {
	checkGoroutines(t)
	inputs := make([]Operator, 3)
	for i := range inputs {
		inputs[i] = &batchSource{schema: exchangeSchema(), batches: 9, rowsPer: 1000, failAt: -1, base: i << 20}
	}
	ex := NewExchange(inputs, 5, []int{1})
	ports := ex.Ports()
	portRows := make([][]types.Row, len(ports))
	var wg sync.WaitGroup
	for i, p := range ports {
		wg.Add(1)
		go func(i int, p Operator) {
			defer wg.Done()
			rows, err := Drain(NewCtx(1), p)
			if err != nil {
				t.Error(err)
			}
			portRows[i] = rows
		}(i, p)
	}
	wg.Wait()
	total := 0
	home := map[int64]int{}
	for p, rows := range portRows {
		total += len(rows)
		for _, r := range rows {
			if prev, ok := home[r[1].I]; ok && prev != p {
				t.Fatalf("group %d split across ports %d and %d", r[1].I, prev, p)
			}
			home[r[1].I] = p
		}
	}
	if total != 3*9*1000 {
		t.Fatalf("segment routing lost rows: %d", total)
	}
}

// TestExchangeDescribeModes pins the EXPLAIN-visible mode strings.
func TestExchangeDescribeModes(t *testing.T) {
	src := func() Operator { return &batchSource{schema: exchangeSchema(), batches: 1, rowsPer: 1, failAt: -1} }
	for _, tc := range []struct {
		ex   *Exchange
		want string
	}{
		{NewExchange([]Operator{src()}, 2, []int{0}), "segment keys=[0]"},
		{NewMergeExchange([]Operator{src(), src()}, []SortSpec{{Col: 0}}), "single-port+merge"},
	} {
		d := tc.ex.Ports()[0].Describe()
		if !strings.Contains(d, tc.want) {
			t.Errorf("Describe = %q, want %q", d, tc.want)
		}
	}
}

// TestExchangeBatchNative asserts the data path stays in batches: a port
// must deliver the pump's accumulated batches (few, large), not per-row
// dribbles.
func TestExchangeBatchNative(t *testing.T) {
	checkGoroutines(t)
	src := &batchSource{schema: exchangeSchema(), batches: 8, rowsPer: vector.DefaultBatchSize, failAt: -1}
	ex := NewExchange([]Operator{src}, 2, []int{0})
	p := ex.Ports()[0]
	ctx := NewCtx(1)
	if err := p.Open(ctx); err != nil {
		t.Fatal(err)
	}
	batches, rows := 0, 0
	for {
		b, err := p.Next(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if b == nil {
			break
		}
		batches++
		rows += b.Len()
	}
	go Drain(ctx, ex.Ports()[1]) // release the sibling port
	if err := p.Close(ctx); err != nil {
		t.Fatal(err)
	}
	if batches == 0 || rows/batches < vector.DefaultBatchSize/4 {
		t.Fatalf("avg port batch = %d rows over %d batches: exchange degraded to dribbles",
			rows/max(1, batches), batches)
	}
}

// TestExchangeEarlyCloseStopsPumps pins the LIMIT early-termination path:
// closing a ParallelUnion over exchange ports before the stream drains must
// stop the worker goroutines and the exchange pumps promptly — no leaked
// goroutines pinning operator state, no residual full-input drain.
func TestExchangeEarlyCloseStopsPumps(t *testing.T) {
	checkGoroutines(t)
	src := &batchSource{schema: exchangeSchema(), batches: 100_000, rowsPer: 512, failAt: -1}
	ex := NewExchange([]Operator{src}, 4, []int{0})
	u := NewParallelUnion(ex.Ports()...)
	ctx := NewCtx(1)
	if err := u.Open(ctx); err != nil {
		t.Fatal(err)
	}
	// Consume a handful of batches, then stop — the LIMIT shape.
	for i := 0; i < 3; i++ {
		if _, err := u.Next(ctx); err != nil {
			t.Fatal(err)
		}
	}
	if err := u.Close(ctx); err != nil {
		t.Fatal(err)
	}
	// The pump must not have drained the whole 100k-batch input; workers
	// and pumps must be gone (checkGoroutines).
	if src.produced > 1000 {
		t.Errorf("pump drained %d batches after early close", src.produced)
	}
}

// checkGoroutines fails the test unless, after it ends, the goroutine count
// falls back to what it was when this was called, within a deadline: no
// pump, worker or build may outlive the plan that started it.
func checkGoroutines(t *testing.T) {
	t.Helper()
	before := runtime.NumGoroutine()
	t.Cleanup(func() {
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > before {
			if time.Now().After(deadline) {
				t.Errorf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
				return
			}
			time.Sleep(5 * time.Millisecond)
		}
	})
}
