package exec

import (
	"context"
	"errors"
	"fmt"
	"os"
	"slices"
	"testing"

	"repro/internal/dc"
	"repro/internal/expr"
	"repro/internal/resmgr"
	"repro/internal/types"
	"repro/internal/vector"
)

// cancelSource produces synthetic batches and fires a context cancel after a
// set number of them, simulating a client abandoning a running query.
type cancelSource struct {
	schema      *types.Schema
	rowsPer     int
	cancelAfter int // batches before cancel fires; -1 never
	cancel      context.CancelFunc
	produced    int
}

func (c *cancelSource) Schema() *types.Schema { return c.schema }
func (c *cancelSource) Open(*Ctx) error       { c.produced = 0; return nil }
func (c *cancelSource) Close(*Ctx) error      { return nil }
func (c *cancelSource) Describe() string      { return "CancelSource" }

func (c *cancelSource) Next(*Ctx) (*vector.Batch, error) {
	if c.cancelAfter >= 0 && c.produced == c.cancelAfter {
		c.cancel()
	}
	b := vector.NewBatchForSchema(c.schema, c.rowsPer)
	for i := 0; i < c.rowsPer; i++ {
		n := int64(c.produced*c.rowsPer + i)
		b.AppendRow(types.Row{types.NewInt(n * 37 % 1009), types.NewString(fmt.Sprintf("payload-%d", n))})
	}
	c.produced++
	return b, nil
}

func cancelSchema() *types.Schema {
	return types.NewSchema(
		types.Column{Name: "k", Typ: types.Int64},
		types.Column{Name: "s", Typ: types.Varchar},
	)
}

// TestSortCancelWhileSpilling forces the sort to externalize on every batch
// and cancels mid-stream: the query must abort with the context error within
// one batch and leave no spill files behind.
func TestSortCancelWhileSpilling(t *testing.T) {
	cctx, cancel := context.WithCancel(context.Background())
	src := &cancelSource{schema: cancelSchema(), rowsPer: 500, cancelAfter: 3, cancel: cancel}
	s := NewSort(src, []vector.SortSpec{{Col: 0}})

	ctx := NewCtx(1)
	ctx.Context = cctx
	ctx.MemBudget = 4 << 10 // spill every batch
	ctx.TempDir = t.TempDir()

	_, err := Drain(ctx, s)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if ctx.Spills.Load() == 0 {
		t.Fatal("expected at least one spill before cancellation")
	}
	if src.produced > src.cancelAfter+1 {
		t.Fatalf("source produced %d batches after cancel at %d: not aborted within one batch",
			src.produced, src.cancelAfter)
	}
	ents, err := os.ReadDir(ctx.TempDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 0 {
		t.Fatalf("spill files leaked after cancel: %d entries", len(ents))
	}
}

// TestDrainPreCanceled verifies a query with an already-ended context never
// produces a batch.
func TestDrainPreCanceled(t *testing.T) {
	cctx, cancel := context.WithCancel(context.Background())
	cancel()
	src := &cancelSource{schema: cancelSchema(), rowsPer: 10, cancelAfter: -1, cancel: func() {}}
	ctx := NewCtx(1)
	ctx.Context = cctx
	_, err := Drain(ctx, NewSort(src, []vector.SortSpec{{Col: 0}}))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if src.produced != 0 {
		t.Fatalf("source produced %d batches under a pre-canceled context", src.produced)
	}
}

// TestGroupByAndJoinCancel covers the other stateful consume loops.
func TestGroupByAndJoinCancel(t *testing.T) {
	t.Run("groupby", func(t *testing.T) {
		cctx, cancel := context.WithCancel(context.Background())
		src := &cancelSource{schema: cancelSchema(), rowsPer: 100, cancelAfter: 2, cancel: cancel}
		ctx := NewCtx(1)
		ctx.Context = cctx
		ctx.TempDir = t.TempDir()
		g := NewGroupBy(src, []expr.Expr{expr.NewColRef(0, types.Int64, "k")}, []string{"k"}, nil)
		_, err := Drain(ctx, g)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("groupby err = %v, want context.Canceled", err)
		}
	})
	t.Run("hashjoin-build", func(t *testing.T) {
		cctx, cancel := context.WithCancel(context.Background())
		inner := &cancelSource{schema: cancelSchema(), rowsPer: 100, cancelAfter: 2, cancel: cancel}
		outer := &cancelSource{schema: cancelSchema(), rowsPer: 1, cancelAfter: -1, cancel: func() {}}
		ctx := NewCtx(1)
		ctx.Context = cctx
		j, err := NewHashJoin(InnerJoin, outer, inner, []int{0}, []int{0})
		if err != nil {
			t.Fatal(err)
		}
		_, err = Drain(ctx, j)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("join err = %v, want context.Canceled", err)
		}
	})
}

// TestSpillReportsToGrant runs a governed, spilling sort on a pool whose
// MAXMEMORYSIZE equals its grant: every renegotiation is denied, so the
// sorter externalizes, the grant's counters reflect both the spills and the
// denied extensions, the event ring behind v_monitor.query_events records
// SORT_SPILLED, and the answer over an input several times the budget is the
// unbounded-budget answer.
func TestSpillReportsToGrant(t *testing.T) {
	// 2000 rows of the stream: stop after 4 batches by wrapping with Limit.
	input := func() Operator {
		src := &cancelSource{schema: cancelSchema(), rowsPer: 500, cancelAfter: -1, cancel: func() {}}
		return NewLimit(src, 0, 2000)
	}
	for _, tc := range []struct {
		name string
		op   func() Operator
	}{
		{"sort", func() Operator { return NewSort(input(), []vector.SortSpec{{Col: 0}}) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			gov := resmgr.NewGovernor(resmgr.Config{PoolBytes: 1 << 20, MaxConcurrency: 2})
			if err := gov.CreatePool(resmgr.PoolConfig{Name: "tight", GrantBytes: 4 << 10, MaxMemBytes: 4 << 10}); err != nil {
				t.Fatal(err)
			}
			grant, err := gov.Admit(resmgr.WithPool(context.Background(), "tight"))
			if err != nil {
				t.Fatal(err)
			}
			defer grant.Release()
			events := dc.New(64)

			ctx := NewCtx(1)
			ctx.Grant = grant
			ctx.Trace = dc.NewTrace(events)
			ctx.MemBudget = 4 << 10
			ctx.TempDir = t.TempDir()
			rows, err := Drain(ctx, tc.op())
			if err != nil {
				t.Fatal(err)
			}
			want, err := Drain(NewCtx(1), tc.op())
			if err != nil {
				t.Fatal(err)
			}
			if err := sameRows(rows, want); err != nil || len(rows) != 2000 {
				t.Fatalf("%d rows under a 4K budget, %d unbounded: %v", len(rows), len(want), err)
			}
			qs := grant.Stats()
			if qs.Spills == 0 || qs.SpilledBytes == 0 {
				t.Fatalf("grant did not record spills: %+v", qs)
			}
			if qs.DeniedExtensions == 0 {
				t.Fatalf("spilling sort did not try to renegotiate first: %+v", qs)
			}
			if qs.GrantExtensions != 0 {
				t.Fatalf("capped pool granted an extension: %+v", qs)
			}
			if qs.AllocPeak == 0 {
				t.Fatalf("grant did not record alloc high-water: %+v", qs)
			}
			if ctx.SpilledBytes.Load() != qs.SpilledBytes {
				t.Fatalf("ctx spilled %d bytes, grant %d", ctx.SpilledBytes.Load(), qs.SpilledBytes)
			}
			ctx.Trace.Flush()
			if !slices.ContainsFunc(events.Events(), func(e dc.QueryEvent) bool { return e.Type == "SORT_SPILLED" }) {
				t.Fatalf("no SORT_SPILLED among the query events: %+v", events.Events())
			}
		})
	}
}

// TestCancelMidSpillLeavesNoRuns cancels every spilling operator after it
// has written at least one run: whatever state the cancel finds it in, Close
// must leave the temp directory empty, because a run belongs to its operator
// from the moment its file exists. (The hash join used to hand its sorters'
// runs over only once the switch to sort-merge had succeeded.)
func TestCancelMidSpillLeavesNoRuns(t *testing.T) {
	key := []expr.Expr{expr.NewColRef(0, types.Int64, "k")}
	for _, tc := range []struct {
		name string
		op   func(src Operator) (Operator, error)
	}{
		{"sort", func(src Operator) (Operator, error) { return NewSort(src, []vector.SortSpec{{Col: 0}}), nil }},
		{"groupby", func(src Operator) (Operator, error) {
			return NewGroupBy(src, key, []string{"k"}, []AggSpec{{Kind: AggCountStar, Name: "n"}}), nil
		}},
		{"join-switch", func(src Operator) (Operator, error) {
			outer := &cancelSource{schema: cancelSchema(), rowsPer: 1, cancelAfter: -1, cancel: func() {}}
			return NewHashJoin(InnerJoin, outer, src, []int{0}, []int{0})
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cctx, cancel := context.WithCancel(context.Background())
			src := &cancelSource{schema: cancelSchema(), rowsPer: 500, cancelAfter: 3, cancel: cancel}
			op, err := tc.op(src)
			if err != nil {
				t.Fatal(err)
			}
			ctx := NewCtx(1)
			ctx.Context = cctx
			ctx.MemBudget = 4 << 10 // a run per batch
			ctx.TempDir = t.TempDir()
			if _, err := Drain(ctx, op); !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			if ctx.SpilledBytes.Load() == 0 {
				t.Fatal("cancelled before the first run was written")
			}
			ents, err := os.ReadDir(ctx.TempDir)
			if err != nil {
				t.Fatal(err)
			}
			if len(ents) != 0 {
				t.Fatalf("%d spill files left after Close", len(ents))
			}
		})
	}
}

// TestExtendBudgetShortfallFallback: when doubling the budget is denied but
// the actual shortfall still fits the pool, extendBudget grants the smaller
// right-sized extension instead of forcing a spill.
func TestExtendBudgetShortfallFallback(t *testing.T) {
	const kib = int64(1 << 10)
	gov := resmgr.NewGovernor(resmgr.Config{PoolBytes: 384 * kib, MaxConcurrency: 1, GrantBytes: 256 * kib})
	grant, err := gov.Admit(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer grant.Release()
	ctx := NewCtx(1)
	ctx.Grant = grant

	// Doubling 256K would need 512K total (> 384K pool); the 4K shortfall
	// plus one minimum grant of slack fits.
	got := ctx.extendBudget(256*kib, 260*kib)
	want := (260-256)*kib + resmgr.MinGrantBytes
	if got != want {
		t.Fatalf("shortfall extension = %d, want %d", got, want)
	}
	if grant.Bytes() != 256*kib+want {
		t.Fatalf("grant bytes = %d, want %d", grant.Bytes(), 256*kib+want)
	}
	qs := grant.Stats()
	if qs.DeniedExtensions != 1 || qs.GrantExtensions != 1 {
		t.Fatalf("counters = %+v, want 1 denied (doubling) + 1 granted (shortfall)", qs)
	}
}
