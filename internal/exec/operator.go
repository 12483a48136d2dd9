// Package exec implements the Vertica Execution Engine (paper §6.1): a
// multi-threaded, pipelined, vectorized pull-model engine. A query plan is a
// tree of operators; each operator's Next returns a batch of rows pulled
// from its upstream. Operators are optimized for sorted data and can work
// directly on run-length-encoded columns.
//
// # Invariants
//
// The operator contract is strict pull-model: Open, then Next until it
// returns (nil, nil), then Close — in that order, from a single goroutine
// per pipeline. Parallelism comes from running whole pipelines concurrently,
// each drained by an exchange pump (exchange.go); the pipelines of one query
// share its Ctx, which is why the Ctx counters are atomic. Operators poll
// Ctx.Canceled at batch boundaries, so a cancelled query stops within one
// batch and never leaks spill files (Close removes them).
//
// Every stateful operator (sort, hash join, hash group-by) is bounded by a
// memory budget and can handle arbitrary sized inputs regardless of the
// memory allocated, by externalizing its buffers to disk. The budget is not
// fixed: at the spill threshold an operator first renegotiates the query's
// memory grant with the resource governor (Ctx.extendBudget →
// resmgr.Grant.Request) and grows in place when the pool has headroom; it
// spills only when the extension is denied. Ungoverned queries (nil Grant)
// keep the static budget and spill exactly at it.
package exec

import (
	"context"
	"fmt"
	"sync/atomic"

	"repro/internal/dc"
	"repro/internal/metrics"
	"repro/internal/resmgr"
	"repro/internal/types"
	"repro/internal/vector"
)

// Ctx carries per-query execution state shared by the operators of a plan.
type Ctx struct {
	// Epoch is the snapshot epoch the query reads (paper §5: READ COMMITTED
	// targets the latest epoch with no locks).
	Epoch types.Epoch
	// MemBudget is the per-operator memory budget in bytes (paper §6.1:
	// "each operator is given a memory budget ... all operators are capable
	// of handling arbitrary sized inputs ... by externalizing").
	MemBudget int64
	// TempDir hosts externalized spill files.
	TempDir string
	// Parallelism bounds intra-node worker threads (StorageUnion fan-out).
	Parallelism int
	// Context cancels the query: operators poll Canceled at batch
	// boundaries and abandon the plan when it fires. Nil means
	// non-cancellable (embedded/test use).
	Context context.Context
	// Grant is the query's admission grant from the resource governor;
	// operators report spills and memory high-water into it. Nil-safe: an
	// ungoverned query simply reports into the void.
	Grant *resmgr.Grant
	// ProfTimes enables wall-clock profiling in the per-operator collectors
	// (see profile.go). Batch/row counters are always on; only time.Now
	// calls are gated here, keeping the disabled-mode overhead to two
	// atomic adds per batch.
	ProfTimes bool
	// Trace is the statement's Data Collector trace; operators emit
	// notable events (spills, denied extensions) into it. Nil-safe: a nil
	// trace drops events.
	Trace *dc.Trace

	// Stats counters (atomic; shared across worker pipelines).
	RowsScanned     atomic.Int64
	BlocksPruned    atomic.Int64
	BlocksRead      atomic.Int64
	BlocksSpared    atomic.Int64 // read, emptied by SIP before their payload decoded
	SIPFiltered     atomic.Int64
	Spills          atomic.Int64
	SpilledBytes    atomic.Int64
	PrepassBypassed atomic.Bool
}

// NewCtx returns a context with sensible defaults.
func NewCtx(epoch types.Epoch) *Ctx {
	return &Ctx{Epoch: epoch, MemBudget: 64 << 20, Parallelism: 4}
}

// Canceled returns the cancellation cause when the query's Context has
// ended, nil otherwise. Cheap enough to call per batch.
func (c *Ctx) Canceled() error {
	if c.Context == nil {
		return nil
	}
	return c.Context.Err()
}

// noteSpill records one externalization of n bytes in the query counters,
// the operator's collector (nil-safe), the process metrics, the resource
// grant, and the Data Collector event stream. event names the operator
// class that externalized (GROUP_BY_SPILLED, SORT_SPILLED, ...).
func (c *Ctx) noteSpill(p *OpProf, n int64, event string) {
	c.Spills.Add(1)
	c.SpilledBytes.Add(n)
	if p != nil {
		p.Spills.Add(1)
		p.SpilledBytes.Add(n)
	}
	metrics.Spills.Inc()
	metrics.SpilledBytes.Add(n)
	c.Grant.ReportSpill(n)
	c.Trace.Event(event, fmt.Sprintf("spilled_bytes=%d", n))
}

// noteAlloc reports an operator's memory high-water to its collector
// (nil-safe) and the grant.
func (c *Ctx) noteAlloc(p *OpProf, n int64) {
	if p != nil {
		p.notePeak(n)
	}
	c.Grant.ReportAlloc(n)
}

// extendBudget renegotiates the query's memory grant at an operator's spill
// threshold: it asks the governor for the operator's current budget again
// (doubling it, so repeated growth stays amortized) and returns the extra
// bytes granted, 0 when the query runs ungoverned or the pool says no — the
// caller spills then. When the doubling is denied but the actual shortfall
// (used − budget, plus one minimum grant of slack) is smaller, a right-sized
// request is tried before giving up: near pool saturation that lets an
// operator finish in memory instead of externalizing its whole buffer over
// a few missing kilobytes. The granted bytes belong wholly to the
// requesting operator: the governor accounted them on this query's grant,
// and no other operator's budget changes.
func (c *Ctx) extendBudget(budget, used int64) int64 {
	if c.Grant == nil || budget <= 0 {
		return 0
	}
	if c.Grant.Request(budget) == nil {
		return budget
	}
	short := used - budget + resmgr.MinGrantBytes
	if short <= 0 || short >= budget {
		c.Trace.Event("GRANT_EXTENSION_DENIED",
			fmt.Sprintf("budget=%d used=%d", budget, used))
		return 0 // the shortfall is no smaller than the denied request
	}
	if c.Grant.Request(short) == nil {
		return short
	}
	// Both the doubling and the right-sized fallback were denied: the
	// operator will externalize. Record why, so post-hoc diagnosis can
	// tell "pool saturated" from "operator simply large".
	c.Trace.Event("GRANT_EXTENSION_DENIED",
		fmt.Sprintf("budget=%d used=%d denied=%d", budget, used, short))
	return 0
}

// Operator is one node of an executing plan. The contract is strict
// pull-model: Open, then Next until it returns (nil, nil), then Close.
type Operator interface {
	// Schema describes the batches this operator produces.
	Schema() *types.Schema
	// Open prepares the operator (and its children) for execution.
	Open(ctx *Ctx) error
	// Next returns the next batch, or (nil, nil) at end of stream.
	Next(ctx *Ctx) (*vector.Batch, error)
	// Close releases resources (children included).
	Close(ctx *Ctx) error
	// Describe renders one line for plan display.
	Describe() string
}

// Run pulls every batch from op (Open/Next/Close) and returns the non-empty
// ones in order: the run loop at plan roots. The caller may keep the result
// for as long as it likes. A batch that selects under half of the rows it
// references is gathered into a dense one first. Run retains the rest and
// never releases them: a kept view of decoded blocks pins them, uncopied,
// and the block cache never recycles them.
func Run(ctx *Ctx, op Operator) ([]*vector.Batch, error) {
	if err := op.Open(ctx); err != nil {
		return nil, err
	}
	var out []*vector.Batch
	var scratch [8]vector.Owner // what Retain took: nothing gives it back
	for {
		if err := ctx.Canceled(); err != nil {
			op.Close(ctx)
			return nil, err
		}
		b, err := op.Next(ctx)
		if err != nil {
			op.Close(ctx)
			return nil, err
		}
		if b == nil {
			break
		}
		if b.Len() == 0 {
			continue
		}
		if b.Sel != nil && 2*len(b.Sel) < b.FullLen() {
			b = b.Flatten()
		}
		b.Retain(scratch[:0])
		out = append(out, b)
	}
	if err := op.Close(ctx); err != nil {
		return nil, err
	}
	return out, nil
}

// Drain is Run with the result pivoted into rows; a convenience for tests
// and examples.
func Drain(ctx *Ctx, op Operator) ([]types.Row, error) {
	batches, err := Run(ctx, op)
	if err != nil {
		return nil, err
	}
	return vector.Rows(batches), nil
}

// Describe renders the whole plan tree, one operator per line.
func Describe(op Operator) string { return FormatPlan(CollectProfiles(op, "")) }

// single wraps one child; embedded by most unary operators.
type single struct {
	child Operator
}

func (s *single) Children() []Operator { return []Operator{s.child} }

func (s *single) openChild(ctx *Ctx) error  { return s.child.Open(ctx) }
func (s *single) closeChild(ctx *Ctx) error { return s.child.Close(ctx) }
