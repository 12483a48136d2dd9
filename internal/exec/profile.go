package exec

import (
	"fmt"
	"slices"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/resmgr"
	"repro/internal/vector"
)

// Per-operator execution profiling. Every operator embeds an OpProf and
// keeps its logic in an unexported next method; the exported Next methods
// below funnel through Ctx.observe, so batch/row counts are always on
// (two atomic adds per batch) and wall-clock time is recorded only when
// Ctx.ProfTimes is set (PROFILE statements, the Profile database option,
// and slow-query capture candidates). Wall time is inclusive of children:
// a parent's Next pulls from its child inside the timed window, exactly as
// the EXPLAIN tree nests. Exchange receive ports additionally record
// blocked time (waiting on upstream pumps), which separates "this operator
// was slow" from "this operator was starved".

// OpProf is one operator's execution collector. NodeID and EstRows are
// written by the planner before execution and read afterwards; the atomic
// counters are touched by the operator's pipeline goroutine during the run.
type OpProf struct {
	// NodeID is the operator's pre-order position in the plan tree.
	NodeID int
	// EstRows is the optimizer's cardinality estimate for this node.
	EstRows int64

	Batches      atomic.Int64
	Rows         atomic.Int64
	WallNs       atomic.Int64
	BlockedNs    atomic.Int64
	Spills       atomic.Int64
	SpilledBytes atomic.Int64
	AllocPeak    atomic.Int64
}

// notePeak raises AllocPeak to n if higher (operators report running
// high-water marks, not deltas).
func (p *OpProf) notePeak(n int64) {
	for {
		cur := p.AllocPeak.Load()
		if n <= cur || p.AllocPeak.CompareAndSwap(cur, n) {
			return
		}
	}
}

// Profiled is implemented by every engine operator; test doubles that
// implement Operator without a collector are tolerated everywhere profiles
// are gathered.
type Profiled interface{ Prof() *OpProf }

// hasChildren is the plan-walk interface (also used by Describe).
type hasChildren interface{ Children() []Operator }

// observe wraps one operator Next call: it always counts batches and rows,
// and in timed mode accumulates wall-clock time spent inside the call.
func (c *Ctx) observe(p *OpProf, next func(*Ctx) (*vector.Batch, error)) (*vector.Batch, error) {
	if c.ProfTimes {
		start := time.Now()
		b, err := next(c)
		p.WallNs.Add(int64(time.Since(start)))
		if b != nil {
			p.Batches.Add(1)
			p.Rows.Add(int64(b.Len()))
		}
		return b, err
	}
	b, err := next(c)
	if b != nil {
		p.Batches.Add(1)
		p.Rows.Add(int64(b.Len()))
	}
	return b, err
}

// --- exported Next wrappers ------------------------------------------------
// One wrapper per operator; the logic lives in each operator's next method.

// Next implements Operator.
func (s *Scan) Next(ctx *Ctx) (*vector.Batch, error) { return ctx.observe(&s.prof, s.next) }

// Prof implements Profiled.
func (s *Scan) Prof() *OpProf { return &s.prof }

// Next implements Operator.
func (v *VirtualScan) Next(ctx *Ctx) (*vector.Batch, error) { return ctx.observe(&v.prof, v.next) }

// Prof implements Profiled.
func (v *VirtualScan) Prof() *OpProf { return &v.prof }

// Next implements Operator.
func (p *Project) Next(ctx *Ctx) (*vector.Batch, error) { return ctx.observe(&p.prof, p.next) }

// Prof implements Profiled.
func (p *Project) Prof() *OpProf { return &p.prof }

// Next implements Operator.
func (f *Filter) Next(ctx *Ctx) (*vector.Batch, error) { return ctx.observe(&f.prof, f.next) }

// Prof implements Profiled.
func (f *Filter) Prof() *OpProf { return &f.prof }

// Next implements Operator.
func (l *Limit) Next(ctx *Ctx) (*vector.Batch, error) { return ctx.observe(&l.prof, l.next) }

// Prof implements Profiled.
func (l *Limit) Prof() *OpProf { return &l.prof }

// Next implements Operator.
func (s *Sort) Next(ctx *Ctx) (*vector.Batch, error) { return ctx.observe(&s.prof, s.next) }

// Prof implements Profiled.
func (s *Sort) Prof() *OpProf { return &s.prof }

// Next implements Operator.
func (g *GroupBy) Next(ctx *Ctx) (*vector.Batch, error) { return ctx.observe(&g.prof, g.next) }

// Prof implements Profiled.
func (g *GroupBy) Prof() *OpProf { return &g.prof }

// Next implements Operator.
func (p *Prepass) Next(ctx *Ctx) (*vector.Batch, error) { return ctx.observe(&p.prof, p.next) }

// Prof implements Profiled.
func (p *Prepass) Prof() *OpProf { return &p.prof }

// Next implements Operator.
func (j *HashJoin) Next(ctx *Ctx) (*vector.Batch, error) { return ctx.observe(&j.prof, j.next) }

// Prof implements Profiled.
func (j *HashJoin) Prof() *OpProf { return &j.prof }

// Next implements Operator.
func (j *MergeJoin) Next(ctx *Ctx) (*vector.Batch, error) { return ctx.observe(&j.prof, j.next) }

// Prof implements Profiled.
func (j *MergeJoin) Prof() *OpProf { return &j.prof }

// Next implements Operator.
func (a *Analytic) Next(ctx *Ctx) (*vector.Batch, error) { return ctx.observe(&a.prof, a.next) }

// Prof implements Profiled.
func (a *Analytic) Prof() *OpProf { return &a.prof }

// Next implements Operator.
func (u *ParallelUnion) Next(ctx *Ctx) (*vector.Batch, error) { return ctx.observe(&u.prof, u.next) }

// Prof implements Profiled.
func (u *ParallelUnion) Prof() *OpProf { return &u.prof }

// Next implements Operator.
func (v *Values) Next(ctx *Ctx) (*vector.Batch, error) { return ctx.observe(&v.prof, v.next) }

// Prof implements Profiled.
func (v *Values) Prof() *OpProf { return &v.prof }

// Next implements Operator.
func (r *recvPort) Next(ctx *Ctx) (*vector.Batch, error) { return ctx.observe(&r.prof, r.next) }

// Prof implements Profiled.
func (r *recvPort) Prof() *OpProf { return &r.prof }

// --- plan-node ids and estimate propagation --------------------------------

// walkPlan visits a plan pre-order as EXPLAIN shows it, each plan node as
// the operators it stands for: one, or — for the workers of a fan, which
// are identical pipelines (fan.go) — the corresponding operator of every
// worker, folded into one node. An operator the workers share (a shared
// build's inner input) is one node.
func walkPlan(root Operator, visit func(ops []Operator, depth int)) {
	var walk func(ops []Operator, depth int)
	walk = func(ops []Operator, depth int) {
		visit(ops, depth)
		kids := children(ops[0])
		if len(ops) == 1 {
			if isFan(kids) {
				walk(kids, depth+1)
				return
			}
			for i := range kids {
				walk(kids[i:i+1], depth+1)
			}
			return
		}
		for i := range kids {
			var set []Operator
			for _, op := range ops {
				if c := children(op)[i]; !slices.Contains(set, c) {
					set = append(set, c)
				}
			}
			walk(set, depth+1)
		}
	}
	walk([]Operator{root}, 0)
}

func children(op Operator) []Operator {
	if hc, ok := op.(hasChildren); ok {
		return hc.Children()
	}
	return nil
}

// isFan reports whether ops are the workers of one fan: pipelines whose
// driving scans — reached through first children — share a cursor.
func isFan(ops []Operator) bool {
	if len(ops) < 2 {
		return false
	}
	var share *scanShare
	for _, op := range ops {
		for kids := children(op); len(kids) > 0; kids = children(op) {
			op = kids[0]
		}
		s, ok := op.(*Scan)
		if !ok || s.share == nil || share != nil && s.share != share {
			return false
		}
		share = s.share
	}
	return true
}

// AssignNodeIDs numbers the plan pre-order (the order Describe renders),
// so profile records line up with EXPLAIN lines; the operators a node
// folds share its number. Returns the node count.
func AssignNodeIDs(root Operator) int {
	next := 0
	walkPlan(root, func(ops []Operator, _ int) {
		for _, op := range ops {
			if p, ok := op.(Profiled); ok {
				p.Prof().NodeID = next
			}
		}
		next++
	})
	return next
}

// SetEstRows tags op with the optimizer's cardinality estimate; a no-op for
// operators without a collector.
func SetEstRows(op Operator, n int64) {
	if p, ok := op.(Profiled); ok {
		p.Prof().EstRows = n
	}
}

// EstRowsOf reads op's estimate (0 when untagged).
func EstRowsOf(op Operator) int64 {
	if p, ok := op.(Profiled); ok {
		return p.Prof().EstRows
	}
	return 0
}

// FinalizeEstimates fills estimate gaps after the planner tagged its anchor
// nodes (scans, joins, aggregates, the root): untagged single-child nodes
// inherit their child's estimate, untagged multi-child nodes take the sum,
// and exchange receive ports take their exchange's total input estimate
// divided across ways. The walk is bottom-up so estimates flow from the
// planner's anchors toward the root.
func FinalizeEstimates(root Operator) {
	var walk func(op Operator) int64
	walk = func(op Operator) int64 {
		var kids []Operator
		if hc, ok := op.(hasChildren); ok {
			kids = hc.Children()
		}
		var sum int64
		for _, c := range kids {
			sum += walk(c)
		}
		p, ok := op.(Profiled)
		if !ok {
			return sum
		}
		pr := p.Prof()
		if pr.EstRows != 0 {
			return pr.EstRows
		}
		if r, isPort := op.(*recvPort); isPort {
			var total int64
			for _, in := range r.ex.inputs {
				total += EstRowsOf(in)
			}
			if r.ex.ways <= 1 {
				pr.EstRows = total
			} else {
				pr.EstRows = total / int64(r.ex.ways)
			}
			return pr.EstRows
		}
		pr.EstRows = sum
		return pr.EstRows
	}
	walk(root)
}

// --- collection and rendering ---------------------------------------------

// CollectProfiles flattens a plan's collectors into per-operator records
// (pre-order, matching EXPLAIN). A node that folds a fan's workers is one
// record: "workers=<w>" is appended to its operator text and its counters
// are the sums over the workers. Always cheap: one walk, a handful of
// atomic loads per operator; an operator is described only when its
// record's Op is read.
func CollectProfiles(root Operator, node string) []resmgr.OpProfile {
	var out []resmgr.OpProfile
	walkPlan(root, func(ops []Operator, depth int) {
		rec := resmgr.OpProfile{Node: node, NodeID: -1, Depth: depth, Op: resmgr.LazyText(ops[0].Describe)}
		if len(ops) > 1 {
			rec.Op = resmgr.LazyText(func() string { return fmt.Sprintf("%s workers=%d", ops[0].Describe(), len(ops)) })
		}
		for _, op := range ops {
			p, ok := op.(Profiled)
			if !ok {
				continue
			}
			pr := p.Prof()
			rec.NodeID = pr.NodeID
			rec.EstRows += pr.EstRows
			rec.Batches += pr.Batches.Load()
			rec.Rows += pr.Rows.Load()
			rec.WallUs += pr.WallNs.Load() / 1000
			rec.BlockedUs += pr.BlockedNs.Load() / 1000
			rec.Spills += pr.Spills.Load()
			rec.SpilledBytes += pr.SpilledBytes.Load()
			rec.AllocPeak += pr.AllocPeak.Load()
		}
		out = append(out, rec)
	})
	return out
}

// FormatPlan renders the records of one plan as the EXPLAIN tree Describe
// prints: one indented line per operator.
func FormatPlan(recs []resmgr.OpProfile) string {
	var sb strings.Builder
	for _, r := range recs {
		sb.WriteString(strings.Repeat("  ", r.Depth))
		sb.WriteString(r.Op.String())
		sb.WriteByte('\n')
	}
	return sb.String()
}

// FormatProfiles renders per-operator records as the PROFILE statement's
// annotated EXPLAIN tree: one line per operator with actual vs estimated
// rows, and times/spills/memory when recorded.
func FormatProfiles(recs []resmgr.OpProfile) string {
	var sb strings.Builder
	for _, r := range recs {
		sb.WriteString(strings.Repeat("  ", r.Depth))
		sb.WriteString(r.Op.String())
		fmt.Fprintf(&sb, " (actual rows=%d est rows=%d batches=%d", r.Rows, r.EstRows, r.Batches)
		if r.Spills > 0 {
			fmt.Fprintf(&sb, " spills=%d spilled=%d", r.Spills, r.SpilledBytes)
		}
		if r.AllocPeak > 0 {
			fmt.Fprintf(&sb, " mem=%d", r.AllocPeak)
		}
		if r.WallUs > 0 {
			fmt.Fprintf(&sb, " time=%s", us(r.WallUs))
		}
		if r.BlockedUs > 0 {
			fmt.Fprintf(&sb, " blocked=%s", us(r.BlockedUs))
		}
		sb.WriteString(")\n")
	}
	return sb.String()
}

func us(v int64) string { return fmt.Sprintf("%.3fms", float64(v)/1000) }
