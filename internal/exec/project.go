package exec

import (
	"fmt"
	"strings"

	"repro/internal/expr"
	"repro/internal/types"
	"repro/internal/vector"
)

// Project is the ExprEval operator (paper §6.1 operator 4): it computes one
// output column per expression over its input batches.
type Project struct {
	single
	Exprs []expr.Expr
	Names []string

	schema *types.Schema
	prof   OpProf
}

// NewProject builds an ExprEval node. names may be nil (auto-named).
func NewProject(child Operator, exprs []expr.Expr, names []string) *Project {
	cols := make([]types.Column, len(exprs))
	for i, e := range exprs {
		name := ""
		if names != nil {
			name = names[i]
		}
		if name == "" {
			name = e.String()
		}
		cols[i] = types.Column{Name: name, Typ: e.Type(), Nullable: true}
	}
	return &Project{
		single: single{child: child},
		Exprs:  exprs,
		Names:  names,
		schema: types.NewSchema(cols...),
	}
}

// Schema implements Operator.
func (p *Project) Schema() *types.Schema { return p.schema }

// Describe implements Operator.
func (p *Project) Describe() string {
	parts := make([]string, len(p.Exprs))
	for i, e := range p.Exprs {
		parts[i] = e.String()
	}
	return "ExprEval [" + strings.Join(parts, ", ") + "]"
}

// Open implements Operator.
func (p *Project) Open(ctx *Ctx) error { return p.openChild(ctx) }

// Close implements Operator.
func (p *Project) Close(ctx *Ctx) error { return p.closeChild(ctx) }

// next is the operator body behind the profiled Next (profile.go).
func (p *Project) next(ctx *Ctx) (*vector.Batch, error) {
	in, err := p.child.Next(ctx)
	if err != nil || in == nil {
		return nil, err
	}
	if in.Sel != nil {
		in = in.Flatten()
	}
	out := &vector.Batch{Cols: make([]*vector.Vector, len(p.Exprs))}
	for i, e := range p.Exprs {
		v, err := e.Eval(in)
		if err != nil {
			return nil, fmt.Errorf("exec: evaluating %s: %w", e, err)
		}
		out.Cols[i] = v
	}
	return out, nil
}

// Filter drops rows not satisfying the predicate (used where a predicate
// cannot be pushed into a scan, e.g. post-join or post-aggregate HAVING).
type Filter struct {
	single
	Pred expr.Expr
	prof OpProf

	selector *expr.Selector // Pred, compiled at Open
	selBuf   []int          // the selection Narrow fills, reused batch to batch
}

// NewFilter builds a filter node.
func NewFilter(child Operator, pred expr.Expr) *Filter {
	return &Filter{single: single{child: child}, Pred: pred}
}

// Schema implements Operator.
func (f *Filter) Schema() *types.Schema { return f.child.Schema() }

// Describe implements Operator.
func (f *Filter) Describe() string { return "Filter " + f.Pred.String() }

// Open implements Operator.
func (f *Filter) Open(ctx *Ctx) error {
	var err error
	if f.selector, err = expr.NewSelector(expr.Conjuncts(f.Pred)); err != nil {
		return err
	}
	return f.openChild(ctx)
}

// Close implements Operator.
func (f *Filter) Close(ctx *Ctx) error {
	f.selBuf = nil
	return f.closeChild(ctx)
}

// next is the operator body behind the profiled Next (profile.go).
func (f *Filter) next(ctx *Ctx) (*vector.Batch, error) {
	for {
		in, err := f.child.Next(ctx)
		if err != nil || in == nil {
			return nil, err
		}
		in.ExpandRLE()
		sel, err := f.selector.Narrow(in.Cols, in.Sel, 0, in.FullLen(), f.selBuf)
		if err != nil {
			return nil, err
		}
		f.selBuf = sel
		if len(sel) == 0 {
			continue
		}
		in.Sel = sel
		return in.Flatten(), nil // copies: the selection stays the filter's
	}
}

// Limit caps the number of rows produced (with optional offset).
type Limit struct {
	single
	Offset int64
	Count  int64

	skipped int64
	emitted int64
	prof    OpProf
}

// NewLimit builds a LIMIT/OFFSET node; count < 0 means no limit.
func NewLimit(child Operator, offset, count int64) *Limit {
	return &Limit{single: single{child: child}, Offset: offset, Count: count}
}

// Schema implements Operator.
func (l *Limit) Schema() *types.Schema { return l.child.Schema() }

// Describe implements Operator.
func (l *Limit) Describe() string {
	return fmt.Sprintf("Limit offset=%d count=%d", l.Offset, l.Count)
}

// Open implements Operator.
func (l *Limit) Open(ctx *Ctx) error {
	l.skipped, l.emitted = 0, 0
	return l.openChild(ctx)
}

// Close implements Operator.
func (l *Limit) Close(ctx *Ctx) error { return l.closeChild(ctx) }

// next is the operator body behind the profiled Next (profile.go).
func (l *Limit) next(ctx *Ctx) (*vector.Batch, error) {
	for {
		if l.Count >= 0 && l.emitted >= l.Count {
			return nil, nil
		}
		in, err := l.child.Next(ctx)
		if err != nil || in == nil {
			return nil, err
		}
		if in.Sel != nil {
			in = in.Flatten()
		} else {
			in.ExpandRLE()
		}
		n := int64(in.Len())
		if l.skipped < l.Offset {
			drop := l.Offset - l.skipped
			if drop >= n {
				l.skipped += n
				continue
			}
			l.skipped = l.Offset
			// The batch is flat here: truncation is a zero-copy slice view.
			in = in.SliceRows(int(drop), int(n))
			n = int64(in.Len())
		}
		if l.Count >= 0 && l.emitted+n > l.Count {
			keep := l.Count - l.emitted
			in = in.SliceRows(0, int(keep))
			n = keep
		}
		l.emitted += n
		return in, nil
	}
}
