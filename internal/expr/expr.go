// Package expr implements typed, vectorized expression evaluation.
//
// The paper (§6.1) describes Vertica's use of just-in-time compilation to
// avoid per-row type branching in expression evaluation. Go has no runtime
// code generation, so this package achieves the same effect with typed
// kernels: every expression node resolves its operand types once, at plan
// time, and evaluation runs a tight per-type loop with no per-row type
// dispatch (see arith.go and cmp.go).
//
// Expressions evaluate over a vector.Batch (column-at-a-time) and over a
// single types.Row (for DML's row matching and constant folding).
package expr

import (
	"fmt"

	"repro/internal/types"
	"repro/internal/vector"
)

// Expr is a typed scalar expression.
type Expr interface {
	// Type returns the expression's result type (resolved at construction).
	Type() types.Type
	// Eval evaluates the expression over every physical row of the batch's
	// flat columns, returning a vector with one entry per physical row.
	// Selection vectors are intentionally ignored: callers combine results
	// with their own selections.
	Eval(b *vector.Batch) (*vector.Vector, error)
	// EvalRow evaluates the expression over a single row.
	EvalRow(r types.Row) (types.Value, error)
	// Columns appends the input column indexes the expression reads.
	Columns(acc []int) []int
	// String renders the expression for plan display.
	String() string
}

// ColRef references input column Idx with a known type.
type ColRef struct {
	Idx  int
	Typ  types.Type
	Name string // display only
}

// NewColRef builds a column reference.
func NewColRef(idx int, t types.Type, name string) *ColRef {
	return &ColRef{Idx: idx, Typ: t, Name: name}
}

// Type implements Expr.
func (c *ColRef) Type() types.Type { return c.Typ }

// Eval implements Expr.
func (c *ColRef) Eval(b *vector.Batch) (*vector.Vector, error) {
	if c.Idx >= len(b.Cols) {
		return nil, fmt.Errorf("expr: column index %d out of range (batch has %d)", c.Idx, len(b.Cols))
	}
	v := b.Cols[c.Idx]
	if v.IsRLE() {
		v = v.Expand()
	}
	return v, nil
}

// EvalRow implements Expr.
func (c *ColRef) EvalRow(r types.Row) (types.Value, error) {
	if c.Idx >= len(r) {
		return types.Value{}, fmt.Errorf("expr: column index %d out of range (row has %d)", c.Idx, len(r))
	}
	return r[c.Idx], nil
}

// Columns implements Expr.
func (c *ColRef) Columns(acc []int) []int { return append(acc, c.Idx) }

// String implements Expr.
func (c *ColRef) String() string {
	if c.Name != "" {
		return c.Name
	}
	return fmt.Sprintf("$%d", c.Idx)
}

// Const is a literal value.
type Const struct {
	Val types.Value
}

// NewConst builds a literal expression.
func NewConst(v types.Value) *Const { return &Const{Val: v} }

// Type implements Expr.
func (c *Const) Type() types.Type { return c.Val.Typ }

// Eval implements Expr.
func (c *Const) Eval(b *vector.Batch) (*vector.Vector, error) {
	n := b.FullLen()
	return vector.NewConst(c.Val, n).Expand(), nil
}

// EvalRow implements Expr.
func (c *Const) EvalRow(types.Row) (types.Value, error) { return c.Val, nil }

// Columns implements Expr.
func (c *Const) Columns(acc []int) []int { return acc }

// String implements Expr.
func (c *Const) String() string {
	if c.Val.Typ == types.Varchar && !c.Val.Null {
		return "'" + c.Val.S + "'"
	}
	return c.Val.String()
}

// ColumnsOf returns the deduplicated, sorted set of columns read by e.
func ColumnsOf(e Expr) []int {
	cols := e.Columns(nil)
	seen := make(map[int]bool, len(cols))
	out := cols[:0]
	for _, c := range cols {
		if !seen[c] {
			seen[c] = true
			out = append(out, c)
		}
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// Remap rewrites every ColRef index through m (old index -> new index),
// returning a deep-rewritten copy. Unmapped columns return an error.
func Remap(e Expr, m map[int]int) (Expr, error) {
	switch t := e.(type) {
	case *ColRef:
		ni, ok := m[t.Idx]
		if !ok {
			return nil, fmt.Errorf("expr: column %s (idx %d) not available after remap", t.Name, t.Idx)
		}
		return &ColRef{Idx: ni, Typ: t.Typ, Name: t.Name}, nil
	case *Const:
		return t, nil
	case *Arith:
		l, err := Remap(t.L, m)
		if err != nil {
			return nil, err
		}
		r, err := Remap(t.R, m)
		if err != nil {
			return nil, err
		}
		return NewArith(t.Op, l, r)
	case *Cmp:
		l, err := Remap(t.L, m)
		if err != nil {
			return nil, err
		}
		r, err := Remap(t.R, m)
		if err != nil {
			return nil, err
		}
		return NewCmp(t.Op, l, r)
	case *Logic:
		args := make([]Expr, len(t.Args))
		for i, a := range t.Args {
			na, err := Remap(a, m)
			if err != nil {
				return nil, err
			}
			args[i] = na
		}
		return NewLogic(t.Op, args...)
	case *Func:
		args := make([]Expr, len(t.Args))
		for i, a := range t.Args {
			na, err := Remap(a, m)
			if err != nil {
				return nil, err
			}
			args[i] = na
		}
		return NewFunc(t.Name, args...)
	case *IsNull:
		a, err := Remap(t.Arg, m)
		if err != nil {
			return nil, err
		}
		return &IsNull{Arg: a, Negate: t.Negate}, nil
	case *Case:
		ne := &Case{Typ: t.Typ}
		for _, w := range t.Whens {
			c, err := Remap(w.Cond, m)
			if err != nil {
				return nil, err
			}
			v, err := Remap(w.Then, m)
			if err != nil {
				return nil, err
			}
			ne.Whens = append(ne.Whens, When{Cond: c, Then: v})
		}
		if t.Else != nil {
			el, err := Remap(t.Else, m)
			if err != nil {
				return nil, err
			}
			ne.Else = el
		}
		return ne, nil
	case *InList:
		a, err := Remap(t.Arg, m)
		if err != nil {
			return nil, err
		}
		return &InList{Arg: a, Vals: t.Vals, Negate: t.Negate}, nil
	default:
		return nil, fmt.Errorf("expr: Remap: unsupported node %T", e)
	}
}
