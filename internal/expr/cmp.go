package expr

import (
	"fmt"

	"repro/internal/types"
	"repro/internal/vector"
)

// CmpOp identifies a comparison operator.
type CmpOp uint8

// Comparison operators.
const (
	Eq CmpOp = iota
	Ne
	Lt
	Le
	Gt
	Ge
)

func (op CmpOp) String() string {
	switch op {
	case Eq:
		return "="
	case Ne:
		return "<>"
	case Lt:
		return "<"
	case Le:
		return "<="
	case Gt:
		return ">"
	case Ge:
		return ">="
	default:
		return "?"
	}
}

// Negate returns the logically negated operator (for NOT pushdown).
func (op CmpOp) Negate() CmpOp {
	switch op {
	case Eq:
		return Ne
	case Ne:
		return Eq
	case Lt:
		return Ge
	case Le:
		return Gt
	case Gt:
		return Le
	default: // Ge
		return Lt
	}
}

// Swap returns the operator with operands exchanged (a op b == b op.Swap() a).
func (op CmpOp) Swap() CmpOp {
	switch op {
	case Lt:
		return Gt
	case Le:
		return Ge
	case Gt:
		return Lt
	case Ge:
		return Le
	default:
		return op
	}
}

func cmpHolds(op CmpOp, c int) bool {
	switch op {
	case Eq:
		return c == 0
	case Ne:
		return c != 0
	case Lt:
		return c < 0
	case Le:
		return c <= 0
	case Gt:
		return c > 0
	default: // Ge
		return c >= 0
	}
}

// Cmp is a binary comparison yielding Bool. NULL operands yield NULL
// (SQL ternary logic). The comparison kernel is chosen at construction.
type Cmp struct {
	Op   CmpOp
	L, R Expr

	kind cmpKind
}

type cmpKind uint8

const (
	cmpInt cmpKind = iota
	cmpFloat
	cmpStr
)

// NewCmp builds a comparison node, verifying operand type compatibility.
func NewCmp(op CmpOp, l, r Expr) (*Cmp, error) {
	lt, rt := l.Type(), r.Type()
	c := &Cmp{Op: op, L: l, R: r}
	switch {
	case lt == types.Varchar && rt == types.Varchar:
		c.kind = cmpStr
	case lt == types.Float64 || rt == types.Float64:
		if !lt.IsNumeric() || !rt.IsNumeric() {
			return nil, fmt.Errorf("expr: cannot compare %s with %s", lt, rt)
		}
		c.kind = cmpFloat
	case lt.IsIntegral() && rt.IsIntegral():
		c.kind = cmpInt
	default:
		return nil, fmt.Errorf("expr: cannot compare %s with %s", lt, rt)
	}
	return c, nil
}

// MustCmp is NewCmp that panics on error, for statically-known-good trees.
func MustCmp(op CmpOp, l, r Expr) *Cmp {
	c, err := NewCmp(op, l, r)
	if err != nil {
		panic(err)
	}
	return c
}

// Type implements Expr.
func (c *Cmp) Type() types.Type { return types.Bool }

// Eval implements Expr.
func (c *Cmp) Eval(b *vector.Batch) (*vector.Vector, error) {
	// Comparing against a literal is the common predicate, and materializing
	// the constant as a full vector per block (allocate + fill) costs more
	// than the comparison itself: a non-NULL constant stays a scalar, moved
	// to the right-hand side.
	l, r, op := c.L, c.R, c.Op
	if k, ok := l.(*Const); ok && !k.Val.Null {
		l, r, op = r, l, op.Swap()
	}
	lv, err := l.Eval(b)
	if err != nil {
		return nil, err
	}
	if k, ok := r.(*Const); ok && !k.Val.Null {
		return c.truth(lv, nil, k.Val, op), nil
	}
	rv, err := r.Eval(b)
	if err != nil {
		return nil, err
	}
	return c.truth(lv, rv, types.Value{}, op), nil
}

// truth compares lv with rv row by row — with the scalar k when rv is nil —
// into a Bool vector; a NULL operand yields NULL. One typed loop per operand
// class (kernel.go), chosen at construction: the typed-kernel equivalent of
// Vertica's JIT-compiled comparisons.
func (c *Cmp) truth(lv, rv *vector.Vector, k types.Value, op CmpOp) *vector.Vector {
	n := lv.PhysLen()
	out := vector.NewFromInts(types.Bool, make([]int64, n))
	if rv != nil {
		out.Nulls = mergeNulls(lv, rv, n)
	} else if lv.Nulls != nil {
		out.Nulls = append([]bool(nil), lv.Nulls...)
	}
	r := rv
	if r == nil {
		r = &vector.Vector{} // no slices: truthInto compares with the scalar
	}
	switch {
	case c.kind == cmpInt:
		truthInto(out.Ints, lv.Ints, r.Ints, k.I, op)
	case c.kind == cmpStr:
		truthInto(out.Ints, lv.Strs, r.Strs, k.S, op)
	case rv == nil:
		truthInto(out.Ints, asFloats(lv), nil, scalarFloat(k), op)
	default:
		truthInto(out.Ints, asFloats(lv), asFloats(rv), 0, op)
	}
	return out
}

// EvalRow implements Expr.
func (c *Cmp) EvalRow(r types.Row) (types.Value, error) {
	lv, err := c.L.EvalRow(r)
	if err != nil {
		return types.Value{}, err
	}
	rv, err := c.R.EvalRow(r)
	if err != nil {
		return types.Value{}, err
	}
	if lv.Null || rv.Null {
		return types.NewNull(types.Bool), nil
	}
	return types.NewBool(cmpHolds(c.Op, lv.Compare(rv))), nil
}

// Columns implements Expr.
func (c *Cmp) Columns(acc []int) []int { return c.R.Columns(c.L.Columns(acc)) }

// String implements Expr.
func (c *Cmp) String() string { return fmt.Sprintf("(%s %s %s)", c.L, c.Op, c.R) }
