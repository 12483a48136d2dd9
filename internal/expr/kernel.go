package expr

import (
	"sort"

	"repro/internal/types"
	"repro/internal/vector"
)

// Selection kernels. A filter narrows a selection — a sorted list of row
// indexes, or a row range — and never builds a truth Vector: a conjunct of
// the form <column> <op> <constant> reads the rows still selected and writes
// the survivors into a caller-owned buffer, and whatever is not of that form
// is evaluated by Eval over the already-narrowed rows alone. Scans, the WOS
// path and the Filter operator select through a Selector; Eval stays for
// computing values and as that fallback, EvalRow as the reference.

type ordered interface{ ~int64 | ~float64 | ~string }

// cmp3 orders x against k as 0 (less), 1 (equal or unordered) or 2 (greater),
// the shift that tests an opMask.
func cmp3[T ordered](x, k T) uint {
	if x < k {
		return 0
	}
	if x > k {
		return 2
	}
	return 1
}

// opMask has bit cmp3(x, k) set when x op k holds.
var opMask = [...]uint8{Eq: 0b010, Ne: 0b101, Lt: 0b001, Le: 0b011, Gt: 0b100, Ge: 0b110}

// truthInto writes l[i] op r[i] — l[i] op k when r is nil — into res as 0/1.
func truthInto[T ordered](res []int64, l, r []T, k T, op CmpOp) {
	mask := opMask[op]
	if r == nil {
		for i, x := range l {
			res[i] = int64(mask >> cmp3(x, k) & 1)
		}
		return
	}
	for i, x := range l {
		res[i] = int64(mask >> cmp3(x, r[i]) & 1)
	}
}

// selectInto writes the rows of sel — of [lo, hi) when sel is nil — whose
// value is not NULL and satisfies op against k to the front of out and
// returns that prefix. out must be as long as the candidates are many and
// may be sel itself: a write never passes the read position.
func selectInto[T ordered](out []int, vals []T, nulls []bool, k T, op CmpOp, sel []int, lo, hi int) []int {
	mask, n := opMask[op], 0
	switch {
	case sel == nil && nulls == nil:
		for i := lo; i < hi; i++ {
			out[n] = i
			n += int(mask >> cmp3(vals[i], k) & 1)
		}
	case sel == nil:
		for i := lo; i < hi; i++ {
			if !nulls[i] {
				out[n] = i
				n += int(mask >> cmp3(vals[i], k) & 1)
			}
		}
	case nulls == nil:
		for _, i := range sel {
			out[n] = i
			n += int(mask >> cmp3(vals[i], k) & 1)
		}
	default:
		for _, i := range sel {
			if !nulls[i] {
				out[n] = i
				n += int(mask >> cmp3(vals[i], k) & 1)
			}
		}
	}
	return out[:n]
}

// ColConst is a comparison of a column with a constant, the column on the
// left: the conjunct shape block pruning, sort-key seeks and the selection
// kernels understand.
type ColConst struct {
	Col int
	Op  CmpOp
	Val types.Value

	kind   cmpKind
	colTyp types.Type
}

// AsColConst recognises <column> <op> <constant> in either operand order.
func AsColConst(e Expr) (ColConst, bool) {
	c, ok := e.(*Cmp)
	if !ok {
		return ColConst{}, false
	}
	col, k, op := c.L, c.R, c.Op
	if _, isConst := col.(*Const); isConst {
		col, k, op = c.R, c.L, c.Op.Swap()
	}
	cr, okCol := col.(*ColRef)
	kv, okConst := k.(*Const)
	if !okCol || !okConst {
		return ColConst{}, false
	}
	return ColConst{Col: cr.Idx, Op: op, Val: kv.Val, kind: c.kind, colTyp: cr.Typ}, true
}

// CompareAt orders entry i of v, which is not NULL, against the constant
// under the coercion NewCmp chose for the comparison.
func (c ColConst) CompareAt(v *vector.Vector, i int) int {
	switch {
	case c.kind == cmpInt:
		return int(cmp3(v.Ints[i], c.Val.I)) - 1
	case c.kind == cmpStr:
		return int(cmp3(v.Strs[i], c.Val.S)) - 1
	case v.Typ == types.Float64:
		return int(cmp3(v.Floats[i], scalarFloat(c.Val))) - 1
	default:
		return int(cmp3(float64(v.Ints[i]), scalarFloat(c.Val))) - 1
	}
}

// Holds reports whether the value satisfies the comparison; a NULL on
// either side satisfies nothing.
func (c ColConst) Holds(v types.Value) bool {
	return !v.Null && !c.Val.Null && cmpHolds(c.Op, v.Compare(c.Val))
}

// MayHold reports whether a column whose non-NULL values span [min, max] may
// hold one that satisfies the comparison — the min/max pruning of blocks and
// containers (paper §3.5). Unknown bounds (an all-NULL block) prune nothing.
func (c ColConst) MayHold(min, max types.Value) bool {
	if c.Val.Null || min.Null || max.Null {
		return true
	}
	lo, hi := min.Compare(c.Val), max.Compare(c.Val)
	switch c.Op {
	case Eq:
		return lo <= 0 && hi >= 0
	case Lt:
		return lo < 0
	case Le:
		return lo <= 0
	case Gt:
		return hi > 0
	case Ge:
		return hi >= 0
	default:
		return true
	}
}

// hasKernel reports whether narrow handles the comparison: everything but
// an integral column against a float constant, whose values would have to
// be converted one by one (Eval does that, as the fallback).
func (c ColConst) hasKernel() bool { return c.kind != cmpFloat || c.colTyp == types.Float64 }

// narrow is the selection kernel: selectInto over v's typed values. A NULL
// constant compares true with nothing.
func (c ColConst) narrow(out []int, v *vector.Vector, sel []int, lo, hi int) []int {
	switch {
	case c.Val.Null:
		return out[:0]
	case c.kind == cmpInt:
		return selectInto(out, v.Ints, v.Nulls, c.Val.I, c.Op, sel, lo, hi)
	case c.kind == cmpStr:
		return selectInto(out, v.Strs, v.Nulls, c.Val.S, c.Op, sel, lo, hi)
	default:
		return selectInto(out, v.Floats, v.Nulls, scalarFloat(c.Val), c.Op, sel, lo, hi)
	}
}

// opCost ranks kernels for evaluation order: equality passes the fewest rows
// and inequality the most; within an operator, integers compare faster than
// floats, and floats than strings.
var opCost = [...]int{Eq: 0, Lt: 1, Le: 1, Gt: 1, Ge: 1, Ne: 2}

func (c ColConst) cost() int { return opCost[c.Op]*3 + int(c.kind) }

// Selector is a conjunction compiled once and applied to many blocks.
type Selector struct {
	kernels []ColConst // cheapest first
	// rest is the conjunction of everything without a kernel, remapped onto
	// restCols; nil when every conjunct has one.
	rest     Expr
	restCols []int
	cols     []int
}

// NewSelector compiles the conjunction of the given predicates, at least one.
func NewSelector(conjuncts []Expr) (*Selector, error) {
	s := &Selector{cols: ColumnsOf(MustAnd(conjuncts...))}
	var rest []Expr
	for _, c := range conjuncts {
		if cc, ok := AsColConst(c); ok && cc.hasKernel() {
			s.kernels = append(s.kernels, cc)
		} else {
			rest = append(rest, c)
		}
	}
	sort.SliceStable(s.kernels, func(i, j int) bool { return s.kernels[i].cost() < s.kernels[j].cost() })
	if len(rest) == 0 {
		return s, nil
	}
	all := MustAnd(rest...)
	s.restCols = ColumnsOf(all)
	if len(s.restCols) == 0 {
		// A conjunct that reads no column still has to learn how many rows
		// it is asked about; it borrows column 0 for that.
		s.restCols = []int{0}
		if len(s.cols) == 0 || s.cols[0] != 0 {
			s.cols = append([]int{0}, s.cols...)
		}
	}
	m := make(map[int]int, len(s.restCols))
	for i, c := range s.restCols {
		m[c] = i
	}
	var err error
	s.rest, err = Remap(all, m)
	return s, err
}

// Columns returns the columns the selector reads, ascending.
func (s *Selector) Columns() []int { return s.cols }

// Narrow returns the rows of sel — of [lo, hi) when sel is nil — on which
// every conjunct is true, ascending, in buf's storage (a larger one when
// buf is too small, and never nil). cols holds the flat column vectors by
// the index the predicates use; only Columns() are read. sel may be buf
// itself: each step writes survivors behind the position it reads.
func (s *Selector) Narrow(cols []*vector.Vector, sel []int, lo, hi int, buf []int) ([]int, error) {
	n := hi - lo
	if sel != nil {
		n = len(sel)
	}
	if cap(buf) < n || buf == nil {
		buf = make([]int, n)
	}
	out := buf[:n]
	if n == 0 {
		return out, nil
	}
	for _, k := range s.kernels {
		if out = k.narrow(out, cols[k.Col], sel, lo, hi); len(out) == 0 {
			return out, nil
		}
		sel = out
	}
	if s.rest == nil {
		return out, nil
	}
	// The fallback sees only the rows still selected: views of a range,
	// gathered values of anything sparser.
	in := &vector.Batch{Cols: make([]*vector.Vector, len(s.restCols))}
	for i, c := range s.restCols {
		if sel == nil {
			in.Cols[i] = cols[c].Slice(lo, hi)
		} else {
			in.Cols[i] = cols[c].Gather(sel)
		}
	}
	truth, err := s.rest.Eval(in)
	if err != nil {
		return nil, err
	}
	m := 0
	for j := range out {
		if truth.Ints[j] != 0 && !truth.NullAt(j) {
			row := lo + j
			if sel != nil {
				row = sel[j] // read before the write: sel may be out
			}
			out[m] = row
			m++
		}
	}
	return out[:m], nil
}
