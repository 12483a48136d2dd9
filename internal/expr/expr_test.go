package expr

import (
	"testing"
	"testing/quick"
	"time"

	"repro/internal/types"
	"repro/internal/vector"
)

func intBatch(cols ...[]int64) *vector.Batch {
	vs := make([]*vector.Vector, len(cols))
	for i, c := range cols {
		vs[i] = vector.NewFromInts(types.Int64, c)
	}
	return vector.NewBatch(vs...)
}

func col(i int) *ColRef { return NewColRef(i, types.Int64, "") }

func lit(v int64) *Const { return NewConst(types.NewInt(v)) }

func TestColRefEval(t *testing.T) {
	b := intBatch([]int64{1, 2, 3})
	v, err := col(0).Eval(b)
	if err != nil || v.Len() != 3 || v.Ints[2] != 3 {
		t.Fatalf("ColRef eval: %v %v", v, err)
	}
	if _, err := col(5).Eval(b); err == nil {
		t.Error("out-of-range column should error")
	}
}

func TestConstEval(t *testing.T) {
	b := intBatch([]int64{1, 2, 3, 4})
	v, err := NewConst(types.NewString("x")).Eval(b)
	if err != nil || v.Len() != 4 || v.Strs[3] != "x" {
		t.Fatalf("Const eval: %v %v", v, err)
	}
}

func TestArithKernels(t *testing.T) {
	b := intBatch([]int64{10, 20, 30}, []int64{3, 4, 5})
	for _, tc := range []struct {
		op   ArithOp
		want []int64
	}{
		{Add, []int64{13, 24, 35}},
		{Sub, []int64{7, 16, 25}},
		{Mul, []int64{30, 80, 150}},
		{Div, []int64{3, 5, 6}},
		{Mod, []int64{1, 0, 0}},
	} {
		a, err := NewArith(tc.op, col(0), col(1))
		if err != nil {
			t.Fatal(err)
		}
		v, err := a.Eval(b)
		if err != nil {
			t.Fatal(err)
		}
		for i, w := range tc.want {
			if v.Ints[i] != w {
				t.Errorf("%s: [%d] = %d, want %d", tc.op, i, v.Ints[i], w)
			}
		}
	}
}

func TestArithFloatPromotion(t *testing.T) {
	a, err := NewArith(Add, NewConst(types.NewFloat(1.5)), lit(2))
	if err != nil {
		t.Fatal(err)
	}
	if a.Type() != types.Float64 {
		t.Errorf("int+float should be FLOAT, got %s", a.Type())
	}
	v, err := a.EvalRow(nil)
	if err != nil || v.F != 3.5 {
		t.Errorf("EvalRow = %v, %v", v, err)
	}
}

func TestArithDivByZero(t *testing.T) {
	a, _ := NewArith(Div, lit(1), lit(0))
	if _, err := a.EvalRow(nil); err == nil {
		t.Error("integer div by zero should error")
	}
	b := intBatch([]int64{4}, []int64{0})
	d, _ := NewArith(Div, col(0), col(1))
	if _, err := d.Eval(b); err == nil {
		t.Error("vectorized div by zero should error")
	}
}

func TestArithNullPropagation(t *testing.T) {
	v0 := vector.New(types.Int64, 2)
	v0.AppendValue(types.NewInt(5))
	v0.AppendNull()
	b := vector.NewBatch(v0, vector.NewFromInts(types.Int64, []int64{1, 1}))
	a, _ := NewArith(Add, col(0), col(1))
	out, err := a.Eval(b)
	if err != nil {
		t.Fatal(err)
	}
	if out.NullAt(0) || !out.NullAt(1) {
		t.Error("null propagation wrong")
	}
	if out.Ints[0] != 6 {
		t.Error("non-null lane wrong")
	}
}

func TestArithRejectsStrings(t *testing.T) {
	if _, err := NewArith(Add, NewConst(types.NewString("a")), lit(1)); err == nil {
		t.Error("string arithmetic should be rejected at construction")
	}
	if _, err := NewArith(Mod, NewConst(types.NewFloat(1)), lit(1)); err == nil {
		t.Error("float MOD should be rejected")
	}
}

func TestCmpAllOpsInt(t *testing.T) {
	b := intBatch([]int64{1, 2, 3}, []int64{2, 2, 2})
	want := map[CmpOp][]int64{
		Eq: {0, 1, 0}, Ne: {1, 0, 1}, Lt: {1, 0, 0},
		Le: {1, 1, 0}, Gt: {0, 0, 1}, Ge: {0, 1, 1},
	}
	for op, w := range want {
		c := MustCmp(op, col(0), col(1))
		v, err := c.Eval(b)
		if err != nil {
			t.Fatal(err)
		}
		for i := range w {
			if v.Ints[i] != w[i] {
				t.Errorf("%s[%d] = %d, want %d", op, i, v.Ints[i], w[i])
			}
		}
	}
}

func TestCmpStringsAndFloats(t *testing.T) {
	sv := vector.NewFromStrings([]string{"apple", "pear"})
	b := vector.NewBatch(sv)
	c := MustCmp(Lt, NewColRef(0, types.Varchar, "s"), NewConst(types.NewString("orange")))
	v, _ := c.Eval(b)
	if v.Ints[0] != 1 || v.Ints[1] != 0 {
		t.Error("string compare wrong")
	}
	fb := vector.NewBatch(vector.NewFromFloats([]float64{1.5, 3.5}))
	fc := MustCmp(Ge, NewColRef(0, types.Float64, "f"), NewConst(types.NewInt(2)))
	fv, _ := fc.Eval(fb)
	if fv.Ints[0] != 0 || fv.Ints[1] != 1 {
		t.Error("float/int compare wrong")
	}
}

func TestCmpSwap(t *testing.T) {
	vals := []types.Value{types.NewInt(1), types.NewInt(2)}
	for _, op := range []CmpOp{Eq, Ne, Lt, Le, Gt, Ge} {
		for _, a := range vals {
			for _, b := range vals {
				c := cmpHolds(op, a.Compare(b))
				if cmpHolds(op.Swap(), b.Compare(a)) != c {
					t.Errorf("%s.Swap() not operand exchange", op)
				}
			}
		}
	}
}

func TestCmpTypeErrors(t *testing.T) {
	if _, err := NewCmp(Eq, NewConst(types.NewString("a")), lit(1)); err == nil {
		t.Error("VARCHAR = INT should be rejected")
	}
}

func TestLogicTernary(t *testing.T) {
	// (a > 0) AND (b > 0) with NULLs: NULL AND false = false; NULL AND true = NULL.
	av := vector.New(types.Int64, 3)
	av.AppendNull()
	av.AppendNull()
	av.AppendValue(types.NewInt(1))
	bv := vector.NewFromInts(types.Int64, []int64{-5, 5, 5})
	b := vector.NewBatch(av, bv)
	pred, err := NewLogic(And,
		MustCmp(Gt, col(0), lit(0)),
		MustCmp(Gt, col(1), lit(0)))
	if err != nil {
		t.Fatal(err)
	}
	v, err := pred.Eval(b)
	if err != nil {
		t.Fatal(err)
	}
	// Row 0: NULL AND false = false. Row 1: NULL AND true = NULL. Row 2: true.
	if v.NullAt(0) || v.Ints[0] != 0 {
		t.Error("NULL AND false should be false")
	}
	if !v.NullAt(1) {
		t.Error("NULL AND true should be NULL")
	}
	if v.NullAt(2) || v.Ints[2] != 1 {
		t.Error("true AND true should be true")
	}
}

func TestLogicOrNot(t *testing.T) {
	b := intBatch([]int64{0, 1}, []int64{1, 0})
	or, _ := NewLogic(Or, MustCmp(Eq, col(0), lit(1)), MustCmp(Eq, col(1), lit(1)))
	v, _ := or.Eval(b)
	if v.Ints[0] != 1 || v.Ints[1] != 1 {
		t.Error("OR wrong")
	}
	not, _ := NewLogic(Not, MustCmp(Eq, col(0), lit(1)))
	nv, _ := not.Eval(b)
	if nv.Ints[0] != 1 || nv.Ints[1] != 0 {
		t.Error("NOT wrong")
	}
}

func TestIsNull(t *testing.T) {
	v0 := vector.New(types.Int64, 2)
	v0.AppendNull()
	v0.AppendValue(types.NewInt(1))
	b := vector.NewBatch(v0)
	e := &IsNull{Arg: col(0)}
	v, _ := e.Eval(b)
	if v.Ints[0] != 1 || v.Ints[1] != 0 {
		t.Error("IS NULL wrong")
	}
	e2 := &IsNull{Arg: col(0), Negate: true}
	v2, _ := e2.Eval(b)
	if v2.Ints[0] != 0 || v2.Ints[1] != 1 {
		t.Error("IS NOT NULL wrong")
	}
}

func TestInList(t *testing.T) {
	b := intBatch([]int64{1, 2, 3})
	e := &InList{Arg: col(0), Vals: []types.Value{types.NewInt(1), types.NewInt(3)}}
	v, _ := e.Eval(b)
	if v.Ints[0] != 1 || v.Ints[1] != 0 || v.Ints[2] != 1 {
		t.Error("IN wrong")
	}
	n := &InList{Arg: col(0), Vals: e.Vals, Negate: true}
	nv, _ := n.Eval(b)
	if nv.Ints[0] != 0 || nv.Ints[1] != 1 {
		t.Error("NOT IN wrong")
	}
}

func TestCase(t *testing.T) {
	b := intBatch([]int64{1, 5, 50})
	c, err := NewCase([]When{
		{Cond: MustCmp(Lt, col(0), lit(3)), Then: NewConst(types.NewString("small"))},
		{Cond: MustCmp(Lt, col(0), lit(10)), Then: NewConst(types.NewString("mid"))},
	}, NewConst(types.NewString("big")))
	if err != nil {
		t.Fatal(err)
	}
	v, err := c.Eval(b)
	if err != nil {
		t.Fatal(err)
	}
	if v.Strs[0] != "small" || v.Strs[1] != "mid" || v.Strs[2] != "big" {
		t.Errorf("CASE = %v", v.Strs)
	}
}

func TestFuncHash(t *testing.T) {
	f, err := NewFunc("HASH", col(0))
	if err != nil {
		t.Fatal(err)
	}
	b := intBatch([]int64{7, 7, 8})
	v, err := f.Eval(b)
	if err != nil {
		t.Fatal(err)
	}
	if v.Ints[0] != v.Ints[1] {
		t.Error("HASH not deterministic")
	}
	if v.Ints[0] == v.Ints[2] {
		t.Error("HASH(7) == HASH(8)")
	}
}

func TestFuncExtract(t *testing.T) {
	ts := types.NewTimestamp(time.Date(2012, 4, 15, 0, 0, 0, 0, time.UTC))
	tv := vector.New(types.Timestamp, 1)
	tv.AppendValue(ts)
	b := vector.NewBatch(tv)
	for name, want := range map[string]int64{
		"EXTRACT_YEAR": 2012, "EXTRACT_MONTH": 4, "EXTRACT_DAY": 15,
	} {
		f, err := NewFunc(name, NewColRef(0, types.Timestamp, "ts"))
		if err != nil {
			t.Fatal(err)
		}
		v, err := f.Eval(b)
		if err != nil || v.Ints[0] != want {
			t.Errorf("%s = %v, %v; want %d", name, v.Ints, err, want)
		}
	}
}

func TestFuncMisc(t *testing.T) {
	r := types.Row{types.NewInt(-7), types.NewString("AbC")}
	abs, _ := NewFunc("ABS", NewColRef(0, types.Int64, ""))
	if v, _ := abs.EvalRow(r); v.I != 7 {
		t.Error("ABS wrong")
	}
	ln, _ := NewFunc("LENGTH", NewColRef(1, types.Varchar, ""))
	if v, _ := ln.EvalRow(r); v.I != 3 {
		t.Error("LENGTH wrong")
	}
	lo, _ := NewFunc("LOWER", NewColRef(1, types.Varchar, ""))
	if v, _ := lo.EvalRow(r); v.S != "abc" {
		t.Error("LOWER wrong")
	}
	fl, _ := NewFunc("FLOAT", NewColRef(0, types.Int64, ""))
	if v, _ := fl.EvalRow(r); v.F != -7 {
		t.Error("FLOAT cast wrong")
	}
	if _, err := NewFunc("NO_SUCH_FN"); err == nil {
		t.Error("unknown function should error")
	}
}

// selectWhere returns the selection vector of the rows where a boolean
// predicate is true (intersected with any existing selection on the batch),
// through a Selector compiled for the call. A nil predicate keeps all live
// rows. The batch's own selection is left untouched; the result is never
// nil on success.
func selectWhere(b *vector.Batch, pred Expr) ([]int, error) {
	if pred == nil {
		if b.Sel != nil {
			return b.Sel, nil
		}
		sel := make([]int, b.FullLen())
		for i := range sel {
			sel[i] = i
		}
		return sel, nil
	}
	b.ExpandRLE()
	s, err := NewSelector(Conjuncts(pred))
	if err != nil {
		return nil, err
	}
	return s.Narrow(b.Cols, b.Sel, 0, b.FullLen(), nil)
}

func TestSelectWhere(t *testing.T) {
	b := intBatch([]int64{5, 15, 25, 35})
	sel, err := selectWhere(b, MustCmp(Gt, col(0), lit(10)))
	if err != nil {
		t.Fatal(err)
	}
	if len(sel) != 3 || sel[0] != 1 {
		t.Errorf("sel = %v", sel)
	}
	// Composition with an existing selection.
	b.Sel = []int{0, 2}
	sel2, err := selectWhere(b, MustCmp(Gt, col(0), lit(10)))
	if err != nil {
		t.Fatal(err)
	}
	if len(sel2) != 1 || sel2[0] != 2 {
		t.Errorf("composed sel = %v", sel2)
	}
	// nil predicate keeps everything live.
	sel3, _ := selectWhere(b, nil)
	if len(sel3) != 2 {
		t.Errorf("nil-pred sel = %v", sel3)
	}
}

func TestConjuncts(t *testing.T) {
	a := MustCmp(Gt, col(0), lit(1))
	b := MustCmp(Lt, col(0), lit(10))
	c := MustCmp(Ne, col(0), lit(5))
	and1, _ := NewLogic(And, a, b)
	and2, _ := NewLogic(And, and1, c)
	got := Conjuncts(and2)
	if len(got) != 3 {
		t.Errorf("Conjuncts = %d terms, want 3", len(got))
	}
	if len(Conjuncts(nil)) != 0 {
		t.Error("Conjuncts(nil) should be empty")
	}
	or, _ := NewLogic(Or, a, b)
	if len(Conjuncts(or)) != 1 {
		t.Error("OR should be a single conjunct")
	}
}

func TestColumnsOfAndRemap(t *testing.T) {
	a, _ := NewArith(Add, col(3), col(1))
	pred := MustCmp(Gt, a, lit(0))
	cols := ColumnsOf(pred)
	if len(cols) != 2 || cols[0] != 1 || cols[1] != 3 {
		t.Errorf("ColumnsOf = %v", cols)
	}
	re, err := Remap(pred, map[int]int{3: 0, 1: 1})
	if err != nil {
		t.Fatal(err)
	}
	b := intBatch([]int64{5}, []int64{-10})
	v, err := re.Eval(b)
	if err != nil || v.Ints[0] != 0 { // 5 + (-10) > 0 is false
		t.Errorf("remapped eval = %v, %v", v, err)
	}
	if _, err := Remap(pred, map[int]int{3: 0}); err == nil {
		t.Error("remap with missing column should error")
	}
}

func TestEvalRowMatchesEvalVectorized(t *testing.T) {
	// Property: row-wise and vectorized evaluation agree.
	pred := MustCmp(Gt, mustArith(Mul, col(0), lit(3)), col(1))
	f := func(a, b int64) bool {
		// Avoid overflow domain.
		a %= 1 << 30
		b %= 1 << 30
		batch := intBatch([]int64{a}, []int64{b})
		vv, err := pred.Eval(batch)
		if err != nil {
			return false
		}
		rv, err := pred.EvalRow(types.Row{types.NewInt(a), types.NewInt(b)})
		if err != nil {
			return false
		}
		return (vv.Ints[0] != 0) == rv.Bool()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func mustArith(op ArithOp, l, r Expr) Expr {
	a, err := NewArith(op, l, r)
	if err != nil {
		panic(err)
	}
	return a
}

func TestMustAnd(t *testing.T) {
	if MustAnd() != nil {
		t.Error("MustAnd() should be nil")
	}
	a := MustCmp(Gt, col(0), lit(1))
	if MustAnd(a) != a {
		t.Error("MustAnd(a) should be a")
	}
	if MustAnd(nil, a, nil) != a {
		t.Error("MustAnd should drop nils")
	}
	ab := MustAnd(a, MustCmp(Lt, col(0), lit(5)))
	if _, ok := ab.(*Logic); !ok {
		t.Error("MustAnd(a,b) should be a Logic node")
	}
}
