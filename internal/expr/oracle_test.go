package expr

import (
	"flag"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/types"
	"repro/internal/vector"
)

// Seeded oracle for the package's three evaluators: over random typed
// expression trees and random batches — NULLs, run-length columns, incoming
// selections — Eval must give, entry by entry, and Selector.Narrow (also
// through the selectWhere helper) must select, row by row, what EvalRow says. EvalRow is the
// reference: it boxes one row at a time and shares no loop with the others.

var exprSeed = flag.Int64("expr.seed", 20120827, "seed of the expr oracles (a failure prints the seed to re-run)")

var oracleSchema = types.NewSchema(
	types.Column{Name: "a", Typ: types.Int64, Nullable: true},
	types.Column{Name: "b", Typ: types.Int64, Nullable: true},
	types.Column{Name: "f", Typ: types.Float64, Nullable: true},
	types.Column{Name: "s", Typ: types.Varchar, Nullable: true},
	types.Column{Name: "ts", Typ: types.Timestamp, Nullable: true},
	types.Column{Name: "flag", Typ: types.Bool, Nullable: true},
)

var oracleBase = time.Date(2012, 8, 27, 0, 0, 0, 0, time.UTC)

func randomValue(rng *rand.Rand, t types.Type) types.Value {
	if rng.Intn(7) == 0 {
		return types.NewNull(t)
	}
	switch t {
	case types.Float64:
		return types.NewFloat(float64(rng.Intn(40)-10) / 2)
	case types.Varchar:
		return types.NewString([]string{"", "a", "Ab", "abc", "b", "zz"}[rng.Intn(6)])
	case types.Timestamp:
		return types.NewTimestamp(oracleBase.Add(time.Duration(rng.Intn(2000)) * time.Hour))
	case types.Bool:
		return types.NewBool(rng.Intn(2) == 0)
	default:
		return types.NewInt(int64(rng.Intn(30) - 8))
	}
}

func randomRows(rng *rand.Rand, n int) []types.Row {
	rows := make([]types.Row, n)
	for i := range rows {
		rows[i] = make(types.Row, oracleSchema.Len())
		for c := range rows[i] {
			rows[i][c] = randomValue(rng, oracleSchema.Col(c).Typ)
		}
	}
	return rows
}

func batchOf(rows []types.Row) *vector.Batch {
	b := vector.NewBatchForSchema(oracleSchema, len(rows))
	for _, r := range rows {
		b.AppendRow(r)
	}
	return b
}

// rleOf run-length encodes a flat vector.
func rleOf(v *vector.Vector) *vector.Vector {
	out := vector.New(v.Typ, 0)
	for i := 0; i < v.PhysLen(); i++ {
		if n := len(out.RunLens); n > 0 && vector.EqualAt(v, i, out, n-1, true) {
			out.RunLens[n-1]++
			continue
		}
		out.AppendEntry(v, i)
		out.RunLens = append(out.RunLens, 1)
	}
	return out
}

type exprGen struct{ rng *rand.Rand }

func (g *exprGen) colOf(t types.Type) Expr {
	var cands []int
	for i, c := range oracleSchema.Cols {
		if c.Typ == t {
			cands = append(cands, i)
		}
	}
	i := cands[g.rng.Intn(len(cands))]
	return NewColRef(i, t, oracleSchema.Col(i).Name)
}

func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

// value draws an expression of type t.
func (g *exprGen) value(t types.Type, depth int) Expr {
	if depth == 0 || g.rng.Intn(3) == 0 {
		if g.rng.Intn(3) == 0 {
			return NewConst(randomValue(g.rng, t))
		}
		return g.colOf(t)
	}
	switch t {
	case types.Int64:
		switch g.rng.Intn(6) {
		case 0:
			return must(NewFunc("LENGTH", g.value(types.Varchar, depth-1)))
		case 1:
			return must(NewFunc([]string{"EXTRACT_YEAR", "EXTRACT_MONTH", "EXTRACT_DAY"}[g.rng.Intn(3)], g.value(types.Timestamp, depth-1)))
		case 2:
			return must(NewFunc("ABS", g.value(types.Int64, depth-1)))
		case 3:
			return must(NewFunc("INT", g.value(types.Float64, depth-1)))
		case 4:
			return must(NewFunc("HASH", g.value(types.Int64, depth-1), g.value(types.Varchar, depth-1)))
		default:
			return must(NewArith(ArithOp(g.rng.Intn(3)), g.value(types.Int64, depth-1), g.value(types.Int64, depth-1)))
		}
	case types.Float64:
		switch g.rng.Intn(4) {
		case 0:
			return must(NewFunc("FLOAT", g.value(types.Int64, depth-1)))
		case 1:
			return must(NewFunc("ABS", g.value(types.Float64, depth-1)))
		case 2: // mixed operands: the integer side is converted
			return must(NewArith(ArithOp(g.rng.Intn(3)), g.value(types.Int64, depth-1), g.value(types.Float64, depth-1)))
		default:
			return must(NewArith(ArithOp(g.rng.Intn(3)), g.value(types.Float64, depth-1), g.value(types.Float64, depth-1)))
		}
	case types.Varchar:
		return must(NewFunc([]string{"LOWER", "UPPER"}[g.rng.Intn(2)], g.value(types.Varchar, depth-1)))
	case types.Timestamp:
		return must(NewArith(Add, g.value(types.Timestamp, depth-1), NewConst(types.NewInt(int64(g.rng.Intn(1000))))))
	default:
		return g.boolean(depth)
	}
}

// boolean draws a predicate.
func (g *exprGen) boolean(depth int) Expr {
	if depth > 0 {
		switch g.rng.Intn(6) {
		case 0:
			return must(NewLogic(Not, g.boolean(depth-1)))
		case 1:
			return must(NewLogic(Or, g.boolean(depth-1), g.boolean(depth-1)))
		case 2:
			return must(NewLogic(And, g.boolean(depth-1), g.boolean(depth-1), g.boolean(depth-1)))
		case 3:
			return must(NewCase([]When{
				{Cond: g.boolean(depth - 1), Then: g.boolean(depth - 1)},
				{Cond: g.boolean(depth - 1), Then: g.boolean(depth - 1)},
			}, []Expr{nil, g.boolean(depth - 1)}[g.rng.Intn(2)]))
		}
	}
	// Comparable operand pairs, by the rule NewCmp applies.
	pairs := [][2]types.Type{
		{types.Int64, types.Int64}, {types.Int64, types.Float64}, {types.Float64, types.Int64},
		{types.Float64, types.Float64}, {types.Varchar, types.Varchar}, {types.Timestamp, types.Timestamp},
		{types.Bool, types.Bool},
	}
	p := pairs[g.rng.Intn(len(pairs))]
	l := g.value(p[0], min(depth, 1))
	switch g.rng.Intn(8) {
	case 0:
		return &IsNull{Arg: l, Negate: g.rng.Intn(2) == 0}
	case 1:
		return &InList{Arg: l, Negate: g.rng.Intn(2) == 0,
			Vals: []types.Value{randomValue(g.rng, p[0]), randomValue(g.rng, p[0]), types.NewNull(p[0])}}
	case 2, 3, 4: // a column against a constant, either way round: the kernel shape
		l, r := g.colOf(p[0]), Expr(NewConst(randomValue(g.rng, p[1])))
		if g.rng.Intn(3) == 0 {
			return must(NewCmp(CmpOp(g.rng.Intn(6)), r, l))
		}
		return must(NewCmp(CmpOp(g.rng.Intn(6)), l, r))
	default:
		return must(NewCmp(CmpOp(g.rng.Intn(6)), l, g.value(p[1], min(depth, 1))))
	}
}

func TestEvalMatchesEvalRow(t *testing.T) {
	rng := rand.New(rand.NewSource(*exprSeed))
	g := &exprGen{rng}
	kinds := []types.Type{types.Int64, types.Float64, types.Varchar, types.Timestamp, types.Bool}
	for n := 0; n < 400; n++ {
		e := g.value(kinds[n%len(kinds)], 3)
		rows := randomRows(rng, 1+rng.Intn(70))
		b := batchOf(rows)
		if n%3 == 0 {
			c := rng.Intn(len(b.Cols))
			b.Cols[c] = rleOf(b.Cols[c])
		}
		got, err := e.Eval(b)
		if err != nil {
			t.Fatalf("-expr.seed=%d case %d: Eval(%s): %v", *exprSeed, n, e, err)
		}
		got = got.Expand()
		if got.Typ != e.Type() || got.Len() != len(rows) {
			t.Fatalf("-expr.seed=%d case %d: Eval(%s) = %s over %d rows of %s", *exprSeed, n, e, got, len(rows), e.Type())
		}
		for i, r := range rows {
			want, err := e.EvalRow(r)
			if err != nil {
				t.Fatalf("EvalRow(%s): %v", e, err)
			}
			if v := got.ValueAt(i); v.Null != want.Null || (!v.Null && v.Compare(want) != 0) {
				t.Fatalf("-expr.seed=%d case %d: %s on %v: Eval %v, EvalRow %v", *exprSeed, n, e, r, v, want)
			}
		}
		// A remapped copy reads the same values from permuted columns, and
		// names the columns it reads.
		perm := rng.Perm(oracleSchema.Len())
		m := map[int]int{}
		shuffled := &vector.Batch{Cols: make([]*vector.Vector, len(perm))}
		for from, to := range perm {
			m[from] = to
			shuffled.Cols[to] = b.Cols[from]
		}
		re, err := Remap(e, m)
		if err != nil {
			t.Fatalf("Remap(%s): %v", e, err)
		}
		if re.String() != e.String() || len(ColumnsOf(re)) != len(ColumnsOf(e)) {
			t.Fatalf("Remap(%s) reads %v as %s", e, ColumnsOf(re), re)
		}
		again, err := re.Eval(shuffled)
		if err != nil {
			t.Fatal(err)
		}
		again = again.Expand()
		for i := range rows {
			if !vector.EqualAt(got, i, again, i, true) {
				t.Fatalf("-expr.seed=%d case %d: %s differs after Remap at row %d", *exprSeed, n, e, i)
			}
		}
		if _, err := Remap(e, map[int]int{}); err == nil && len(ColumnsOf(e)) > 0 {
			t.Fatalf("Remap(%s) accepted a map that lacks its columns", e)
		}
	}
}

func TestSelectionMatchesEvalRow(t *testing.T) {
	rng := rand.New(rand.NewSource(*exprSeed + 1))
	g := &exprGen{rng}
	for n := 0; n < 600; n++ {
		pred := g.boolean(2)
		rows := randomRows(rng, 1+rng.Intn(90))
		passes := func(i int) bool {
			v, err := pred.EvalRow(rows[i])
			if err != nil {
				t.Fatalf("EvalRow(%s): %v", pred, err)
			}
			return v.Bool()
		}
		check := func(how string, got []int, candidates []int) {
			t.Helper()
			var want []int
			for _, i := range candidates {
				if passes(i) {
					want = append(want, i)
				}
			}
			if got == nil || fmt.Sprint(got) != fmt.Sprint(append([]int{}, want...)) {
				t.Fatalf("-expr.seed=%d case %d: %s of %s\n got %v\nwant %v", *exprSeed, n, how, pred, got, want)
			}
		}
		all := make([]int, len(rows))
		for i := range all {
			all[i] = i
		}
		// Flat, then with a run-length column, then under a selection.
		b := batchOf(rows)
		got, err := selectWhere(b, pred)
		if err != nil {
			t.Fatal(err)
		}
		check("selectWhere", got, all)
		b = batchOf(rows)
		c := rng.Intn(len(b.Cols))
		b.Cols[c] = rleOf(b.Cols[c])
		if got, err = selectWhere(b, pred); err != nil {
			t.Fatal(err)
		}
		check("selectWhere over runs", got, all)
		b = batchOf(rows)
		in := []int{}
		for i := range rows {
			if rng.Intn(3) > 0 {
				in = append(in, i)
			}
		}
		b.Sel = append([]int{}, in...)
		if got, err = selectWhere(b, pred); err != nil {
			t.Fatal(err)
		}
		check("selectWhere over a selection", got, in)
		if fmt.Sprint(b.Sel) != fmt.Sprint(in) {
			t.Fatalf("selectWhere(%s) changed the batch's selection", pred)
		}
		// The compiled form over a row range, into a buffer that is reused
		// and then narrowed again in place.
		s, err := NewSelector(Conjuncts(pred))
		if err != nil {
			t.Fatal(err)
		}
		lo := rng.Intn(len(rows))
		hi := lo + rng.Intn(len(rows)-lo+1)
		buf := make([]int, len(rows))
		if got, err = s.Narrow(b.Cols, nil, lo, hi, buf); err != nil {
			t.Fatal(err)
		}
		check("Narrow over a range", got, all[lo:hi])
		kept := append([]int{}, got...)
		if got, err = s.Narrow(b.Cols, got, 0, 0, got); err != nil {
			t.Fatal(err)
		}
		check("Narrow in place", got, kept)
		for _, c := range ColumnsOf(pred) {
			if i := sort.SearchInts(s.Columns(), c); i == len(s.Columns()) || s.Columns()[i] != c {
				t.Fatalf("Selector of %s reads %v, not column %d", pred, s.Columns(), c)
			}
		}
	}
	if got, err := selectWhere(batchOf(randomRows(rng, 5)), nil); err != nil || len(got) != 5 {
		t.Errorf("selectWhere without a predicate kept %v (err %v), want every row", got, err)
	}
}

// TestColConstOrdersLikeEvalRow: the comparator a sort-key seek searches
// with and the min/max test it short-circuits on must agree with EvalRow on
// every operator and every operand coercion, either operand order.
func TestColConstOrdersLikeEvalRow(t *testing.T) {
	rng := rand.New(rand.NewSource(*exprSeed + 2))
	pairs := [][2]types.Type{
		{types.Int64, types.Int64}, {types.Int64, types.Float64}, {types.Float64, types.Int64},
		{types.Float64, types.Float64}, {types.Varchar, types.Varchar}, {types.Timestamp, types.Timestamp},
	}
	for n := 0; n < 500; n++ {
		p := pairs[n%len(pairs)]
		col := NewColRef(0, p[0], "c")
		k := randomValue(rng, p[1])
		op := CmpOp(rng.Intn(6))
		var cmp Expr = must(NewCmp(op, col, NewConst(k)))
		if n%2 == 1 {
			cmp = must(NewCmp(op.Swap(), NewConst(k), col))
		}
		cc, ok := AsColConst(cmp)
		if !ok || cc.Col != 0 || cc.Op != op {
			t.Fatalf("AsColConst(%s) = %+v, %v", cmp, cc, ok)
		}
		v := vector.New(p[0], 40)
		for v.PhysLen() < 40 {
			if x := randomValue(rng, p[0]); !x.Null {
				v.AppendValue(x)
			}
		}
		mn, mx, _ := v.MinMax()
		any := false
		for i := 0; i < v.PhysLen(); i++ {
			x := v.ValueAt(i)
			want, err := cmp.EvalRow(types.Row{x})
			any = any || want.Bool()
			if err != nil {
				t.Fatal(err)
			}
			if got := cc.Holds(x); got != want.Bool() {
				t.Fatalf("-expr.seed=%d: (%s).Holds(%v) = %v, EvalRow %v", *exprSeed, cmp, x, got, want)
			}
			if !k.Null {
				if got := cmpHolds(op, cc.CompareAt(v, i)); got != want.Bool() {
					t.Fatalf("-expr.seed=%d: %s: CompareAt(%v) = %d, EvalRow %v", *exprSeed, cmp, x, cc.CompareAt(v, i), want)
				}
			}
		}
		if any && !cc.MayHold(mn, mx) {
			t.Fatalf("-expr.seed=%d: %s: min/max [%v, %v] pruned a block that holds a match", *exprSeed, cmp, mn, mx)
		}
	}
	// Min/max pruning: never a block that holds a match, and the exact
	// verdict at the edges of [0, 99].
	edge := func(op CmpOp, k int64) bool {
		cc, _ := AsColConst(must(NewCmp(op, col(0), lit(k))))
		return cc.MayHold(types.NewInt(0), types.NewInt(99))
	}
	for _, c := range []struct {
		op   CmpOp
		k    int64
		want bool
	}{{Eq, 150, false}, {Eq, 50, true}, {Gt, 99, false}, {Ge, 99, true}, {Lt, 0, false}, {Le, 0, true}, {Ne, 5, true}} {
		if got := edge(c.op, c.k); got != c.want {
			t.Errorf("[0,99] may hold a value %s %d: %v, want %v", c.op, c.k, got, c.want)
		}
	}
	if cc, _ := AsColConst(must(NewCmp(Eq, col(0), lit(5)))); !cc.MayHold(types.NewNull(types.Int64), types.NewNull(types.Int64)) {
		t.Error("unknown bounds must never prune")
	}
	if _, ok := AsColConst(must(NewCmp(Eq, col(0), col(1)))); ok {
		t.Error("AsColConst took a column-against-column comparison")
	}
	if _, ok := AsColConst(&IsNull{Arg: col(0)}); ok {
		t.Error("AsColConst took IS NULL")
	}
}

func TestExprDisplay(t *testing.T) {
	a, s := NewColRef(0, types.Int64, "a"), NewColRef(1, types.Varchar, "")
	e := must(NewLogic(And,
		must(NewCmp(Le, must(NewArith(Mod, a, lit(3))), lit(1))),
		must(NewLogic(Not, must(NewLogic(Or,
			&IsNull{Arg: s, Negate: true},
			&InList{Arg: s, Vals: []types.Value{types.NewString("x")}, Negate: true})))),
		must(NewCase([]When{{Cond: must(NewCmp(Ne, a, lit(0))), Then: NewConst(types.NewBool(true))}}, NewConst(types.NewBool(false))))))
	want := "(((a % 3) <= 1) AND NOT ($1 IS NOT NULL OR $1 NOT IN (x)) AND CASE WHEN (a <> 0) THEN true ELSE false END)"
	if got := e.String(); got != want {
		t.Errorf("String() = %s\nwant       %s", got, want)
	}
	if got := fmt.Sprint(ColumnsOf(e)); got != "[0 1]" {
		t.Errorf("ColumnsOf = %s, want [0 1]", got)
	}
	if f := must(NewFunc("upper", s)); f.String() != "UPPER($1)" || f.Type() != types.Varchar {
		t.Errorf("Func displays as %s of type %s", f, f.Type())
	}
	for _, bad := range []func() (Expr, error){
		func() (Expr, error) { return NewCmp(Eq, a, s) },
		func() (Expr, error) { return NewArith(Add, a, s) },
		func() (Expr, error) { return NewLogic(Not, a) },
		func() (Expr, error) { return NewLogic(And, must(NewCmp(Eq, a, a))) },
		func() (Expr, error) { return NewFunc("NO_SUCH", a) },
		func() (Expr, error) { return NewFunc("LENGTH", a, a) },
		func() (Expr, error) { return NewCase(nil, nil) },
		func() (Expr, error) { return NewCase([]When{{Cond: a, Then: a}}, nil) },
	} {
		if e, err := bad(); err == nil {
			t.Errorf("ill-typed expression %s was accepted", e)
		} else if !strings.HasPrefix(err.Error(), "expr: ") {
			t.Errorf("error %q does not name the package", err)
		}
	}
}
