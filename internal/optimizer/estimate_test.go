package optimizer

import (
	"math"
	"testing"

	"repro/internal/catalog"
	"repro/internal/exec"
	"repro/internal/expr"
	"repro/internal/stats"
	"repro/internal/types"
)

// The estimation layer's decisions, worked by hand: each table below states
// the statistics it installs and the selectivity they must yield, so a
// change to what the statistics decide shows up here as a changed number.

// estimateCatalog holds t(a, b, c) and u(k, g). Only t's a and b are
// analysed, with statistics built by hand:
//
//	a: 100 rows, no NULLs, NDV 100, buckets (0, 50] and (50, 100] of 50 rows
//	   and 50 values each;
//	b: 100 rows, 20 NULLs, NDV 4, buckets [1, 2] and (2, 4] of 40 rows and
//	   2 values each.
func estimateCatalog(t *testing.T) (*catalog.Catalog, *catalog.Table, *catalog.Table) {
	t.Helper()
	cat := catalog.New("")
	for _, tbl := range []*catalog.Table{
		{Name: "t", Schema: types.NewSchema(
			types.Column{Name: "a", Typ: types.Int64},
			types.Column{Name: "b", Typ: types.Int64},
			types.Column{Name: "c", Typ: types.Int64},
		)},
		{Name: "u", Schema: types.NewSchema(
			types.Column{Name: "k", Typ: types.Int64},
			types.Column{Name: "g", Typ: types.Int64},
		)},
	} {
		if err := cat.CreateTable(tbl); err != nil {
			t.Fatal(err)
		}
	}
	a := &stats.ColumnStats{
		Column: "a", RowCount: 100, Min: types.NewInt(0), Max: types.NewInt(100), NDV: 100,
		Hist: &stats.Histogram{Min: types.NewInt(0), Rows: 100, Buckets: []stats.Bucket{
			{Upper: types.NewInt(50), Rows: 50, NDV: 50},
			{Upper: types.NewInt(100), Rows: 50, NDV: 50},
		}},
	}
	b := &stats.ColumnStats{
		Column: "b", RowCount: 100, NullCount: 20, Min: types.NewInt(1), Max: types.NewInt(4), NDV: 4,
		Hist: &stats.Histogram{Min: types.NewInt(1), Rows: 80, Buckets: []stats.Bucket{
			{Upper: types.NewInt(2), Rows: 40, NDV: 2},
			{Upper: types.NewInt(4), Rows: 40, NDV: 2},
		}},
	}
	if err := cat.SetTableStats("t", []*stats.ColumnStats{a, b}); err != nil {
		t.Fatal(err)
	}
	tt, err := cat.Table("t")
	if err != nil {
		t.Fatal(err)
	}
	u, err := cat.Table("u")
	if err != nil {
		t.Fatal(err)
	}
	return cat, tt, u
}

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

// Column references over t's flat schema (t is the first FROM table).
var (
	colA = expr.NewColRef(0, types.Int64, "a")
	colB = expr.NewColRef(1, types.Int64, "b")
	colC = expr.NewColRef(2, types.Int64, "c")
)

func intConst(v int64) *expr.Const { return expr.NewConst(types.NewInt(v)) }

func TestEstimateTableFromHistograms(t *testing.T) {
	cat, tt, _ := estimateCatalog(t)
	cases := []struct {
		name     string
		where    []expr.Expr
		sel      float64
		analyzed bool
		colSel   map[int]float64
	}{
		// One bucket of 50 rows over 50 values: 1 row in 100.
		{"a = 10", []expr.Expr{expr.MustCmp(expr.Eq, colA, intConst(10))}, 0.01, true, map[int]float64{0: 0.01}},
		{"a <> 10", []expr.Expr{expr.MustCmp(expr.Ne, colA, intConst(10))}, 0.99, true, map[int]float64{0: 0.99}},
		// 25 sits halfway through the first bucket.
		{"a < 25", []expr.Expr{expr.MustCmp(expr.Lt, colA, intConst(25))}, 0.25, true, map[int]float64{0: 0.25}},
		{"a <= 50", []expr.Expr{expr.MustCmp(expr.Le, colA, intConst(50))}, 0.5, true, map[int]float64{0: 0.5}},
		{"a > 75", []expr.Expr{expr.MustCmp(expr.Gt, colA, intConst(75))}, 0.25, true, map[int]float64{0: 0.25}},
		// The top value of a bucket is one of its 50 values: 1 row in 100.
		{"a >= 100", []expr.Expr{expr.MustCmp(expr.Ge, colA, intConst(100))}, 0.01, true, map[int]float64{0: 0.01}},
		// A constant on the left estimates the swapped comparison.
		{"25 > a", []expr.Expr{expr.MustCmp(expr.Gt, intConst(25), colA)}, 0.25, true, map[int]float64{0: 0.25}},
		{"75 < a", []expr.Expr{expr.MustCmp(expr.Lt, intConst(75), colA)}, 0.25, true, map[int]float64{0: 0.25}},
		{"10 = a", []expr.Expr{expr.MustCmp(expr.Eq, intConst(10), colA)}, 0.01, true, map[int]float64{0: 0.01}},
		// Two conjuncts on one column multiply into its colSel entry.
		{"a > 25 AND a < 75", []expr.Expr{
			expr.MustCmp(expr.Gt, colA, intConst(25)),
			expr.MustCmp(expr.Lt, colA, intConst(75)),
		}, 0.5625, true, map[int]float64{0: 0.5625}},
		// b = 1 keeps 40/2 of the 80 non-NULL rows: 20 of 100.
		{"b IN (1)", []expr.Expr{&expr.InList{Arg: colB, Vals: []types.Value{types.NewInt(1)}}}, 0.2, true, map[int]float64{1: 0.2}},
		{"b IN (1, 3)", []expr.Expr{&expr.InList{Arg: colB, Vals: []types.Value{types.NewInt(1), types.NewInt(3)}}}, 0.4, true, map[int]float64{1: 0.4}},
		// NOT IN is false on the 20 NULL rows too: 80 - 20.
		{"b NOT IN (1)", []expr.Expr{&expr.InList{Arg: colB, Vals: []types.Value{types.NewInt(1)}, Negate: true}}, 0.6, true, map[int]float64{1: 0.6}},
		{"b IS NULL", []expr.Expr{&expr.IsNull{Arg: colB}}, 0.2, true, map[int]float64{1: 0.2}},
		{"b IS NOT NULL", []expr.Expr{&expr.IsNull{Arg: colB, Negate: true}}, 0.8, true, map[int]float64{1: 0.8}},
		{"b = NULL", []expr.Expr{expr.MustCmp(expr.Eq, colB, expr.NewConst(types.NewNull(types.Int64)))}, 0, true, map[int]float64{1: 0}},
		{"a < 25 AND b IS NULL", []expr.Expr{
			expr.MustCmp(expr.Lt, colA, intConst(25)),
			&expr.IsNull{Arg: colB},
		}, 0.05, true, map[int]float64{0: 0.25, 1: 0.2}},
		// c has no statistics: its conjunct takes the shape heuristic
		// (0.05 for =) and the blend marks the table unanalysed.
		{"c = 5", []expr.Expr{expr.MustCmp(expr.Eq, colC, intConst(5))}, 0.05, false, map[int]float64{2: 0.05}},
		{"a < 25 AND c = 5", []expr.Expr{
			expr.MustCmp(expr.Lt, colA, intConst(25)),
			expr.MustCmp(expr.Eq, colC, intConst(5)),
		}, 0.0125, false, map[int]float64{0: 0.25, 2: 0.05}},
		{"c IN (1)", []expr.Expr{&expr.InList{Arg: colC, Vals: []types.Value{types.NewInt(1)}}}, 0.1, false, map[int]float64{2: 0.1}},
		{"c IS NULL", []expr.Expr{&expr.IsNull{Arg: colC}}, 0.5, false, map[int]float64{2: 0.5}},
		// A column-to-column comparison is beyond the histograms: the
		// heuristic is charged to its first column.
		{"a = b", []expr.Expr{expr.MustCmp(expr.Eq, colA, colB)}, 0.05, false, map[int]float64{0: 0.05}},
		{"a < b", []expr.Expr{expr.MustCmp(expr.Lt, colA, colB)}, 0.4, false, map[int]float64{0: 0.4}},
	}
	for _, tc := range cases {
		est := estimateTable(cat, tt, tc.where, 0)
		if !near(est.sel, tc.sel) || est.analyzed != tc.analyzed {
			t.Errorf("%s: sel=%v analyzed=%v, want %v %v", tc.name, est.sel, est.analyzed, tc.sel, tc.analyzed)
		}
		if len(est.colSel) != len(tc.colSel) {
			t.Errorf("%s: colSel=%v, want %v", tc.name, est.colSel, tc.colSel)
			continue
		}
		for col, want := range tc.colSel {
			if got, ok := est.colSel[col]; !ok || !near(got, want) {
				t.Errorf("%s: colSel=%v, want %v", tc.name, est.colSel, tc.colSel)
				break
			}
		}
	}
}

// TestEstimateTableUnanalyzed: a table without statistics plans on the
// shape heuristics alone and records no per-column selectivity.
func TestEstimateTableUnanalyzed(t *testing.T) {
	cat, _, u := estimateCatalog(t)
	k := expr.NewColRef(0, types.Int64, "k")
	est := estimateTable(cat, u, []expr.Expr{
		expr.MustCmp(expr.Eq, k, intConst(1)),
		expr.MustCmp(expr.Gt, k, intConst(1)),
	}, 0)
	if est.analyzed || !near(est.sel, 0.05*0.4) || len(est.colSel) != 0 {
		t.Errorf("unanalyzed u: %+v", est)
	}
	if est := estimateTable(cat, u, nil, 0); est.analyzed || est.sel != 1 {
		t.Errorf("no conjuncts: %+v", est)
	}
}

func TestStatsOp(t *testing.T) {
	for op, want := range map[expr.CmpOp]stats.Op{
		expr.Eq: stats.OpEq, expr.Ne: stats.OpNe, expr.Lt: stats.OpLt,
		expr.Le: stats.OpLe, expr.Gt: stats.OpGt, expr.Ge: stats.OpGe,
	} {
		if got, ok := statsOp(op); !ok || got != want {
			t.Errorf("statsOp(%s) = %v, %v", op, got, ok)
		}
	}
	if _, ok := statsOp(expr.CmpOp(99)); ok {
		t.Error("statsOp accepted an unknown operator")
	}
}

// TestEstimateSelectivity combines the per-table estimates of a bound
// query; statsBacked holds only when every conjunct of every table was
// estimated from statistics.
func TestEstimateSelectivity(t *testing.T) {
	cat, tt, u := estimateCatalog(t)
	uk := expr.NewColRef(3, types.Int64, "k") // u follows t's three columns
	cases := []struct {
		name        string
		from        []TableRef
		where       expr.Expr
		sel         float64
		statsBacked bool
	}{
		{"no WHERE", []TableRef{{Table: tt}}, nil, 1, true},
		{"a < 25 AND b IS NULL", []TableRef{{Table: tt}},
			expr.MustAnd(expr.MustCmp(expr.Lt, colA, intConst(25)), &expr.IsNull{Arg: colB}), 0.05, true},
		{"a < 25 AND c = 5", []TableRef{{Table: tt}},
			expr.MustAnd(expr.MustCmp(expr.Lt, colA, intConst(25)), expr.MustCmp(expr.Eq, colC, intConst(5))), 0.0125, false},
		{"t.a < 25 AND u.k = 1", []TableRef{{Table: tt}, {Table: u}},
			expr.MustAnd(expr.MustCmp(expr.Lt, colA, intConst(25)), expr.MustCmp(expr.Eq, uk, intConst(1))), 0.0125, false},
		{"t.a < 25, u unfiltered", []TableRef{{Table: tt}, {Table: u}},
			expr.MustCmp(expr.Lt, colA, intConst(25)), 0.25, false},
	}
	for _, tc := range cases {
		sel, backed := EstimateSelectivity(cat, &LogicalQuery{From: tc.from, Where: tc.where, Limit: -1})
		if !near(sel, tc.sel) || backed != tc.statsBacked {
			t.Errorf("%s: sel=%v statsBacked=%v, want %v %v", tc.name, sel, backed, tc.sel, tc.statsBacked)
		}
	}
}

func TestEstimateJoinRows(t *testing.T) {
	cases := []struct {
		outer, inner       float64
		ndvOuter, ndvInner int64
		want               float64
	}{
		{1000, 100, 100, 50, 1000}, // |R||S| / max NDV
		{1000, 10, 0, 5, 2000},     // one side known: its NDV divides
		{600, 30, 20, 0, 900},
		{1000, 100, 0, 0, 1000}, // both unknown: the N:1 star default
	}
	for _, tc := range cases {
		if got := estimateJoinRows(tc.outer, tc.inner, tc.ndvOuter, tc.ndvInner); !near(got, tc.want) {
			t.Errorf("estimateJoinRows(%v, %v, %d, %d) = %v, want %v",
				tc.outer, tc.inner, tc.ndvOuter, tc.ndvInner, got, tc.want)
		}
	}
}

func TestGroupCountEstimate(t *testing.T) {
	cat, tt, u := estimateCatalog(t)
	count := []exec.AggSpec{{Kind: exec.AggCountStar, Name: "n"}}
	cases := []struct {
		name    string
		from    []TableRef
		groupBy []int
		aggs    []exec.AggSpec
		want    float64
	}{
		{"global aggregate", []TableRef{{Table: tt}}, nil, count, 1},
		{"no aggregation", []TableRef{{Table: tt}}, nil, nil, 100},
		{"GROUP BY b (NDV 4)", []TableRef{{Table: tt}}, []int{1}, count, 4},
		// 100 x 4 groups cannot exceed the 100 input rows.
		{"GROUP BY a, b", []TableRef{{Table: tt}}, []int{0, 1}, count, 100},
		{"GROUP BY b, a", []TableRef{{Table: tt}}, []int{1, 0}, count, 100},
		{"GROUP BY c (unknown NDV)", []TableRef{{Table: tt}}, []int{2}, count, 100},
		{"GROUP BY b, u.g (unknown NDV)", []TableRef{{Table: tt}, {Table: u}}, []int{1, 4}, count, 100},
		{"GROUP BY a flat index out of range", []TableRef{{Table: tt}}, []int{7}, count, 100},
	}
	for _, tc := range cases {
		q := &LogicalQuery{From: tc.from, GroupBy: tc.groupBy, Aggs: tc.aggs, Limit: -1}
		if got := groupCountEstimate(cat, q, 100); !near(got, tc.want) {
			t.Errorf("%s: %v groups, want %v", tc.name, got, tc.want)
		}
	}
}
