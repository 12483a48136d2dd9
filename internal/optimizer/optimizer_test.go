package optimizer

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/exec"
	"repro/internal/expr"
	"repro/internal/storage"
	"repro/internal/tuplemover"
	"repro/internal/txn"
	"repro/internal/types"
)

// mapProvider serves projections from a map of storage managers.
type mapProvider struct {
	cat  *catalog.Catalog
	mgrs map[string]*storage.Manager
}

func (p *mapProvider) Catalog() *catalog.Catalog { return p.cat }
func (p *mapProvider) ProjectionData(name string) (*storage.Manager, error) {
	return p.mgrs[name], nil
}

type fixture struct {
	p  *mapProvider
	em *txn.EpochManager
}

// newFixture creates a sales fact (n rows) with a wide super projection
// sorted by sale_id and a narrow (cust, price) projection sorted by cust,
// plus a small replicated customers dimension — the Figure 1 physical
// design.
func newFixture(t *testing.T, n int) *fixture {
	t.Helper()
	cat := catalog.New("")
	em := txn.NewEpochManager()
	if err := cat.CreateTable(&catalog.Table{
		Name: "sales",
		Schema: types.NewSchema(
			types.Column{Name: "sale_id", Typ: types.Int64},
			types.Column{Name: "cust", Typ: types.Int64},
			types.Column{Name: "price", Typ: types.Float64},
		),
	}); err != nil {
		t.Fatal(err)
	}
	if err := cat.CreateTable(&catalog.Table{
		Name: "customers",
		Schema: types.NewSchema(
			types.Column{Name: "cust_id", Typ: types.Int64},
			types.Column{Name: "region", Typ: types.Varchar},
		),
	}); err != nil {
		t.Fatal(err)
	}
	mgrs := map[string]*storage.Manager{}
	mkProj := func(pr *catalog.Projection, rows []types.Row) {
		if err := cat.CreateProjection(pr); err != nil {
			t.Fatal(err)
		}
		mgr, err := storage.NewManager(t.TempDir(), pr.Schema, storage.ManagerOpts{})
		if err != nil {
			t.Fatal(err)
		}
		mgrs[pr.Name] = mgr
		mgr.WOS().Append(rows, em.CommitDML())
		tm, err := tuplemover.New(tuplemover.Config{
			Mgr: mgr, Epochs: em, Place: storage.NewPlacement(pr.Name, pr.Schema, pr.SortKey(), nil),
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tm.Moveout(); err != nil {
			t.Fatal(err)
		}
	}
	salesRows := make([]types.Row, n)
	narrowRows := make([]types.Row, n)
	for i := 0; i < n; i++ {
		salesRows[i] = types.Row{
			types.NewInt(int64(i)), types.NewInt(int64(i % 20)), types.NewFloat(float64(i)),
		}
		narrowRows[i] = types.Row{types.NewInt(int64(i % 20)), types.NewFloat(float64(i))}
	}
	mkProj(&catalog.Projection{
		Name: "sales_super", Anchor: "sales",
		Columns:   []string{"sale_id", "cust", "price"},
		SortOrder: []string{"sale_id"},
		Seg:       catalog.Segmentation{ExprText: "HASH(sale_id)"},
	}, salesRows)
	mkProj(&catalog.Projection{
		Name: "sales_by_cust", Anchor: "sales",
		Columns:   []string{"cust", "price"},
		SortOrder: []string{"cust"},
		Seg:       catalog.Segmentation{ExprText: "HASH(cust)"},
	}, narrowRows)
	dimRows := make([]types.Row, 20)
	for i := range dimRows {
		dimRows[i] = types.Row{types.NewInt(int64(i)), types.NewString([]string{"e", "w"}[i%2])}
	}
	mkProj(&catalog.Projection{
		Name: "customers_super", Anchor: "customers",
		Columns:   []string{"cust_id", "region"},
		SortOrder: []string{"cust_id"},
		Seg:       catalog.Segmentation{Replicated: true},
	}, dimRows)
	return &fixture{p: &mapProvider{cat: cat, mgrs: mgrs}, em: em}
}

func (f *fixture) table(t *testing.T, name string) *catalog.Table {
	tb, err := f.p.cat.Table(name)
	if err != nil {
		t.Fatal(err)
	}
	return tb
}

func (f *fixture) run(t *testing.T, q *LogicalQuery, opts PlanOpts) ([]types.Row, *PhysicalPlan) {
	t.Helper()
	plan, err := Plan(f.p, q, opts)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := exec.Drain(exec.NewCtx(f.em.ReadEpoch()), plan.Root)
	if err != nil {
		t.Fatal(err)
	}
	return rows, plan
}

func TestPlanChoosesNarrowProjection(t *testing.T) {
	f := newFixture(t, 200)
	sales := f.table(t, "sales")
	// Query touching only cust and price: the narrow cust-sorted projection
	// should win over the super projection.
	q := &LogicalQuery{
		From:     []TableRef{{Table: sales}},
		GroupBy:  []int{1},
		KeyNames: []string{"cust"},
		Aggs: []exec.AggSpec{{
			Kind: exec.AggSum, Arg: expr.NewColRef(2, types.Float64, "price"), Name: "s",
		}},
		Limit: -1,
	}
	rows, plan := f.run(t, q, PlanOpts{})
	if len(rows) != 20 {
		t.Fatalf("groups = %d", len(rows))
	}
	if plan.ProjectionsUsed[0] != "sales_by_cust" {
		t.Errorf("chose %s, want sales_by_cust", plan.ProjectionsUsed[0])
	}
	// And it plans one-pass aggregation on the sorted projection.
	if !strings.Contains(plan.Explain(), "one-pass") {
		t.Errorf("expected one-pass aggregation:\n%s", plan.Explain())
	}
}

func TestPlanPushesPredicateIntoScan(t *testing.T) {
	f := newFixture(t, 200)
	sales := f.table(t, "sales")
	q := &LogicalQuery{
		From:        []TableRef{{Table: sales}},
		Where:       expr.MustCmp(expr.Gt, expr.NewColRef(0, types.Int64, "sale_id"), expr.NewConst(types.NewInt(150))),
		SelectExprs: []expr.Expr{expr.NewColRef(0, types.Int64, "sale_id")},
		SelectNames: []string{"sale_id"},
		Limit:       -1,
	}
	rows, plan := f.run(t, q, PlanOpts{})
	if len(rows) != 49 {
		t.Fatalf("rows = %d", len(rows))
	}
	if !strings.Contains(plan.Explain(), "filter=") {
		t.Errorf("predicate not pushed into scan:\n%s", plan.Explain())
	}
}

func joinQuery(f *fixture, t *testing.T) *LogicalQuery {
	sales := f.table(t, "sales")
	custs := f.table(t, "customers")
	// flat: sales(0,1,2) customers(3,4)
	return &LogicalQuery{
		From:      []TableRef{{Table: sales}, {Table: custs}},
		JoinConds: []JoinCond{{LeftTbl: 0, LeftCol: 1, RightTbl: 1, RightCol: 0, Type: exec.InnerJoin}},
		Where: expr.MustCmp(expr.Eq, expr.NewColRef(4, types.Varchar, "region"),
			expr.NewConst(types.NewString("e"))),
		GroupBy:  []int{4},
		KeyNames: []string{"region"},
		Aggs:     []exec.AggSpec{{Kind: exec.AggCountStar, Name: "n"}},
		Limit:    -1,
	}
}

func TestPlanMergeJoinWhenSortOrdersAlign(t *testing.T) {
	// The narrow cust-sorted projection joins the cust_id-sorted dimension:
	// the planner must pick a merge join (paper §6.2: "merge joins on
	// compressed columns are applied first").
	f := newFixture(t, 200)
	q := joinQuery(f, t)
	rows, plan := f.run(t, q, PlanOpts{})
	if len(rows) != 1 || rows[0][1].I != 100 {
		t.Fatalf("rows = %v", rows)
	}
	ex := plan.Explain()
	if !strings.Contains(ex, "MergeJoin") {
		t.Errorf("aligned sort orders should produce a merge join:\n%s", ex)
	}
	if !strings.Contains(ex, "fact table: sales") {
		t.Errorf("star ordering note missing:\n%s", ex)
	}
}

func TestPlanStarJoinWithSIP(t *testing.T) {
	f := newFixture(t, 200)
	q := joinQuery(f, t)
	// Force the super projection (sorted by sale_id, not the join key) so
	// the join must be a hash join — where SIP applies.
	opts := PlanOpts{ExcludeProjections: map[string]bool{"sales_by_cust": true}}
	rows, plan := f.run(t, q, opts)
	if len(rows) != 1 || rows[0][1].I != 100 {
		t.Fatalf("rows = %v", rows)
	}
	ex := plan.Explain()
	if !strings.Contains(ex, "HashJoin") {
		t.Fatalf("expected hash join:\n%s", ex)
	}
	if !strings.Contains(ex, "SIP") {
		t.Errorf("SIP not placed:\n%s", ex)
	}
	// Ablation switch must remove it.
	opts.NoSIP = true
	_, plan2 := f.run(t, q, opts)
	if strings.Contains(plan2.Explain(), "SIP") {
		t.Error("NoSIP did not disable SIP")
	}
}

func TestPlanParallelAggregate(t *testing.T) {
	f := newFixture(t, 2000)
	sales := f.table(t, "sales")
	q := &LogicalQuery{
		From:     []TableRef{{Table: sales}},
		GroupBy:  []int{1},
		KeyNames: []string{"cust"},
		Aggs: []exec.AggSpec{{
			Kind: exec.AggAvg, Arg: expr.NewColRef(2, types.Float64, "price"), Name: "ap",
		}},
		// Touch sale_id so the wide projection is required (its sort order
		// does not match the grouping, forcing the parallel hash path).
		Where: expr.MustCmp(expr.Ge, expr.NewColRef(0, types.Int64, "sale_id"), expr.NewConst(types.NewInt(0))),
		Limit: -1,
	}
	rows, plan := f.run(t, q, PlanOpts{Parallelism: 3, ForceParallel: true})
	if len(rows) != 20 {
		t.Fatalf("groups = %d", len(rows))
	}
	ex := plan.Explain()
	// The Figure 3 shape: a prepass per worker, the partials resegmented on
	// the group key (Recv), merging GroupBys under a ParallelUnion.
	for _, want := range []string{"GroupByPrepass keys=1 aggs=[AVG(price)] maxGroups=4096 workers=3",
		"Recv port=0/3 (segment keys=[0])", "ParallelUnion ways=3", "fan closes at the aggregate"} {
		if !strings.Contains(ex, want) {
			t.Errorf("parallel plan missing %s:\n%s", want, ex)
		}
	}
	if plan.Workers != 3 {
		t.Errorf("Workers = %d, want 3", plan.Workers)
	}
	// NoPrepass ablation: the workers meet in a ParallelUnion under one
	// GroupBy.
	_, plan2 := f.run(t, q, PlanOpts{Parallelism: 3, ForceParallel: true, NoPrepass: true})
	if ex := plan2.Explain(); strings.Contains(ex, "GroupByPrepass") || !strings.Contains(ex, "ParallelUnion") {
		t.Errorf("NoPrepass did not close the fan with a ParallelUnion:\n%s", ex)
	}
	// The cardinality gate keeps the 2000-row scan serial without
	// ForceParallel.
	_, gated := f.run(t, q, PlanOpts{Parallelism: 3})
	if strings.Contains(gated.Explain(), "fan") {
		t.Errorf("2000-row aggregate should stay serial under the %d-row gate", int(MinParallelRows))
	}
}

func TestPlanExcludeProjectionsAndBuddies(t *testing.T) {
	f := newFixture(t, 100)
	sales := f.table(t, "sales")
	q := &LogicalQuery{
		From:        []TableRef{{Table: sales}},
		SelectExprs: []expr.Expr{expr.NewColRef(1, types.Int64, "cust")},
		SelectNames: []string{"cust"},
		Limit:       -1,
	}
	_, plan := f.run(t, q, PlanOpts{ExcludeProjections: map[string]bool{"sales_by_cust": true}})
	if plan.ProjectionsUsed[0] != "sales_super" {
		t.Errorf("exclusion ignored: %s", plan.ProjectionsUsed[0])
	}
	// Excluding everything fails.
	_, err := Plan(f.p, q, PlanOpts{ExcludeProjections: map[string]bool{
		"sales_super": true, "sales_by_cust": true,
	}})
	if err == nil {
		t.Error("planning with no projection should fail")
	}
}

func TestPlanCostReflectsNarrowness(t *testing.T) {
	f := newFixture(t, 500)
	sales := f.table(t, "sales")
	wide := &LogicalQuery{
		From: []TableRef{{Table: sales}},
		SelectExprs: []expr.Expr{
			expr.NewColRef(0, types.Int64, "sale_id"),
			expr.NewColRef(1, types.Int64, "cust"),
			expr.NewColRef(2, types.Float64, "price"),
		},
		SelectNames: []string{"sale_id", "cust", "price"},
		Limit:       -1,
	}
	narrow := &LogicalQuery{
		From:        []TableRef{{Table: sales}},
		SelectExprs: []expr.Expr{expr.NewColRef(1, types.Int64, "cust")},
		SelectNames: []string{"cust"},
		Limit:       -1,
	}
	_, widePlan := f.run(t, wide, PlanOpts{})
	_, narrowPlan := f.run(t, narrow, PlanOpts{})
	if narrowPlan.EstCost >= widePlan.EstCost {
		t.Errorf("narrow query cost %.0f >= wide cost %.0f", narrowPlan.EstCost, widePlan.EstCost)
	}
}

func TestPlanDistinct(t *testing.T) {
	f := newFixture(t, 100)
	sales := f.table(t, "sales")
	q := &LogicalQuery{
		From:        []TableRef{{Table: sales}},
		SelectExprs: []expr.Expr{expr.NewColRef(1, types.Int64, "cust")},
		SelectNames: []string{"cust"},
		Distinct:    true,
		Limit:       -1,
	}
	rows, _ := f.run(t, q, PlanOpts{})
	if len(rows) != 20 {
		t.Errorf("distinct rows = %d", len(rows))
	}
}

func TestPlanNoFromFails(t *testing.T) {
	f := newFixture(t, 10)
	if _, err := Plan(f.p, &LogicalQuery{Limit: -1}, PlanOpts{}); err == nil {
		t.Error("empty FROM should fail")
	}
}

// parallelJoinQuery is the 2-table join used by the parallel-shape tests.
func parallelJoinQuery(t *testing.T, f *fixture) *LogicalQuery {
	sales := f.table(t, "sales")
	customers := f.table(t, "customers")
	return &LogicalQuery{
		From:      []TableRef{{Table: sales}, {Table: customers}},
		JoinConds: []JoinCond{{LeftTbl: 0, LeftCol: 1, RightTbl: 1, RightCol: 0, Type: exec.InnerJoin}},
		SelectExprs: []expr.Expr{
			expr.NewColRef(4, types.Varchar, "region"),
			expr.NewColRef(2, types.Float64, "price"),
		},
		SelectNames: []string{"region", "price"},
		// Touch sale_id so the wide sale_id-sorted projection is required:
		// its sort order cannot serve the cust join key, forcing the hash
		// join path the parallel shape applies to.
		Where: expr.MustCmp(expr.Ge, expr.NewColRef(0, types.Int64, "sale_id"), expr.NewConst(types.NewInt(0))),
		Limit: -1,
	}
}

func TestPlanParallelHashJoin(t *testing.T) {
	f := newFixture(t, 2000)
	q := parallelJoinQuery(t, f)
	rows, plan := f.run(t, q, PlanOpts{Parallelism: 4, ForceParallel: true})
	if len(rows) != 2000 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Every worker probes the one shared build; its SIP filter reaches every
	// worker scan. No exchange: the fan closes in a ParallelUnion.
	ex := plan.Explain()
	for _, want := range []string{"fan: 4 worker pipelines", "ParallelUnion ways=4",
		"HashJoin INNER outerKeys=[1] innerKeys=[0] +sip workers=4", "sip=SIP(customers_super cols=[1]) workers=4"} {
		if !strings.Contains(ex, want) {
			t.Errorf("parallel join plan missing %q:\n%s", want, ex)
		}
	}
	if strings.Contains(ex, "Recv") {
		t.Errorf("parallel join plan routes rows through an exchange:\n%s", ex)
	}
	if plan.Workers != 4 {
		t.Errorf("Workers = %d, want 4", plan.Workers)
	}
	// Differential: the parallel plan must produce exactly the serial rows.
	serial, _ := f.run(t, q, PlanOpts{})
	var sumP, sumS float64
	for _, r := range rows {
		sumP += r[1].F
	}
	for _, r := range serial {
		sumS += r[1].F
	}
	if len(serial) != len(rows) || sumP != sumS {
		t.Errorf("parallel join diverged: %d rows sum %v vs serial %d rows sum %v",
			len(rows), sumP, len(serial), sumS)
	}
	// The cardinality gate keeps tiny inputs serial without ForceParallel.
	_, gated := f.run(t, q, PlanOpts{Parallelism: 4})
	if strings.Contains(gated.Explain(), "fan") {
		t.Errorf("2000-row join should stay serial under the %d-row gate", int(MinParallelRows))
	}
}

func TestPlanParallelSort(t *testing.T) {
	f := newFixture(t, 3000)
	sales := f.table(t, "sales")
	q := &LogicalQuery{
		From: []TableRef{{Table: sales}},
		SelectExprs: []expr.Expr{
			expr.NewColRef(0, types.Int64, "sale_id"),
			expr.NewColRef(2, types.Float64, "price"),
		},
		SelectNames: []string{"sale_id", "price"},
		OrderBy:     []exec.SortSpec{{Col: 1, Desc: true}},
		Limit:       -1,
	}
	rows, plan := f.run(t, q, PlanOpts{Parallelism: 4, ForceParallel: true})
	if len(rows) != 3000 {
		t.Fatalf("rows = %d", len(rows))
	}
	for i := 1; i < len(rows); i++ {
		if rows[i-1][1].F < rows[i][1].F {
			t.Fatalf("parallel sort lost global order at row %d", i)
		}
	}
	ex := plan.Explain()
	for _, want := range []string{"fan closes at ORDER BY: 4 worker sorts", "Sort [$1 desc] workers=4",
		"Recv port=0/1 (single-port+merge)"} {
		if !strings.Contains(ex, want) {
			t.Errorf("parallel sort plan missing %q:\n%s", want, ex)
		}
	}
	_, gated := f.run(t, q, PlanOpts{Parallelism: 4})
	if strings.Contains(gated.Explain(), "fan") {
		t.Error("3000-row sort should stay serial under the cardinality gate")
	}
}

func TestPlanParallelDistinct(t *testing.T) {
	f := newFixture(t, 2000)
	sales := f.table(t, "sales")
	q := &LogicalQuery{
		From:        []TableRef{{Table: sales}},
		SelectExprs: []expr.Expr{expr.NewColRef(1, types.Int64, "cust")},
		SelectNames: []string{"cust"},
		Distinct:    true,
		Limit:       -1,
	}
	rows, plan := f.run(t, q, PlanOpts{Parallelism: 4, ForceParallel: true})
	if len(rows) != 20 {
		t.Fatalf("distinct rows = %d, want 20", len(rows))
	}
	seen := map[int64]bool{}
	for _, r := range rows {
		if seen[r[0].I] {
			t.Fatalf("duplicate %d survived parallel distinct", r[0].I)
		}
		seen[r[0].I] = true
	}
	ex := plan.Explain()
	for _, want := range []string{"fan closes at DISTINCT", "segment keys=[0]", "ParallelUnion ways=4"} {
		if !strings.Contains(ex, want) {
			t.Errorf("parallel distinct plan missing %q:\n%s", want, ex)
		}
	}
	_, gated := f.run(t, q, PlanOpts{Parallelism: 4})
	if strings.Contains(gated.Explain(), "fan") {
		t.Error("2000-row distinct should stay serial under the cardinality gate")
	}
}

// TestPlanFanClosings pins where a fan closes for the operators that have
// no exchange of their own, and where none opens — each against the serial
// plan's rows.
func TestPlanFanClosings(t *testing.T) {
	f := newFixture(t, 2000)
	sales, custs := f.table(t, "sales"), f.table(t, "customers")
	wide := expr.MustCmp(expr.Ge, expr.NewColRef(0, types.Int64, "sale_id"), expr.NewConst(types.NewInt(0)))
	cust := expr.NewColRef(1, types.Int64, "cust")
	fan := PlanOpts{Parallelism: 4, ForceParallel: true}
	for _, tc := range []struct {
		name  string
		q     *LogicalQuery
		want  []string // in the fanned plan's EXPLAIN
		noFan bool
	}{
		{name: "keyless aggregate", q: &LogicalQuery{
			From: []TableRef{{Table: sales}}, Where: wide, Limit: -1,
			Aggs: []exec.AggSpec{{Kind: exec.AggCountStar, Name: "n"}, {Kind: exec.AggSum, Arg: cust, Name: "s"}},
		}, want: []string{"GroupByPrepass keys=0", "workers=4", "fan closes at the aggregate: 4 worker prepasses, one merging GroupBy"}},
		{name: "holistic aggregate", q: &LogicalQuery{
			From: []TableRef{{Table: sales}}, Where: wide, Limit: -1,
			Aggs: []exec.AggSpec{{Kind: exec.AggCountDistinct, Arg: cust, Name: "n"}},
		}, want: []string{"fan closes at an aggregate without a prepass: ParallelUnion of 4 workers"}},
		{name: "right outer join", q: &LogicalQuery{
			From:        []TableRef{{Table: sales}, {Table: custs}},
			JoinConds:   []JoinCond{{LeftTbl: 0, LeftCol: 1, RightTbl: 1, RightCol: 0, Type: exec.RightOuterJoin}},
			Where:       wide,
			SelectExprs: []expr.Expr{expr.NewColRef(4, types.Varchar, "region"), expr.NewColRef(2, types.Float64, "price")},
			SelectNames: []string{"region", "price"}, Limit: -1,
		}, want: []string{"fan closes at RIGHT OUTER join: ParallelUnion of 4 workers", "HashJoin RIGHT OUTER outerKeys=[1] innerKeys=[0] +sip\n"}},
		{name: "merge join", q: joinQuery(f, t), noFan: true, want: []string{"MergeJoin"}},
		{name: "one-pass aggregate", q: &LogicalQuery{
			From: []TableRef{{Table: sales}}, GroupBy: []int{1}, KeyNames: []string{"cust"}, Limit: -1,
			Aggs: []exec.AggSpec{{Kind: exec.AggSum, Arg: expr.NewColRef(2, types.Float64, "price"), Name: "s"}},
		}, noFan: true, want: []string{"one-pass"}},
	} {
		rows, plan := f.run(t, tc.q, fan)
		ex := plan.Explain()
		for _, w := range tc.want {
			if !strings.Contains(ex, w) {
				t.Errorf("%s: plan missing %q:\n%s", tc.name, w, ex)
			}
		}
		if opened := strings.Contains(ex, "fan:"); opened == tc.noFan {
			t.Errorf("%s: fan opened = %v, want %v:\n%s", tc.name, opened, !tc.noFan, ex)
		}
		serial, _ := f.run(t, tc.q, PlanOpts{})
		got, want := make([]string, len(rows)), make([]string, len(serial))
		for i, r := range rows {
			got[i] = r.String()
		}
		for i, r := range serial {
			want[i] = r.String()
		}
		slices.Sort(got)
		slices.Sort(want)
		if !slices.Equal(got, want) {
			t.Errorf("%s: fanned plan returned %d rows, serial %d", tc.name, len(got), len(want))
		}
	}
}
