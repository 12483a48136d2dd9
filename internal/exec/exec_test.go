package exec

import (
	"errors"
	"sort"
	"testing"

	"repro/internal/encoding"
	"repro/internal/expr"
	"repro/internal/storage"
	"repro/internal/tuplemover"
	"repro/internal/txn"
	"repro/internal/types"
)

// --- fixtures -------------------------------------------------------------

type execFixture struct {
	mgr    *storage.Manager
	em     *txn.EpochManager
	tm     *tuplemover.TupleMover
	schema *types.Schema
}

// newExecFixture loads n rows (k = i, grp = i%groups, v = float(i)) into ROS
// via moveout, sorted by k.
func newExecFixture(t testing.TB, n, groups int, loads int) *execFixture {
	t.Helper()
	schema := types.NewSchema(
		types.Column{Name: "k", Typ: types.Int64},
		types.Column{Name: "grp", Typ: types.Int64},
		types.Column{Name: "v", Typ: types.Float64},
	)
	mgr, err := storage.NewManager(t.TempDir(), schema, storage.ManagerOpts{})
	if err != nil {
		t.Fatal(err)
	}
	em := txn.NewEpochManager()
	place := storage.NewPlacement("p", schema, []int{0}, nil)
	place.BlockRows = 64
	tm, err := tuplemover.New(tuplemover.Config{Mgr: mgr, Epochs: em, Place: place})
	if err != nil {
		t.Fatal(err)
	}
	perLoad := n / loads
	for l := 0; l < loads; l++ {
		var rows []types.Row
		for i := l * perLoad; i < (l+1)*perLoad; i++ {
			rows = append(rows, types.Row{
				types.NewInt(int64(i)),
				types.NewInt(int64(i % groups)),
				types.NewFloat(float64(i)),
			})
		}
		if _, err := mgr.WOS().Append(rows, em.CommitDML()); err != nil {
			t.Fatal(err)
		}
		if _, err := tm.Moveout(); err != nil {
			t.Fatal(err)
		}
	}
	return &execFixture{mgr: mgr, em: em, tm: tm, schema: schema}
}

func (f *execFixture) ctx() *Ctx { return NewCtx(f.em.ReadEpoch()) }

func (f *execFixture) scan(cols ...int) *Scan {
	return NewScan("p", f.mgr, f.schema, cols)
}

func intCol(i int, name string) *expr.ColRef { return expr.NewColRef(i, types.Int64, name) }
func fltCol(i int, name string) *expr.ColRef { return expr.NewColRef(i, types.Float64, name) }
func intConst(v int64) *expr.Const           { return expr.NewConst(types.NewInt(v)) }
func cmpGt(l, r expr.Expr) expr.Expr         { return expr.MustCmp(expr.Gt, l, r) }
func cmpEq(l, r expr.Expr) expr.Expr         { return expr.MustCmp(expr.Eq, l, r) }
func cmpLt(l, r expr.Expr) expr.Expr         { return expr.MustCmp(expr.Lt, l, r) }

// --- scan -----------------------------------------------------------------

func TestScanAllRows(t *testing.T) {
	f := newExecFixture(t, 300, 3, 2)
	rows, err := Drain(f.ctx(), f.scan(0, 1, 2))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 300 {
		t.Fatalf("scanned %d rows", len(rows))
	}
	sum := int64(0)
	for _, r := range rows {
		sum += r[0].I
	}
	if sum != 300*299/2 {
		t.Errorf("sum of k = %d", sum)
	}
}

func TestScanPredicate(t *testing.T) {
	f := newExecFixture(t, 300, 3, 1)
	s := f.scan(0, 2)
	s.Predicate = cmpGt(intCol(0, "k"), intConst(249))
	rows, err := Drain(f.ctx(), s)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 50 {
		t.Fatalf("filtered rows = %d, want 50", len(rows))
	}
}

func TestScanBlockPruningStat(t *testing.T) {
	f := newExecFixture(t, 640, 2, 1) // 10 blocks of 64
	ctx := f.ctx()
	s := f.scan(0)
	s.Predicate = cmpGt(intCol(0, "k"), intConst(575)) // last block only
	rows, err := Drain(ctx, s)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 64 {
		t.Fatalf("rows = %d", len(rows))
	}
	if ctx.BlocksPruned.Load() < 8 {
		t.Errorf("blocks pruned = %d, want >= 8", ctx.BlocksPruned.Load())
	}
}

func TestScanContainerLevelPruning(t *testing.T) {
	// Two loads create two containers with disjoint key ranges; a point
	// predicate must prune the non-matching container without reading it.
	f := newExecFixture(t, 600, 2, 2)
	ctx := f.ctx()
	s := f.scan(0)
	s.Predicate = cmpEq(intCol(0, "k"), intConst(10)) // in first container
	rows, err := Drain(ctx, s)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Second container has keys 300..599 across 5 blocks; all pruned.
	if ctx.BlocksPruned.Load() < 5 {
		t.Errorf("pruned = %d", ctx.BlocksPruned.Load())
	}
}

func TestScanSeesWOS(t *testing.T) {
	f := newExecFixture(t, 100, 2, 1)
	// Commit 10 extra rows into the WOS without moveout.
	var rows []types.Row
	for i := 1000; i < 1010; i++ {
		rows = append(rows, types.Row{types.NewInt(int64(i)), types.NewInt(0), types.NewFloat(0)})
	}
	f.mgr.WOS().Append(rows, f.em.CommitDML())
	got, err := Drain(f.ctx(), f.scan(0))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 110 {
		t.Fatalf("rows = %d, want 110 (ROS+WOS)", len(got))
	}
}

func TestScanEpochSnapshotIsolation(t *testing.T) {
	f := newExecFixture(t, 100, 2, 1)
	oldEpoch := f.em.ReadEpoch()
	// New rows committed after the snapshot must be invisible at oldEpoch.
	f.mgr.WOS().Append([]types.Row{{types.NewInt(9999), types.NewInt(0), types.NewFloat(0)}}, f.em.CommitDML())
	rows, err := Drain(NewCtx(oldEpoch), f.scan(0))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 100 {
		t.Fatalf("historical query saw %d rows, want 100", len(rows))
	}
	rows, err = Drain(f.ctx(), f.scan(0))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 101 {
		t.Fatalf("current query saw %d rows, want 101", len(rows))
	}
}

func TestScanEpochColumnStraddling(t *testing.T) {
	// Force one container containing two epochs, then query at the earlier
	// epoch: the scan must read the epoch column and hide the newer rows.
	f := newExecFixture(t, 10, 2, 1)
	e1 := f.em.ReadEpoch()
	var rows []types.Row
	for i := 100; i < 105; i++ {
		rows = append(rows, types.Row{types.NewInt(int64(i)), types.NewInt(0), types.NewFloat(0)})
	}
	f.mgr.WOS().Append(rows, f.em.CommitDML())
	if _, err := f.tm.Moveout(); err != nil {
		t.Fatal(err)
	}
	// Merge everything into one container spanning epochs.
	f.em.SetLGE("p", f.em.Current())
	if _, err := f.tm.Mergeout(); err != nil {
		t.Fatal(err)
	}
	if len(f.mgr.Containers()) != 1 {
		t.Fatalf("containers = %d", len(f.mgr.Containers()))
	}
	got, err := Drain(NewCtx(e1), f.scan(0))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 10 {
		t.Fatalf("query at old epoch saw %d rows, want 10", len(got))
	}
}

func TestScanHidesDeletedRows(t *testing.T) {
	f := newExecFixture(t, 100, 2, 1)
	id := f.mgr.Containers()[0].Meta.ID
	beforeDelete := f.em.ReadEpoch()
	delEpoch := f.em.CommitDML()
	f.mgr.DVs().Add(id, []storage.DVEntry{{Pos: 0, Epoch: delEpoch}, {Pos: 50, Epoch: delEpoch}})
	rows, err := Drain(f.ctx(), f.scan(0))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 98 {
		t.Fatalf("rows after delete = %d, want 98", len(rows))
	}
	// Historical query before the delete still sees them (time travel).
	rows, err = Drain(NewCtx(beforeDelete), f.scan(0))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 100 {
		t.Fatalf("historical rows = %d, want 100", len(rows))
	}
}

func TestScanMergeSortedAcrossContainers(t *testing.T) {
	f := newExecFixture(t, 300, 3, 3)
	s := f.scan(0, 1)
	s.MergeSorted = true
	s.SortKey = []int{0}
	rows, err := Drain(f.ctx(), s)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 300 {
		t.Fatalf("rows = %d", len(rows))
	}
	for i := 1; i < len(rows); i++ {
		if rows[i-1][0].I > rows[i][0].I {
			t.Fatalf("not sorted at %d", i)
		}
	}
}

// TestMergedScanHoldsABlockPerContainer is the guard on what a merged scan
// keeps in memory: over 8 containers of 10 blocks it never has more than 8
// decoded blocks that it has not passed on — one under each container's
// cursor — where it used to pivot every row of every container into rows
// before emitting the first. RowsScanned counts every row once, as before.
func TestMergedScanHoldsABlockPerContainer(t *testing.T) {
	const containers, blockRows, total = 8, 64, 8 * 640
	f := newExecFixture(t, total, 3, containers)
	peak := trackCursorBatches(t)
	s := f.scan(0, 1)
	s.MergeSorted, s.SortKey = true, []int{0}
	ctx := f.ctx()
	if err := s.Open(ctx); err != nil {
		t.Fatal(err)
	}
	emitted, last := int64(0), int64(-1)
	for {
		b, err := s.Next(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if b == nil {
			break
		}
		for _, r := range b.Rows() {
			if r[0].I <= last {
				t.Fatalf("row %d after %d: not sorted", r[0].I, last)
			}
			last = r[0].I
		}
		emitted += int64(b.Len())
		if ahead := ctx.RowsScanned.Load() - emitted; ahead > containers*blockRows {
			t.Fatalf("%d rows read ahead of the %d emitted: more than a block per container", ahead, emitted)
		}
	}
	if err := s.Close(ctx); err != nil {
		t.Fatal(err)
	}
	if emitted != total || ctx.RowsScanned.Load() != total {
		t.Fatalf("emitted %d rows, RowsScanned %d, want %d", emitted, ctx.RowsScanned.Load(), total)
	}
	if got := peak(); got != containers {
		t.Fatalf("cursors held %d blocks at once, want %d (one per container)", got, containers)
	}
}

func TestScanSIPFilter(t *testing.T) {
	f := newExecFixture(t, 200, 2, 1)
	ctx := f.ctx()
	s := f.scan(0)
	sip := NewSIPFilter([]int{0}, "j1")
	keys := map[uint64]bool{}
	for _, k := range []int64{5, 10, 15} {
		keys[types.HashRow(types.Row{types.NewInt(k)}, []int{0})] = true
	}
	sip.Publish(keys)
	s.SIPs = []*SIPFilter{sip}
	rows, err := Drain(ctx, s)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("SIP-filtered rows = %d, want 3", len(rows))
	}
	if ctx.SIPFiltered.Load() != 197 {
		t.Errorf("SIPFiltered stat = %d", ctx.SIPFiltered.Load())
	}
}

// --- project / filter / limit ----------------------------------------------

func TestProjectAndFilter(t *testing.T) {
	f := newExecFixture(t, 100, 4, 1)
	mul, _ := expr.NewArith(expr.Mul, intCol(0, "k"), intConst(2))
	p := NewProject(f.scan(0, 1), []expr.Expr{mul, intCol(1, "grp")}, []string{"k2", "grp"})
	fl := NewFilter(p, cmpEq(intCol(1, "grp"), intConst(1)))
	rows, err := Drain(f.ctx(), fl)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 25 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r[0].I%2 != 0 {
			t.Fatal("projection wrong")
		}
	}
}

func TestLimitOffset(t *testing.T) {
	f := newExecFixture(t, 100, 2, 1)
	l := NewLimit(NewSort(f.scan(0), []SortSpec{{Col: 0}}), 10, 5)
	rows, err := Drain(f.ctx(), l)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[0][0].I != 10 || rows[4][0].I != 14 {
		t.Errorf("limit window wrong: %v..%v", rows[0][0], rows[4][0])
	}
}

// --- group by ---------------------------------------------------------------

func TestGroupByHash(t *testing.T) {
	f := newExecFixture(t, 1000, 10, 1)
	g := NewGroupBy(f.scan(1, 2),
		[]expr.Expr{intCol(0, "grp")}, []string{"grp"},
		[]AggSpec{
			{Kind: AggCountStar, Name: "cnt"},
			{Kind: AggSum, Arg: fltCol(1, "v"), Name: "sv"},
			{Kind: AggAvg, Arg: fltCol(1, "v"), Name: "av"},
			{Kind: AggMin, Arg: fltCol(1, "v"), Name: "mn"},
			{Kind: AggMax, Arg: fltCol(1, "v"), Name: "mx"},
		})
	rows, err := Drain(f.ctx(), g)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 10 {
		t.Fatalf("groups = %d", len(rows))
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i][0].I < rows[j][0].I })
	// Group 0 holds v = 0, 10, ..., 990.
	r0 := rows[0]
	if r0[1].I != 100 {
		t.Errorf("count = %v", r0[1])
	}
	if r0[2].F != 49500 {
		t.Errorf("sum = %v", r0[2])
	}
	if r0[3].F != 495 {
		t.Errorf("avg = %v", r0[3])
	}
	if r0[4].F != 0 || r0[5].F != 990 {
		t.Errorf("min/max = %v/%v", r0[4], r0[5])
	}
}

func TestGroupByHashSpill(t *testing.T) {
	f := newExecFixture(t, 2000, 500, 1)
	ctx := f.ctx()
	ctx.MemBudget = 8 << 10 // force spills
	ctx.TempDir = t.TempDir()
	g := NewGroupBy(f.scan(1, 2),
		[]expr.Expr{intCol(0, "grp")}, []string{"grp"},
		[]AggSpec{
			{Kind: AggCountStar, Name: "cnt"},
			{Kind: AggAvg, Arg: fltCol(1, "v"), Name: "av"},
		})
	rows, err := Drain(ctx, g)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 500 {
		t.Fatalf("groups = %d, want 500", len(rows))
	}
	if ctx.Spills.Load() == 0 {
		t.Error("expected spills under a tiny budget")
	}
	for _, r := range rows {
		if r[1].I != 4 {
			t.Fatalf("group %v count = %v, want 4", r[0], r[1])
		}
	}
}

func TestGroupByOnePassSorted(t *testing.T) {
	f := newExecFixture(t, 300, 3, 2)
	s := f.scan(0, 2)
	s.MergeSorted = true
	s.SortKey = []int{0}
	g := NewGroupBy(s, []expr.Expr{intCol(0, "k")}, []string{"k"},
		[]AggSpec{{Kind: AggCountStar, Name: "c"}})
	g.InputSorted = true
	rows, err := Drain(f.ctx(), g)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 300 {
		t.Fatalf("groups = %d", len(rows))
	}
	// One-pass emits groups in key order.
	for i := 1; i < len(rows); i++ {
		if rows[i-1][0].I > rows[i][0].I {
			t.Fatal("one-pass output not ordered")
		}
	}
}

func TestGroupByCountDistinct(t *testing.T) {
	f := newExecFixture(t, 400, 4, 1)
	g := NewGroupBy(f.scan(1, 0),
		[]expr.Expr{intCol(0, "grp")}, []string{"grp"},
		[]AggSpec{{Kind: AggCountDistinct, Arg: intCol(1, "k"), Name: "dk"}})
	rows, err := Drain(f.ctx(), g)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("groups = %d", len(rows))
	}
	for _, r := range rows {
		if r[1].I != 100 {
			t.Errorf("distinct count = %v, want 100", r[1])
		}
	}
}

func TestGroupByEmptyInput(t *testing.T) {
	f := newExecFixture(t, 100, 2, 1)
	s := f.scan(1, 2)
	s.Predicate = cmpGt(intCol(0, "grp"), intConst(100)) // nothing passes
	g := NewGroupBy(s, []expr.Expr{intCol(0, "grp")}, nil,
		[]AggSpec{{Kind: AggCountStar}})
	rows, err := Drain(f.ctx(), g)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 0 {
		t.Fatalf("rows = %d", len(rows))
	}
}

// --- prepass ----------------------------------------------------------------

func TestPrepassPlusFinalGroupBy(t *testing.T) {
	f := newExecFixture(t, 1000, 5, 2)
	pre, err := NewPrepass(f.scan(1, 2),
		[]expr.Expr{intCol(0, "grp")}, []string{"grp"},
		[]AggSpec{
			{Kind: AggCountStar, Name: "cnt"},
			{Kind: AggAvg, Arg: fltCol(1, "v"), Name: "av"},
		})
	if err != nil {
		t.Fatal(err)
	}
	final := NewGroupBy(pre, []expr.Expr{intCol(0, "grp")}, []string{"grp"},
		[]AggSpec{
			{Kind: AggCountStar, Name: "cnt"},
			{Kind: AggAvg, Arg: nil, Name: "av"},
		})
	final.MergePartials = true
	rows, err := Drain(f.ctx(), final)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("groups = %d", len(rows))
	}
	for _, r := range rows {
		if r[1].I != 200 {
			t.Errorf("group %v count = %v, want 200", r[0], r[1])
		}
	}
}

func TestPrepassBypassOnHighCardinality(t *testing.T) {
	// Group key = unique k: the prepass cannot reduce rows and must bypass
	// once it has seen MaxGroups*4 rows without reduction.
	const n = DefaultPrepassGroups*4 + 8192
	f := newExecFixture(t, n, 2, 1)
	ctx := f.ctx()
	pre, err := NewPrepass(f.scan(0),
		[]expr.Expr{intCol(0, "k")}, []string{"k"},
		[]AggSpec{{Kind: AggCountStar, Name: "c"}})
	if err != nil {
		t.Fatal(err)
	}
	final := NewGroupBy(pre, []expr.Expr{intCol(0, "k")}, []string{"k"},
		[]AggSpec{{Kind: AggCountStar, Name: "c"}})
	final.MergePartials = true
	rows, err := Drain(ctx, final)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != n {
		t.Fatalf("groups = %d", len(rows))
	}
	if !ctx.PrepassBypassed.Load() {
		t.Error("prepass should have bypassed on unique keys")
	}
}

// --- joins -------------------------------------------------------------------

func dimValues() *Values {
	schema := types.NewSchema(
		types.Column{Name: "id", Typ: types.Int64},
		types.Column{Name: "name", Typ: types.Varchar},
	)
	return NewValues(schema, []types.Row{
		{types.NewInt(0), types.NewString("zero")},
		{types.NewInt(1), types.NewString("one")},
		{types.NewInt(2), types.NewString("two")},
	})
}

func TestHashJoinInner(t *testing.T) {
	f := newExecFixture(t, 100, 5, 1) // grp in 0..4; dim has 0..2
	j, err := NewHashJoin(InnerJoin, f.scan(0, 1), dimValues(), []int{1}, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	rows, err := Drain(f.ctx(), j)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 60 {
		t.Fatalf("inner join rows = %d, want 60", len(rows))
	}
	for _, r := range rows {
		if r[1].I != r[2].I {
			t.Fatal("join key mismatch in output")
		}
	}
}

func TestHashJoinLeftOuter(t *testing.T) {
	f := newExecFixture(t, 100, 5, 1)
	j, _ := NewHashJoin(LeftOuterJoin, f.scan(0, 1), dimValues(), []int{1}, []int{0})
	rows, err := Drain(f.ctx(), j)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 100 {
		t.Fatalf("left join rows = %d, want 100", len(rows))
	}
	nulls := 0
	for _, r := range rows {
		if r[3].Null {
			nulls++
		}
	}
	if nulls != 40 {
		t.Errorf("null-padded rows = %d, want 40", nulls)
	}
}

func TestHashJoinRightAndFullOuter(t *testing.T) {
	// Outer side only has grp 0..1; dim has 0..2, so id=2 is unmatched.
	f := newExecFixture(t, 100, 2, 1)
	j, _ := NewHashJoin(RightOuterJoin, f.scan(0, 1), dimValues(), []int{1}, []int{0})
	rows, err := Drain(f.ctx(), j)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 101 {
		t.Fatalf("right join rows = %d, want 101", len(rows))
	}
	padded := 0
	for _, r := range rows {
		if r[0].Null {
			padded++
			if r[3].S != "two" {
				t.Errorf("unexpected unmatched inner %v", r)
			}
		}
	}
	if padded != 1 {
		t.Errorf("padded inner rows = %d", padded)
	}
	jf, _ := NewHashJoin(FullOuterJoin, f.scan(0, 1), dimValues(), []int{1}, []int{0})
	rows, err = Drain(f.ctx(), jf)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 101 { // all outers match (grp 0,1), plus inner id=2
		t.Fatalf("full join rows = %d", len(rows))
	}
}

func TestHashJoinSemiAnti(t *testing.T) {
	f := newExecFixture(t, 100, 5, 1)
	semi, _ := NewHashJoin(SemiJoin, f.scan(0, 1), dimValues(), []int{1}, []int{0})
	rows, err := Drain(f.ctx(), semi)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 60 {
		t.Fatalf("semi rows = %d, want 60", len(rows))
	}
	if len(rows[0]) != 2 {
		t.Error("semi join must not include inner columns")
	}
	anti, _ := NewHashJoin(AntiJoin, f.scan(0, 1), dimValues(), []int{1}, []int{0})
	rows, err = Drain(f.ctx(), anti)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 40 {
		t.Fatalf("anti rows = %d, want 40", len(rows))
	}
}

func TestHashJoinResidualPredicate(t *testing.T) {
	f := newExecFixture(t, 100, 3, 1)
	j, _ := NewHashJoin(InnerJoin, f.scan(0, 1), dimValues(), []int{1}, []int{0})
	// Residual: k < 10 (column 0 of combined row).
	j.Residual = cmpLt(intCol(0, "k"), intConst(10))
	rows, err := Drain(f.ctx(), j)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 10 {
		t.Fatalf("rows = %d, want 10", len(rows))
	}
}

func TestHashJoinSwitchesToSortMerge(t *testing.T) {
	// A tiny budget forces the runtime switch to sort-merge.
	f := newExecFixture(t, 2000, 5, 1)
	ctx := f.ctx()
	ctx.MemBudget = 2 << 10
	ctx.TempDir = t.TempDir()
	big := f.scan(0, 1)
	j, _ := NewHashJoin(InnerJoin, f.scan(0, 1), big, []int{0}, []int{0})
	rows, err := Drain(ctx, j)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2000 {
		t.Fatalf("self-join rows = %d, want 2000", len(rows))
	}
	if !j.spilled {
		t.Error("join should have switched to sort-merge")
	}
	if ctx.Spills.Load() == 0 {
		t.Error("spill counter untouched")
	}
}

// TestOuterHashJoinCannotSwitch pins what a RIGHT or FULL OUTER hash join
// does when its build side outgrows a budget of a few KiB. The merge-join
// walk the other flavors switch to pads unmatched outer rows and never
// emits an unmatched build row, so the switched join answered like a LEFT
// join: 3 rows where the unbounded join returns 2000. It fails with
// ErrOuterJoinTooLarge instead.
func TestOuterHashJoinCannotSwitch(t *testing.T) {
	f := newExecFixture(t, 2000, 5, 1)
	for _, typ := range []JoinType{RightOuterJoin, FullOuterJoin} {
		run := func(budget int64) ([]types.Row, error) {
			ctx := f.ctx()
			ctx.MemBudget = budget
			ctx.TempDir = t.TempDir()
			// dim ids 0..2 probe a build of the 2000 keys k.
			j, err := NewHashJoin(typ, dimValues(), f.scan(0, 1), []int{0}, []int{0})
			if err != nil {
				t.Fatal(err)
			}
			return Drain(ctx, j)
		}
		want, err := run(64 << 20)
		if err != nil || len(want) != 2000 {
			t.Fatalf("%s join, unbounded: %d rows, err %v", typ, len(want), err)
		}
		got, err := run(4 << 10)
		if err == nil {
			t.Errorf("%s join at 4 KiB returned %d rows and no error; unbounded it returns %d (first difference: %s)",
				typ, len(got), len(want), firstDiff(renderSorted(got), renderSorted(want)))
			continue
		}
		if !errors.Is(err, ErrOuterJoinTooLarge) {
			t.Errorf("%s join at 4 KiB: err = %v, want ErrOuterJoinTooLarge", typ, err)
		}
	}
}

func TestHashJoinPublishesSIP(t *testing.T) {
	f := newExecFixture(t, 200, 10, 1)
	ctx := f.ctx()
	probe := f.scan(0, 1)
	sip := NewSIPFilter([]int{1}, "dim")
	probe.SIPs = []*SIPFilter{sip}
	j, _ := NewHashJoin(InnerJoin, probe, dimValues(), []int{1}, []int{0})
	j.SIP = sip
	rows, err := Drain(ctx, j)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 60 {
		t.Fatalf("rows = %d, want 60", len(rows))
	}
	if ctx.SIPFiltered.Load() != 140 {
		t.Errorf("SIP filtered %d rows at the scan, want 140", ctx.SIPFiltered.Load())
	}
}

func TestMergeJoin(t *testing.T) {
	f := newExecFixture(t, 100, 5, 2)
	outer := f.scan(0, 1)
	outer.MergeSorted = true
	outer.SortKey = []int{0}
	innerRows := []types.Row{}
	for i := 0; i < 100; i += 2 {
		innerRows = append(innerRows, types.Row{types.NewInt(int64(i)), types.NewString("x")})
	}
	inner := NewValues(types.NewSchema(
		types.Column{Name: "id", Typ: types.Int64},
		types.Column{Name: "tag", Typ: types.Varchar},
	), innerRows)
	j, err := NewMergeJoin(InnerJoin, outer, inner, []int{0}, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	rows, err := Drain(f.ctx(), j)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 50 {
		t.Fatalf("merge join rows = %d, want 50", len(rows))
	}
	j2, _ := NewMergeJoin(AntiJoin, outer, inner, []int{0}, []int{0})
	rows, err = Drain(f.ctx(), j2)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 50 {
		t.Fatalf("merge anti join rows = %d, want 50", len(rows))
	}
	if _, err := NewMergeJoin(FullOuterJoin, outer, inner, []int{0}, []int{0}); err == nil {
		t.Error("merge join should reject FULL OUTER")
	}
}

func TestJoinNullKeysNeverMatch(t *testing.T) {
	schema := types.NewSchema(types.Column{Name: "id", Typ: types.Int64, Nullable: true})
	left := NewValues(schema, []types.Row{{types.NewInt(1)}, {types.NewNull(types.Int64)}})
	right := NewValues(schema, []types.Row{{types.NewInt(1)}, {types.NewNull(types.Int64)}})
	j, _ := NewHashJoin(InnerJoin, left, right, []int{0}, []int{0})
	rows, err := Drain(NewCtx(1), j)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("NULL keys matched: rows = %d", len(rows))
	}
}

// --- sort --------------------------------------------------------------------

func TestSortInMemory(t *testing.T) {
	f := newExecFixture(t, 500, 5, 1)
	s := NewSort(f.scan(1, 0), []SortSpec{{Col: 0}, {Col: 1, Desc: true}})
	rows, err := Drain(f.ctx(), s)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 500 {
		t.Fatalf("rows = %d", len(rows))
	}
	for i := 1; i < len(rows); i++ {
		if rows[i-1][0].I > rows[i][0].I {
			t.Fatal("primary sort wrong")
		}
		if rows[i-1][0].I == rows[i][0].I && rows[i-1][1].I < rows[i][1].I {
			t.Fatal("descending secondary sort wrong")
		}
	}
}

func TestSortExternal(t *testing.T) {
	f := newExecFixture(t, 3000, 5, 1)
	ctx := f.ctx()
	ctx.MemBudget = 4 << 10
	ctx.TempDir = t.TempDir()
	s := NewSort(f.scan(0), []SortSpec{{Col: 0, Desc: true}})
	rows, err := Drain(ctx, s)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3000 {
		t.Fatalf("rows = %d", len(rows))
	}
	for i := 1; i < len(rows); i++ {
		if rows[i-1][0].I < rows[i][0].I {
			t.Fatal("descending sort wrong")
		}
	}
	if ctx.Spills.Load() == 0 {
		t.Error("expected external sort to spill")
	}
}

// --- analytic ------------------------------------------------------------------

func TestAnalyticRowNumberRank(t *testing.T) {
	f := newExecFixture(t, 100, 4, 1)
	a, err := NewAnalytic(f.scan(1, 2), []AnalyticSpec{
		{Kind: AnRowNumber, ArgCol: -1, PartitionCols: []int{0}, OrderBy: []SortSpec{{Col: 1}}, Name: "rn"},
		{Kind: AnRank, ArgCol: -1, PartitionCols: []int{0}, OrderBy: []SortSpec{{Col: 1}}, Name: "rk"},
	})
	if err != nil {
		t.Fatal(err)
	}
	rows, err := Drain(f.ctx(), a)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 100 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Every partition has 25 rows; max row_number must be 25.
	maxRN := int64(0)
	for _, r := range rows {
		if r[2].I > maxRN {
			maxRN = r[2].I
		}
	}
	if maxRN != 25 {
		t.Errorf("max row_number = %d, want 25", maxRN)
	}
}

func TestAnalyticRunningSum(t *testing.T) {
	schema := types.NewSchema(
		types.Column{Name: "g", Typ: types.Int64},
		types.Column{Name: "x", Typ: types.Int64},
	)
	src := NewValues(schema, []types.Row{
		{types.NewInt(1), types.NewInt(10)},
		{types.NewInt(1), types.NewInt(20)},
		{types.NewInt(1), types.NewInt(30)},
		{types.NewInt(2), types.NewInt(5)},
	})
	a, _ := NewAnalytic(src, []AnalyticSpec{
		{Kind: AnSum, ArgCol: 1, PartitionCols: []int{0}, OrderBy: []SortSpec{{Col: 1}}, Name: "rsum"},
	})
	rows, err := Drain(NewCtx(1), a)
	if err != nil {
		t.Fatal(err)
	}
	want := map[int64]int64{10: 10, 20: 30, 30: 60, 5: 5}
	for _, r := range rows {
		if r[2].I != want[r[1].I] {
			t.Errorf("running sum at x=%d: %d, want %d", r[1].I, r[2].I, want[r[1].I])
		}
	}
}

func TestAnalyticWholePartitionAndLag(t *testing.T) {
	schema := types.NewSchema(
		types.Column{Name: "g", Typ: types.Int64},
		types.Column{Name: "x", Typ: types.Int64},
	)
	src := NewValues(schema, []types.Row{
		{types.NewInt(1), types.NewInt(10)},
		{types.NewInt(1), types.NewInt(20)},
		{types.NewInt(2), types.NewInt(7)},
	})
	a, _ := NewAnalytic(src, []AnalyticSpec{
		{Kind: AnAvg, ArgCol: 1, PartitionCols: []int{0}, Name: "pavg"},
		{Kind: AnLag, ArgCol: 1, PartitionCols: []int{0}, OrderBy: []SortSpec{{Col: 1}}, Name: "prev"},
	})
	rows, err := Drain(NewCtx(1), a)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		switch r[0].I {
		case 1:
			if r[2].F != 15 {
				t.Errorf("partition avg = %v", r[2])
			}
		case 2:
			if r[2].F != 7 {
				t.Errorf("partition avg = %v", r[2])
			}
			if !r[3].Null {
				t.Error("first row LAG should be NULL")
			}
		}
	}
}

// --- exchange / unions ------------------------------------------------------

func TestExchangeSegmentRouting(t *testing.T) {
	checkGoroutines(t)
	f := newExecFixture(t, 300, 3, 1)
	ex := NewExchange([]Operator{f.scan(0, 1)}, 3, []int{1})
	ports := ex.Ports()
	// Each port aggregates its own share; alike grp values land together.
	var unions []Operator
	for _, p := range ports {
		g := NewGroupBy(p, []expr.Expr{intCol(1, "grp")}, []string{"grp"},
			[]AggSpec{{Kind: AggCountStar, Name: "c"}})
		unions = append(unions, g)
	}
	u := NewParallelUnion(unions...)
	rows, err := Drain(f.ctx(), u)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("groups = %d, want 3 (no split groups across ports)", len(rows))
	}
	total := int64(0)
	for _, r := range rows {
		total += r[1].I
	}
	if total != 300 {
		t.Errorf("total count = %d", total)
	}
}

func TestExchangePreservesSortedness(t *testing.T) {
	checkGoroutines(t)
	f := newExecFixture(t, 200, 2, 2)
	s := f.scan(0)
	s.MergeSorted = true
	s.SortKey = []int{0}
	ex := NewMergeExchange([]Operator{s}, []SortSpec{{Col: 0}})
	rows, err := Drain(f.ctx(), ex.Ports()[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 200 {
		t.Fatalf("rows = %d", len(rows))
	}
	for i := 1; i < len(rows); i++ {
		if rows[i-1][0].I > rows[i][0].I {
			t.Fatal("exchange lost sortedness")
		}
	}
}

func TestDescribePlanTree(t *testing.T) {
	f := newExecFixture(t, 10, 2, 1)
	g := NewGroupBy(f.scan(0, 1), []expr.Expr{intCol(1, "grp")}, nil,
		[]AggSpec{{Kind: AggCountStar}})
	out := Describe(g)
	if out == "" || len(out) < 20 {
		t.Errorf("Describe output too short: %q", out)
	}
}

// --- RLE-direct aggregation ---------------------------------------------------

func TestGroupByRLEDirect(t *testing.T) {
	// A projection sorted by a low-cardinality column stores it RLE; the
	// one-pass COUNT(*) GROUP BY should aggregate runs without expanding.
	schema := types.NewSchema(
		types.Column{Name: "metric", Typ: types.Varchar},
		types.Column{Name: "v", Typ: types.Float64},
	)
	mgr, err := storage.NewManager(t.TempDir(), schema, storage.ManagerOpts{})
	if err != nil {
		t.Fatal(err)
	}
	em := txn.NewEpochManager()
	tm, _ := tuplemover.New(tuplemover.Config{
		Mgr: mgr, Epochs: em,
		Place: storage.NewPlacement("pm", schema, []int{0}, map[string]encoding.Kind{"metric": encoding.RLE}),
	})
	var rows []types.Row
	for i := 0; i < 3000; i++ {
		rows = append(rows, types.Row{
			types.NewString([]string{"cpu", "disk", "mem"}[i%3]),
			types.NewFloat(float64(i)),
		})
	}
	mgr.WOS().Append(rows, em.CommitDML())
	if _, err := tm.Moveout(); err != nil {
		t.Fatal(err)
	}
	s := NewScan("pm", mgr, schema, []int{0})
	s.PreserveRuns = true
	g := NewGroupBy(s, []expr.Expr{expr.NewColRef(0, types.Varchar, "metric")}, []string{"metric"},
		[]AggSpec{{Kind: AggCountStar, Name: "c"}})
	g.InputSorted = true
	got, err := Drain(NewCtx(em.ReadEpoch()), g)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("groups = %d", len(got))
	}
	for _, r := range got {
		if r[1].I != 1000 {
			t.Errorf("group %v = %v, want 1000", r[0], r[1])
		}
	}
}

// --- batch plumbing edge cases -----------------------------------------------

func TestDrainEmptyScan(t *testing.T) {
	schema := types.NewSchema(types.Column{Name: "k", Typ: types.Int64})
	mgr, _ := storage.NewManager(t.TempDir(), schema, storage.ManagerOpts{})
	s := NewScan("empty", mgr, schema, []int{0})
	rows, err := Drain(NewCtx(1), s)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 0 {
		t.Errorf("rows = %d", len(rows))
	}
}

// TestSemiAntiResidualDuplicateKeys pins the chunked early-exit residual
// path: a semi/anti join over a build side with thousands of duplicates of
// one key must emit exactly one decision per outer row, for residuals that
// pass and residuals that never pass.
func TestSemiAntiResidualDuplicateKeys(t *testing.T) {
	schema := types.NewSchema(
		types.Column{Name: "k", Typ: types.Int64},
		types.Column{Name: "v", Typ: types.Int64},
	)
	dup := make([]types.Row, 3000)
	for i := range dup {
		dup[i] = types.Row{types.NewInt(7), types.NewInt(int64(i))}
	}
	outerRows := []types.Row{
		{types.NewInt(7), types.NewInt(100)},
		{types.NewInt(8), types.NewInt(200)},
	}
	run := func(jt JoinType, passing bool) []types.Row {
		j, err := NewHashJoin(jt, NewValues(schema, outerRows), NewValues(schema, dup), []int{0}, []int{0})
		if err != nil {
			t.Fatal(err)
		}
		// Residual over the combined schema [outer k v, inner k v]: inner v
		// >= 0 always passes; inner v < 0 never does.
		op := expr.Ge
		if !passing {
			op = expr.Lt
		}
		j.Residual = expr.MustCmp(op, expr.NewColRef(3, types.Int64, "iv"), expr.NewConst(types.NewInt(0)))
		rows, err := Drain(NewCtx(1), j)
		if err != nil {
			t.Fatal(err)
		}
		return rows
	}
	if got := run(SemiJoin, true); len(got) != 1 || got[0][0].I != 7 {
		t.Errorf("semi passing: %v", got)
	}
	if got := run(SemiJoin, false); len(got) != 0 {
		t.Errorf("semi failing: %v", got)
	}
	if got := run(AntiJoin, true); len(got) != 1 || got[0][0].I != 8 {
		t.Errorf("anti passing: %v", got)
	}
	if got := run(AntiJoin, false); len(got) != 2 {
		t.Errorf("anti failing: %v", got)
	}
}
