package exec

import (
	"fmt"
	"testing"

	"repro/internal/expr"
	"repro/internal/storage"
	"repro/internal/types"
	"repro/internal/vector"
)

func keyBetween(lo, hi int64) expr.Expr {
	return expr.MustAnd(
		expr.MustCmp(expr.Ge, intCol(0, "k"), intConst(lo)),
		cmpLt(intCol(0, "k"), intConst(hi)))
}

// TestScanViewsAreSafeToAppendTo: a sort-key range comes back as views of
// the decoded blocks every scan shares. Run hands batches to callers who may
// keep them and append to them, so a view must be capped at its own length —
// an append then reallocates instead of writing into the cached block's next
// row.
func TestScanViewsAreSafeToAppendTo(t *testing.T) {
	f := newExecFixture(t, 640, 4, 1) // 10 blocks of 64, k = 0..639
	scan := func() *Scan {
		s := f.scan(0, 1, 2)
		s.Predicate, s.SortKey = keyBetween(100, 300), []int{0} // cuts through blocks 1 and 4
		return s
	}
	render := func(batches []*vector.Batch) string { return fmt.Sprint(vector.Rows(batches)) }
	batches, err := Run(f.ctx(), scan())
	if err != nil {
		t.Fatal(err)
	}
	if n := vector.NumRows(batches); n != 200 {
		t.Fatalf("range scan returned %d rows, want 200", n)
	}
	want := render(batches)
	for bi, b := range batches {
		if b.Sel != nil {
			t.Errorf("batch %d carries a selection; a sort-key range with nothing else to filter is a view", bi)
		}
		for ci, c := range b.Cols {
			if cap(c.Ints) != len(c.Ints) || cap(c.Floats) != len(c.Floats) || cap(c.Strs) != len(c.Strs) || cap(c.Nulls) != len(c.Nulls) {
				t.Errorf("batch %d column %d: view not capped at its length (%s)", bi, ci, c)
			}
			// What a caller keeping the result may do to it.
			c.AppendFrom(c, nil)
			c.AppendValue(types.NewNull(c.Typ))
			c.AppendValue(c.ValueAt(0))
		}
	}
	again, err := Run(f.ctx(), scan())
	if err != nil {
		t.Fatal(err)
	}
	if got := render(again); got != want {
		t.Errorf("appending to a returned batch changed what the next scan reads")
	}
	all, err := Drain(f.ctx(), f.scan(0, 1, 2))
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range all {
		if r[0].I != int64(i) || r[2].F != float64(i) {
			t.Fatalf("cached block damaged at row %d: %v", i, r)
		}
	}
}

// TestScanWholeBlockPassKeepsRuns: blocks that pass a sort-key range whole
// are not searched, carry no selection and keep their run-length form when
// the scan asks for it; only the blocks a bound cuts through are flat views.
func TestScanWholeBlockPassKeepsRuns(t *testing.T) {
	f := newExecFixture(t, 640, 1, 1) // grp = 0 everywhere: one run a block
	probe := &ScanProbe{}
	SetScanProbe(probe)
	defer SetScanProbe(nil)
	s := f.scan(0, 1)
	s.Predicate, s.SortKey, s.PreserveRuns = keyBetween(64, 400), []int{0}, true
	batches, err := Run(f.ctx(), s)
	if err != nil {
		t.Fatal(err)
	}
	if n := vector.NumRows(batches); n != 336 {
		t.Fatalf("rows = %d, want 336", n)
	}
	rle := 0
	for _, b := range batches {
		if b.Sel != nil {
			t.Errorf("a whole or cut block came back with a selection")
		}
		if b.Cols[1].IsRLE() {
			rle++
		}
	}
	if rle != 5 { // blocks 1..5 pass whole; block 6 is cut at 400
		t.Errorf("%d batches kept their runs, want 5", rle)
	}
	if c := probe.KeyCompares.Load(); c == 0 || c > 16 {
		t.Errorf("key values compared = %d, want one binary search in the one cut block", c)
	}
}

// TestScanVisibilityCutsThroughDeletedRun is the regression test of the
// two-pointer visibility merge: a historical snapshot over a container with
// deletes committed before, at and after it, and a sort-key range that
// starts inside one deleted run and ends inside another.
func TestScanVisibilityCutsThroughDeletedRun(t *testing.T) {
	f := newExecFixture(t, 300, 3, 1) // one container, k = position = 0..299
	id := f.mgr.Containers()[0].Meta.ID
	del := func(lo, hi int64) types.Epoch {
		e := f.em.CommitDML()
		var dvs []storage.DVEntry
		for p := lo; p < hi; p++ {
			dvs = append(dvs, storage.DVEntry{Pos: p, Epoch: e})
		}
		f.mgr.DVs().Add(id, dvs)
		return e
	}
	del(100, 120)             // before the snapshot
	snapshot := del(200, 201) // a single row, at the snapshot
	del(120, 140)             // after the snapshot: still visible to it
	del(290, 300)
	for _, seek := range []bool{true, false} {
		s := f.scan(0, 2)
		s.Predicate = keyBetween(110, 130)
		if seek {
			s.SortKey = []int{0}
		}
		rows, err := Drain(&Ctx{Epoch: snapshot, MemBudget: 1 << 20}, s)
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != 10 || rows[0][0].I != 120 || rows[9][0].I != 129 {
			t.Errorf("seek=%v: snapshot sees %d rows of [110,130) (first %v), want 120..129", seek, len(rows), rows)
		}
		// Now: 110..129 are all deleted.
		s = f.scan(0)
		s.Predicate, s.SortKey = keyBetween(110, 131), []int{0}
		if rows, err = Drain(f.ctx(), s); err != nil || len(rows) != 0 {
			t.Errorf("seek=%v: current snapshot sees %v (err %v), want nothing", seek, rows, err)
		}
		s = f.scan(0)
		s.Predicate, s.SortKey = keyBetween(195, 205), []int{0}
		if rows, err = Drain(f.ctx(), s); err != nil || len(rows) != 9 {
			t.Errorf("seek=%v: [195,205) with 200 deleted returned %d rows (err %v), want 9", seek, len(rows), err)
		}
	}
}

// TestScanEpochStraddle: a container holding rows of two commits, read at
// the first: the epoch block is consulted only for blocks that hold a newer
// row, and the sort-key range stays a view where none does.
func TestScanEpochStraddle(t *testing.T) {
	f := newExecFixture(t, 128, 2, 1)
	first := f.em.ReadEpoch()
	var rows []types.Row
	for i := 0; i < 64; i++ { // keys 1000.. sort behind everything loaded so far
		rows = append(rows, types.Row{types.NewInt(int64(1000 + i)), types.NewInt(0), types.NewFloat(0)})
	}
	if _, err := appendRows(f.mgr.WOS(), rows, f.em.CommitDML()); err != nil {
		t.Fatal(err)
	}
	if _, err := f.tm.Moveout(); err != nil {
		t.Fatal(err)
	}
	if _, err := f.tm.Mergeout(); err != nil {
		t.Fatal(err)
	}
	if n := len(f.mgr.Containers()); n != 1 {
		t.Fatalf("mergeout left %d containers, want 1 holding both commits", n)
	}
	for _, epoch := range []types.Epoch{first, f.em.ReadEpoch()} {
		s := f.scan(0)
		s.Predicate, s.SortKey = expr.MustCmp(expr.Ge, intCol(0, "k"), intConst(100)), []int{0}
		got, err := Drain(&Ctx{Epoch: epoch, MemBudget: 1 << 20}, s)
		want := 28
		if epoch != first {
			want += 64
		}
		if err != nil || len(got) != want {
			t.Errorf("epoch %d: k >= 100 returned %d rows (err %v), want %d", epoch, len(got), err, want)
		}
	}
}

// --- keyless aggregation ----------------------------------------------------

// TestKeylessAggregate: with no GROUP BY there is one group; rows go to its
// accumulators without hashing or a table lookup, and an empty or all-NULL
// input still yields the one SQL-mandated row — serially, through a prepass
// and a merge of partials, and with two workers.
func TestKeylessAggregate(t *testing.T) {
	schema := types.NewSchema(
		types.Column{Name: "a", Typ: types.Int64, Nullable: true},
		types.Column{Name: "x", Typ: types.Float64, Nullable: true})
	a, x := intCol(0, "a"), fltCol(1, "x")
	aggs := []AggSpec{
		{Kind: AggCountStar, Name: "n"},
		{Kind: AggCount, Arg: a, Name: "na"},
		{Kind: AggSum, Arg: x, Name: "sx"},
		{Kind: AggMin, Arg: a, Name: "mn"},
	}
	nullRow := types.Row{types.NewNull(types.Int64), types.NewNull(types.Float64)}
	var many []types.Row
	for i := 1; i <= 10000; i++ { // several batches
		many = append(many, types.Row{types.NewInt(int64(i)), types.NewFloat(0.5)})
	}
	cases := []struct {
		name string
		rows []types.Row
		want string
	}{
		{"empty", nil, "(0, 0, NULL, NULL)"},
		{"nulls", []types.Row{nullRow, nullRow, nullRow}, "(3, 0, NULL, NULL)"},
		{"rows", append(many, nullRow), "(10001, 10000, 5000, 1)"},
	}
	for _, c := range cases {
		half := len(c.rows) / 2
		plans := map[string]func() Operator{
			"serial": func() Operator { return NewGroupBy(NewValues(schema, c.rows), nil, nil, aggs) },
			"prepass+merge": func() Operator {
				pre, err := NewPrepass(NewValues(schema, c.rows), nil, nil, aggs)
				if err != nil {
					t.Fatal(err)
				}
				g := NewGroupBy(pre, nil, nil, aggs)
				g.MergePartials = true
				return g
			},
			"two workers": func() Operator {
				var workers []Operator
				for _, part := range [][]types.Row{c.rows[:half], c.rows[half:]} {
					pre, err := NewPrepass(NewValues(schema, part), nil, nil, aggs)
					if err != nil {
						t.Fatal(err)
					}
					workers = append(workers, pre)
				}
				g := NewGroupBy(NewParallelUnion(workers...), nil, nil, aggs)
				g.MergePartials = true
				return g
			},
		}
		for name, plan := range plans {
			ctx := NewCtx(1)
			ctx.Parallelism = 2
			rows, err := Drain(ctx, plan())
			if err != nil {
				t.Fatalf("%s/%s: %v", c.name, name, err)
			}
			if len(rows) != 1 || rows[0].String() != c.want {
				t.Errorf("%s/%s: got %v, want one row %s", c.name, name, rows, c.want)
			}
		}
	}
}
