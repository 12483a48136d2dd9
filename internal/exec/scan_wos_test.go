package exec

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"repro/internal/expr"
	"repro/internal/storage"
	"repro/internal/tuplemover"
	"repro/internal/txn"
	"repro/internal/types"
	"repro/internal/vector"
)

// wosFixture is a projection (k INT, s VARCHAR NULL, v FLOAT) sorted on k
// whose rows are all in the WOS.
type wosFixture struct {
	mgr    *storage.Manager
	em     *txn.EpochManager
	tm     *tuplemover.TupleMover
	schema *types.Schema
}

func newWOSFixture(t testing.TB) *wosFixture {
	t.Helper()
	schema := types.NewSchema(
		types.Column{Name: "k", Typ: types.Int64},
		types.Column{Name: "s", Typ: types.Varchar, Nullable: true},
		types.Column{Name: "v", Typ: types.Float64, Nullable: true},
	)
	mgr, err := storage.NewManager(t.TempDir(), schema, storage.ManagerOpts{})
	if err != nil {
		t.Fatal(err)
	}
	em := txn.NewEpochManager()
	tm, err := tuplemover.New(tuplemover.Config{Mgr: mgr, Epochs: em, Place: storage.NewPlacement("p", schema, []int{0}, nil)})
	if err != nil {
		t.Fatal(err)
	}
	return &wosFixture{mgr: mgr, em: em, tm: tm, schema: schema}
}

// wosTestRow is row k of the fixture: s NULL every seventh row, v NULL
// every eleventh.
func wosTestRow(k int) types.Row {
	r := types.Row{types.NewInt(int64(k)), types.NewString(fmt.Sprintf("s%d", k%13)), types.NewFloat(float64(k) / 4)}
	if k%7 == 0 {
		r[1] = types.NewNull(types.Varchar)
	}
	if k%11 == 0 {
		r[2] = types.NewNull(types.Float64)
	}
	return r
}

// commit appends rows with keys [lo, hi) — in descending order, the WOS is
// not sorted — in one commit and returns its epoch and first WOS position.
func (f *wosFixture) commit(t testing.TB, lo, hi int) (types.Epoch, int64) {
	t.Helper()
	var rows []types.Row
	for k := hi - 1; k >= lo; k-- {
		rows = append(rows, wosTestRow(k))
	}
	e := f.em.CommitDML()
	pos, err := appendRows(f.mgr.WOS(), rows, e)
	if err != nil {
		t.Fatal(err)
	}
	return e, pos
}

// TestScanWOSChunks: scans over a WOS of several commits — the first chunk
// drained in part by a moveout, the rows crossing a chunk boundary, NULLs
// and strings in them, deletes on WOS positions (one listed twice, as a
// transaction that deletes a row twice leaves it) — return at a pinned older
// snapshot and at the newest what the stored rows say, serially, fanned and
// merge-sorted, under predicates on the sort key and off it.
func TestScanWOSChunks(t *testing.T) {
	f := newWOSFixture(t)
	f.commit(t, 0, 100)
	if n, err := f.tm.Moveout(); err != nil || n != 100 {
		t.Fatalf("moveout moved %d rows (%v), want 100", n, err)
	}
	var dvs []storage.DVEntry
	e1, p1 := f.commit(t, 100, 3000)
	pinned := e1
	e2, p2 := f.commit(t, 3000, 4500) // fills the first chunk, starts a second
	_, p3 := f.commit(t, 4500, 5000)
	for _, d := range []struct {
		pos   int64
		epoch types.Epoch
	}{{p1 + 5, e1}, {p1 + 6, e2}, {p1 + 6, e2}, {p2, e2}, {p2 + 1000, e2 + 5}, {p3 + 3, e2 + 5}} {
		dvs = append(dvs, storage.DVEntry{Pos: d.pos, Epoch: d.epoch})
	}
	f.mgr.DVs().Add(storage.WOSTarget, dvs)
	for range 5 {
		f.em.CommitDML()
	}
	if got := len(f.mgr.ScanView(types.MaxEpoch).WOS.Chunks); got != 2 {
		t.Fatalf("the WOS is %d chunk views, want 2", got)
	}

	k := intCol(0, "k")
	s := expr.NewColRef(1, types.Varchar, "s")
	v := fltCol(2, "v")
	preds := []expr.Expr{
		nil,
		keyBetween(2990, 4200),
		expr.MustAnd(keyBetween(50, 4400), expr.MustCmp(expr.Eq, s, expr.NewConst(types.NewString("s3")))),
		expr.MustCmp(expr.Gt, v, expr.NewConst(types.NewFloat(1100))),
		&expr.IsNull{Arg: s},
		expr.MustCmp(expr.Lt, k, intConst(-1)),
	}
	for _, snap := range []types.Epoch{pinned, f.em.ReadEpoch()} {
		visible := visibleRows(t, f.mgr, snap)
		for _, pred := range preds {
			want := renderSorted(visible)
			if pred != nil {
				want = wantRows(t, visible, pred)
			}
			plans := map[string]func() Operator{
				"serial": func() Operator {
					sc := NewScan("p", f.mgr, f.schema, []int{0, 1, 2})
					sc.Predicate, sc.SortKey = pred, []int{0}
					return sc
				},
				"fan": func() Operator {
					sc := NewScan("p", f.mgr, f.schema, []int{0, 1, 2})
					sc.Predicate, sc.SortKey = pred, []int{0}
					return NewParallelUnion(sc.Fan(3)...)
				},
				"merged": func() Operator {
					sc := NewScan("p", f.mgr, f.schema, []int{0, 1, 2})
					sc.Predicate, sc.SortKey, sc.MergeSorted = pred, []int{0}, true
					return sc
				},
			}
			for name, plan := range plans {
				rows, err := Drain(&Ctx{Epoch: snap, MemBudget: 1 << 20}, plan())
				if err != nil {
					t.Fatalf("%s scan at %d of %v: %v", name, snap, pred, err)
				}
				if name == "merged" {
					for i := 1; i < len(rows); i++ {
						if rows[i-1][0].I > rows[i][0].I {
							t.Fatalf("merged scan at %d of %v: key %d after %d", snap, pred, rows[i][0].I, rows[i-1][0].I)
						}
					}
				}
				if got := renderSorted(rows); strings.Join(got, "\n") != strings.Join(want, "\n") {
					t.Fatalf("%s scan at %d of %v: %d rows, want %d (first difference: %s)", name, snap, pred, len(got), len(want), firstDiff(got, want))
				}
			}
		}
	}
}

// TestScanWOSAllocatesNoRows: a warm scan of a WOS chunk under a range
// predicate allocates a small constant — the view headers, the compiled
// predicate, the batch — and nothing a row: a chunk of 4 096 rows costs what
// one of 1 024 does.
func TestScanWOSAllocatesNoRows(t *testing.T) {
	scanBytes := func(n int) (allocs float64, bytes uint64) {
		f := newWOSFixture(t)
		f.commit(t, 0, n)
		ctx := NewCtx(f.em.ReadEpoch())
		sc := NewScan("p", f.mgr, f.schema, []int{0, 2})
		sc.Predicate, sc.SortKey = keyBetween(int64(n/4), int64(n/2)), []int{0}
		run := func() {
			if err := sc.Open(ctx); err != nil {
				t.Fatal(err)
			}
			rows := 0
			for {
				b, err := sc.Next(ctx)
				if err != nil {
					t.Fatal(err)
				}
				if b == nil {
					break
				}
				rows += b.Len()
			}
			if err := sc.Close(ctx); err != nil {
				t.Fatal(err)
			}
			if rows != n/4 {
				t.Fatalf("%d rows, want %d", rows, n/4)
			}
		}
		run()
		allocs = testing.AllocsPerRun(20, run)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range 20 {
			run()
		}
		runtime.ReadMemStats(&after)
		return allocs, (after.TotalAlloc - before.TotalAlloc) / 20
	}
	allocs, full := scanBytes(vector.DefaultBatchSize)
	_, quarter := scanBytes(vector.DefaultBatchSize / 4)
	t.Logf("a warm scan of a %d-row WOS chunk: %.0f allocations, %d bytes (%d at a quarter of the rows)", vector.DefaultBatchSize, allocs, full, quarter)
	if allocs > 40 {
		t.Errorf("a warm WOS scan makes %.0f allocations, want a small constant", allocs)
	}
	if full > quarter+1024 {
		t.Errorf("a warm WOS scan allocates %d bytes for %d rows, %d for a quarter of them: a per-row cost", full, vector.DefaultBatchSize, quarter)
	}
}
