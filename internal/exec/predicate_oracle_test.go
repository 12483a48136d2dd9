package exec

import (
	"flag"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/encoding"
	"repro/internal/expr"
	"repro/internal/storage"
	"repro/internal/tuplemover"
	"repro/internal/txn"
	"repro/internal/types"
	"repro/internal/vector"
)

// Seeded predicate oracle: whatever way a predicate is applied — a seek on
// the sort key, the selection kernels, the Eval fallback, SelectWhere over
// an incoming selection — the rows that survive must be the rows on which
// EvalRow says TRUE, among those the snapshot sees. The reference reads the
// stored rows with their commit and delete epochs through the stored-row
// reader, not through a scan.

var (
	predSeed  = flag.Int64("pred.seed", 20120827, "seed of TestPredicateOracle (a failure prints the seed to re-run)")
	predCases = flag.Int("pred.cases", 100, "predicates TestPredicateOracle draws per storage layout")
)

// Oracle table: id identifies a row; every other column takes its turn as
// the sort key, has NULLs and has duplicates.
var predSchema = types.NewSchema(
	types.Column{Name: "id", Typ: types.Int64},
	types.Column{Name: "k", Typ: types.Int64, Nullable: true},
	types.Column{Name: "f", Typ: types.Float64, Nullable: true},
	types.Column{Name: "s", Typ: types.Varchar, Nullable: true},
	types.Column{Name: "ts", Typ: types.Timestamp, Nullable: true},
	types.Column{Name: "i", Typ: types.Int64, Nullable: true},
)

var predBase = time.Date(2012, 8, 27, 0, 0, 0, 0, time.UTC)

func predRow(rng *rand.Rand, id int) types.Row {
	null := func(v types.Value) types.Value {
		if rng.Intn(8) == 0 {
			return types.NewNull(v.Typ)
		}
		return v
	}
	return types.Row{
		types.NewInt(int64(id)),
		null(types.NewInt(int64(rng.Intn(40) - 5))),
		null(types.NewFloat(float64(rng.Intn(60)-10) / 2)),
		null(types.NewString(string(rune('a'+rng.Intn(6))) + strings.Repeat("x", rng.Intn(3)))),
		null(types.NewTimestamp(predBase.Add(time.Duration(rng.Intn(30)) * time.Hour))),
		null(types.NewInt(int64(rng.Intn(1000)))),
	}
}

// predStore is one storage layout: several containers of several small
// blocks sorted on sortCol, two of them holding rows of two commit epochs,
// deletes committed at various epochs, and a tail of rows still in the WOS.
type predStore struct {
	mgr     *storage.Manager
	sortCol int
	epochs  []types.Epoch // every commit epoch in use, ascending
	samples [][]types.Value
}

func newPredStore(t *testing.T, rng *rand.Rand, sortCol int, enc encoding.Kind) *predStore {
	t.Helper()
	mgr, err := storage.NewManager(t.TempDir(), predSchema, storage.ManagerOpts{})
	if err != nil {
		t.Fatal(err)
	}
	em := txn.NewEpochManager()
	place := storage.NewPlacement("p", predSchema, []int{sortCol},
		map[string]encoding.Kind{predSchema.Col(sortCol).Name: enc})
	place.BlockRows = 32
	tm, err := tuplemover.New(tuplemover.Config{Mgr: mgr, Epochs: em, Place: place})
	if err != nil {
		t.Fatal(err)
	}
	st := &predStore{mgr: mgr, sortCol: sortCol, samples: make([][]types.Value, predSchema.Len())}
	id := 0
	appendRows := func(n int) {
		rows := make([]types.Row, n)
		for i := range rows {
			rows[i] = predRow(rng, id)
			id++
			for c, v := range rows[i] {
				if !v.Null && rng.Intn(4) == 0 {
					st.samples[c] = append(st.samples[c], v)
				}
			}
		}
		e := em.CommitDML()
		st.epochs = append(st.epochs, e)
		if _, err := mgr.WOS().Append(rows, e); err != nil {
			t.Fatal(err)
		}
	}
	for load := 0; load < 3; load++ {
		appendRows(60 + rng.Intn(80))
		if load > 0 {
			appendRows(20 + rng.Intn(40)) // a second epoch in the same container
		}
		if _, err := tm.Moveout(); err != nil {
			t.Fatal(err)
		}
	}
	// Deletes: single rows and runs of adjacent positions, committed before,
	// between and after the insert epochs.
	for _, r := range mgr.Containers() {
		var dvs []storage.DVEntry
		for pos := int64(0); pos < r.Meta.RowCount; pos++ {
			if rng.Intn(12) == 0 {
				e := em.CommitDML()
				st.epochs = append(st.epochs, e)
				for run := int64(rng.Intn(6)); run >= 0 && pos < r.Meta.RowCount; run, pos = run-1, pos+1 {
					dvs = append(dvs, storage.DVEntry{Pos: pos, Epoch: e})
				}
			}
		}
		mgr.DVs().Add(r.Meta.ID, dvs)
	}
	appendRows(30) // stays in the WOS
	// Block boundary values of the sort column are the constants most likely
	// to catch an off-by-one bound.
	for _, r := range mgr.Containers() {
		ci := r.Meta.ColIndex(predSchema.Col(sortCol).Name)
		pidx, err := r.Pidx(ci)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range pidx {
			if !e.Min.Null {
				st.samples[sortCol] = append(st.samples[sortCol], e.Min, e.Max)
			}
		}
	}
	return st
}

// visible returns the stored rows a snapshot at epoch sees.
func (st *predStore) visible(t *testing.T, epoch types.Epoch) []types.Row {
	t.Helper()
	var out []types.Row
	err := st.mgr.ForEachStored(0, epoch, func(_ string, _ int64, r storage.StoredRow) error {
		if r.Deleted == 0 || r.Deleted > epoch {
			out = append(out, r.Row)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// predGen draws predicates over predSchema.
type predGen struct {
	rng     *rand.Rand
	samples [][]types.Value
	sortCol int
}

func (g *predGen) col(c int) *expr.ColRef {
	return expr.NewColRef(c, predSchema.Col(c).Typ, predSchema.Col(c).Name)
}

// constFor draws a constant comparable with column c: a value the data
// holds, one below or above everything, a NULL, or — for the numeric
// columns — a constant of the other numeric type.
func (g *predGen) constFor(c int) types.Value {
	typ := predSchema.Col(c).Typ
	pick := g.rng.Intn(10)
	switch {
	case pick == 0:
		return types.NewNull(typ)
	case pick == 1: // below the minimum
		switch typ {
		case types.Float64:
			return types.NewFloat(-1e9)
		case types.Varchar:
			return types.NewString("")
		case types.Timestamp:
			return types.NewTimestamp(predBase.Add(-time.Hour))
		default:
			return types.NewInt(-1 << 40)
		}
	case pick == 2: // above the maximum
		switch typ {
		case types.Float64:
			return types.NewFloat(1e9)
		case types.Varchar:
			return types.NewString("zzz")
		case types.Timestamp:
			return types.NewTimestamp(predBase.Add(1000 * time.Hour))
		default:
			return types.NewInt(1 << 40)
		}
	case pick <= 4 && typ == types.Int64:
		return types.NewFloat(float64(g.rng.Intn(40)-5) + 0.5) // 7.5 falls between two ints
	case pick <= 4 && typ == types.Float64:
		return types.NewInt(int64(g.rng.Intn(30) - 5))
	case len(g.samples[c]) == 0:
		return types.NewNull(typ)
	default:
		return g.samples[c][g.rng.Intn(len(g.samples[c]))]
	}
}

func (g *predGen) comparison() expr.Expr {
	c := 1 + g.rng.Intn(predSchema.Len()-1)
	if g.rng.Intn(2) == 0 {
		c = g.sortCol
	}
	op := expr.CmpOp(g.rng.Intn(6))
	var l, r expr.Expr = g.col(c), expr.NewConst(g.constFor(c))
	switch g.rng.Intn(12) {
	case 0: // column against column
		r = g.col(1)
		if predSchema.Col(c).Typ == types.Varchar || predSchema.Col(c).Typ == types.Timestamp {
			r = g.col(c)
		}
	case 1:
		return &expr.IsNull{Arg: g.col(c), Negate: g.rng.Intn(2) == 0}
	case 2:
		return &expr.InList{Arg: g.col(c), Vals: []types.Value{g.constFor(c), g.constFor(c)}, Negate: g.rng.Intn(2) == 0}
	case 3, 4:
		l, r = r, l // constant on the left
	}
	return expr.MustCmp(op, l, r)
}

func (g *predGen) predicate(depth int) expr.Expr {
	if depth == 0 || g.rng.Intn(3) == 0 {
		return g.comparison()
	}
	switch g.rng.Intn(5) {
	case 0:
		e, _ := expr.NewLogic(expr.Not, g.predicate(depth-1))
		return e
	case 1:
		e, _ := expr.NewLogic(expr.Or, g.predicate(depth-1), g.predicate(depth-1))
		return e
	default:
		args := []expr.Expr{g.predicate(depth - 1), g.predicate(depth - 1)}
		if g.rng.Intn(2) == 0 {
			args = append(args, g.comparison())
		}
		e, _ := expr.NewLogic(expr.And, args...)
		return e
	}
}

func renderSorted(rows []types.Row) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = r.String()
	}
	sort.Strings(out)
	return out
}

// wantRows filters rows by EvalRow: the reference.
func wantRows(t *testing.T, rows []types.Row, pred expr.Expr) []string {
	t.Helper()
	var out []types.Row
	for _, r := range rows {
		v, err := pred.EvalRow(r)
		if err != nil {
			t.Fatalf("EvalRow(%s): %v", pred, err)
		}
		if v.Bool() {
			out = append(out, r)
		}
	}
	return renderSorted(out)
}

func TestPredicateOracle(t *testing.T) {
	layouts := []struct {
		name    string
		sortCol int
		enc     encoding.Kind
	}{
		{"int-key", 1, encoding.Auto},
		{"int-key-rle", 1, encoding.RLE},
		{"float-key", 2, encoding.Auto},
		{"varchar-key", 3, encoding.Auto},
		{"timestamp-key-rle", 4, encoding.RLE},
	}
	all := make([]int, predSchema.Len())
	for i := range all {
		all[i] = i
	}
	for li, lay := range layouts {
		lay := lay
		seed := *predSeed + int64(li)
		t.Run(lay.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			st := newPredStore(t, rng, lay.sortCol, lay.enc)
			g := &predGen{rng: rng, samples: st.samples, sortCol: lay.sortCol}
			for n := 0; n < *predCases; n++ {
				pred := g.predicate(2)
				epoch := st.epochs[rng.Intn(len(st.epochs))]
				visible := st.visible(t, epoch)
				want := wantRows(t, visible, pred)
				fail := func(how string, got []string) {
					t.Helper()
					t.Fatalf("%s disagrees with EvalRow (re-run with -pred.seed=%d; layout %s, case %d, epoch %d)\n  %s\ngot  %d rows\nwant %d rows\nfirst difference: %s",
						how, *predSeed, lay.name, n, epoch, pred, len(got), len(want), firstDiff(got, want))
				}
				// The scan, four ways: seeking, keeping runs, kernels only, and
				// fanned out to two workers that claim blocks from one cursor.
				for _, mode := range []string{"seek", "seek+runs", "kernels", "fan"} {
					s := NewScan("p", st.mgr, predSchema, all)
					s.Predicate = pred
					if mode != "kernels" {
						s.SortKey = []int{lay.sortCol}
					}
					s.PreserveRuns = mode == "seek+runs"
					var op Operator = s
					if mode == "fan" {
						op = NewParallelUnion(s.Fan(2)...)
					}
					rows, err := Drain(&Ctx{Epoch: epoch, MemBudget: 1 << 20}, op)
					if err != nil {
						t.Fatalf("scan (%s) of %s: %v", mode, pred, err)
					}
					if got := renderSorted(rows); strings.Join(got, "\n") != strings.Join(want, "\n") {
						fail("scan ("+mode+")", got)
					}
				}
				// SelectWhere over an incoming selection: what Filter and the
				// WOS path run.
				batch := vector.NewBatchForSchema(predSchema, len(visible))
				var in []types.Row
				keep := []int{}
				for i, r := range visible {
					batch.AppendRow(r)
					if rng.Intn(3) > 0 {
						keep = append(keep, i)
						in = append(in, r)
					}
				}
				batch.Sel = append([]int{}, keep...)
				sel, err := expr.SelectWhere(batch, pred)
				if err != nil {
					t.Fatalf("SelectWhere(%s): %v", pred, err)
				}
				var picked []types.Row
				for _, i := range sel {
					picked = append(picked, visible[i])
				}
				if got, want := renderSorted(picked), wantRows(t, in, pred); strings.Join(got, "\n") != strings.Join(want, "\n") {
					t.Fatalf("SelectWhere over a selection disagrees with EvalRow (-pred.seed=%d; layout %s, case %d)\n  %s\ngot %d rows, want %d",
						*predSeed, lay.name, n, pred, len(got), len(want))
				}
				if fmt.Sprint(keep) != fmt.Sprint(batch.Sel) {
					t.Fatalf("SelectWhere(%s) wrote into the batch's own selection", pred)
				}
			}
		})
	}
}

func firstDiff(got, want []string) string {
	for i := 0; i < len(got) || i < len(want); i++ {
		switch {
		case i >= len(got):
			return "missing " + want[i]
		case i >= len(want):
			return "extra " + got[i]
		case got[i] != want[i]:
			return fmt.Sprintf("got %s, want %s", got[i], want[i])
		}
	}
	return "none"
}
