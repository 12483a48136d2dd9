package exec

import (
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"sort"
	"testing"
	"time"

	"repro/internal/expr"
	"repro/internal/storage"
	"repro/internal/tuplemover"
	"repro/internal/txn"
	"repro/internal/types"
	"repro/internal/vector"
)

// Sorted-stream differential oracle: every customer of the sorted-stream
// spine (sorted.go) — Sort, Analytic, HashJoin forced to switch, MergeJoin,
// spilling GroupBy with and without MergePartials, the merge Exchange, the
// merged Scan — is driven over random schemas, sort specs and input shapes
// at three budgets (ample; forcing at least two runs; forcing a run per
// batch) and compared row for row, order included, with the naive
// references below: sort.SliceStable over []types.Row with Value.Compare, a
// nested-loop join, a map group-by. Spilled, in-memory and reference answers
// must be one answer.

var (
	sortedSeed  = flag.Int64("sorted.seed", 20120827, "seed of TestSortedStreamOracle (a failure prints the seed to re-run)")
	sortedCases = flag.Int("sorted.cases", 40, "cases TestSortedStreamOracle draws")
)

// --- the references ----------------------------------------------------------

func refCompare(a, b types.Row, specs []SortSpec) int {
	for _, s := range specs {
		if c := a[s.Col].Compare(b[s.Col]); c != 0 {
			if s.Desc {
				return -c
			}
			return c
		}
	}
	return 0
}

func refSort(rows []types.Row, specs []SortSpec) []types.Row {
	out := append([]types.Row{}, rows...)
	sort.SliceStable(out, func(i, j int) bool { return refCompare(out[i], out[j], specs) < 0 })
	return out
}

// refOrderedJoin is the nested-loop join in the order a merge join emits:
// outer rows by key (arrival order within a key), each followed by its
// matches in the inner side's key-then-arrival order. The residual, when
// set, is outer.id < inner.id.
func refOrderedJoin(typ JoinType, outer, inner []types.Row, keys []int, residual bool) []types.Row {
	var out []types.Row
	inner = refSort(inner, keySpecs(keys))
	for _, or := range refSort(outer, keySpecs(keys)) {
		matched := false
		for _, ir := range inner {
			if hasNullKey(or, keys) || hasNullKey(ir, keys) || compareJoinKeys(ir, or, keys, keys) != 0 {
				continue
			}
			if residual && or[0].I >= ir[0].I {
				continue
			}
			matched = true
			if typ == InnerJoin || typ == LeftOuterJoin {
				out = append(out, append(or.Clone(), ir...))
			}
		}
		switch {
		case typ == SemiJoin && matched, typ == AntiJoin && !matched:
			out = append(out, or)
		case typ == LeftOuterJoin && !matched:
			pad := or.Clone()
			for range or {
				pad = append(pad, types.NewNull(types.Int64))
			}
			out = append(out, pad)
		}
	}
	return out
}

// refGroupBy is the map group-by for sortedAggs, groups in key order.
func refGroupBy(rows []types.Row, keys []int, cntCol int) []types.Row {
	type state struct {
		key          types.Row
		n, nc, sum   int64
		minID, maxID int64
	}
	groups := map[string]*state{}
	var all []*state
	for _, r := range rows {
		key := make(types.Row, len(keys))
		for i, k := range keys {
			key[i] = r[k]
		}
		s := groups[key.String()]
		if s == nil {
			s = &state{key: key, minID: r[0].I, maxID: r[0].I}
			groups[key.String()] = s
			all = append(all, s)
		}
		s.n++
		if !r[cntCol].Null {
			s.nc++
		}
		s.sum += r[0].I
		s.minID, s.maxID = min(s.minID, r[0].I), max(s.maxID, r[0].I)
	}
	byKey := make([]SortSpec, len(keys))
	for i := range byKey {
		byKey[i] = SortSpec{Col: i}
	}
	sort.SliceStable(all, func(i, j int) bool { return refCompare(all[i].key, all[j].key, byKey) < 0 })
	var out []types.Row
	for _, s := range all {
		out = append(out, append(s.key, types.NewInt(s.n), types.NewInt(s.nc), types.NewInt(s.sum),
			types.NewInt(s.minID), types.NewInt(s.maxID), types.NewFloat(float64(s.sum)/float64(s.n))))
	}
	return out
}

func sortedAggs(cntCol int, cntTyp types.Type) []AggSpec {
	id := intCol(0, "id")
	return []AggSpec{
		{Kind: AggCountStar, Name: "n"},
		{Kind: AggCount, Arg: expr.NewColRef(cntCol, cntTyp, "c"), Name: "nc"},
		{Kind: AggSum, Arg: id, Name: "s"},
		{Kind: AggMin, Arg: id, Name: "mn"},
		{Kind: AggMax, Arg: id, Name: "mx"},
		{Kind: AggAvg, Arg: id, Name: "av"},
	}
}

// refAnalytic sorts by (partition, order) and computes every function of
// sortedAnalytics partition by partition with the plainest loops there are.
func refAnalytic(rows []types.Row, part []int, order []SortSpec, cntCol int) []types.Row {
	sorted := refSort(rows, append(keySpecs(part), order...))
	var out []types.Row
	for lo := 0; lo < len(sorted); {
		hi := lo
		for hi < len(sorted) && refCompare(sorted[lo], sorted[hi], keySpecs(part)) == 0 {
			hi++
		}
		p := sorted[lo:hi]
		rank, dense := 1, 1
		for i, r := range p {
			if i > 0 && refCompare(p[i-1], r, order) != 0 {
				rank, dense = i+1, dense+1
			}
			// The frame of a running aggregate ends with the row's last peer.
			end := i
			for end+1 < len(p) && refCompare(r, p[end+1], order) == 0 {
				end++
			}
			var sum, cnt int64
			minID := p[0][0].I
			for _, f := range p[:end+1] {
				sum += f[0].I
				minID = min(minID, f[0].I)
				if !f[cntCol].Null {
					cnt++
				}
			}
			lag, lead := types.NewNull(types.Int64), types.NewNull(types.Int64)
			if i >= 1 {
				lag = p[i-1][0]
			}
			if i+2 < len(p) {
				lead = p[i+2][0]
			}
			out = append(out, append(r.Clone(), types.NewInt(int64(i+1)), types.NewInt(int64(rank)),
				types.NewInt(int64(dense)), types.NewInt(sum), types.NewInt(cnt), types.NewInt(minID),
				types.NewFloat(float64(sum)/float64(end+1)), lag, lead))
		}
		lo = hi
	}
	return out
}

func sortedAnalytics(part []int, order []SortSpec, cntCol int) []AnalyticSpec {
	kinds := []struct {
		kind     AnalyticKind
		arg, off int
	}{
		{AnRowNumber, -1, 0}, {AnRank, -1, 0}, {AnDenseRank, -1, 0}, {AnSum, 0, 0}, {AnCount, cntCol, 0},
		{AnMin, 0, 0}, {AnAvg, 0, 0}, {AnLag, 0, 0}, {AnLead, 0, 2},
	}
	specs := make([]AnalyticSpec, len(kinds))
	for i, k := range kinds {
		specs[i] = AnalyticSpec{Kind: k.kind, ArgCol: k.arg, PartitionCols: part, OrderBy: order, Offset: k.off}
	}
	return specs
}

// --- the cases ---------------------------------------------------------------

// sortedCase is one drawn input: column 0 is id, the arrival number of the
// row (so a tie broken the wrong way shows), the others are nullable,
// low-cardinality columns of random types.
type sortedCase struct {
	schema     *types.Schema
	rows, more []types.Row // more: a second input for joins, ids continuing
	specs      []SortSpec
	shape      batchShape
	per        int // rows per input batch
}

var sortedBase = time.Date(2012, 8, 27, 0, 0, 0, 0, time.UTC)

func sortedValue(rng *rand.Rand, typ types.Type) types.Value {
	if rng.Intn(6) == 0 {
		return types.NewNull(typ)
	}
	switch typ {
	case types.Float64:
		return types.NewFloat([]float64{-1.5, 0, 2.25, math.NaN(), math.Inf(1)}[rng.Intn(5)])
	case types.Varchar:
		return types.NewString([]string{"", "a", "ab", "b", "ba"}[rng.Intn(5)])
	case types.Timestamp:
		return types.NewTimestamp(sortedBase.Add(time.Duration(rng.Intn(4)) * time.Hour))
	default:
		return types.NewInt(int64(rng.Intn(6) - 2))
	}
}

func newSortedCase(rng *rand.Rand) *sortedCase {
	c := &sortedCase{shape: batchShape(rng.Intn(3)), per: 1 + rng.Intn(150)}
	cols := []types.Column{{Name: "id", Typ: types.Int64}}
	for i, n := 0, 1+rng.Intn(4); i < n; i++ {
		typ := []types.Type{types.Int64, types.Float64, types.Varchar, types.Timestamp}[rng.Intn(4)]
		cols = append(cols, types.Column{Name: fmt.Sprintf("c%d", i+1), Typ: typ, Nullable: true})
	}
	c.schema = types.NewSchema(cols...)
	draw := func(n, firstID int) []types.Row {
		rows := make([]types.Row, n)
		for i := range rows {
			rows[i] = types.Row{types.NewInt(int64(firstID + i))}
			for _, col := range cols[1:] {
				rows[i] = append(rows[i], sortedValue(rng, col.Typ))
			}
		}
		return rows
	}
	sizes := []int{0, 1, 2 + rng.Intn(60), 2 + rng.Intn(700)}
	c.rows = draw(sizes[rng.Intn(4)], 0)
	c.more = draw(sizes[rng.Intn(4)]/3, len(c.rows)) // a join of low-cardinality keys fans out
	for _, k := range rng.Perm(len(cols) - 1)[:1+rng.Intn(min(3, len(cols)-1))] {
		c.specs = append(c.specs, SortSpec{Col: k + 1, Desc: rng.Intn(2) == 0})
	}
	return c
}

// source replays rows in the case's shape and batch size, in the order
// given (newShapedSource would reorder them to make runs; consecutive equal
// values make runs here).
func (c *sortedCase) source(rows []types.Row) Operator {
	return &shapedSource{schema: c.schema, rows: rows, shape: c.shape, rleCol: c.specs[0].Col, per: c.per}
}

func (c *sortedCase) keyCols() []int {
	keys := make([]int, len(c.specs))
	for i, s := range c.specs {
		keys[i] = s.Col
	}
	return keys
}

// anyOrder orders a copy of rows by every column: what is left to compare of
// a result whose order is not defined.
func anyOrder(rows []types.Row) []types.Row {
	if len(rows) == 0 {
		return nil
	}
	all := make([]int, len(rows[0]))
	for i := range all {
		all[i] = i
	}
	return refSort(rows, keySpecs(all))
}

// heldBy is what the columns of rows hold, as the sorter charges it.
func heldBy(schema *types.Schema, rows []types.Row) int64 {
	b := vector.NewBatchForSchema(schema, len(rows))
	for _, r := range rows {
		b.AppendRow(r)
	}
	return batchBytes(b, 0)
}

// sameRows compares two results row for row, order included.
func sameRows(got, want []types.Row) error {
	for i := 0; i < len(got) && i < len(want); i++ {
		same := len(got[i]) == len(want[i])
		for c := 0; same && c < len(got[i]); c++ {
			g, w := got[i][c], want[i][c]
			same = g.Null == w.Null && (g.Null || (g.Typ == w.Typ && g.Compare(w) == 0))
		}
		if !same {
			return fmt.Errorf("row %d = %s, want %s", i, got[i], want[i])
		}
	}
	if len(got) != len(want) {
		return fmt.Errorf("%d rows, want %d", len(got), len(want))
	}
	return nil
}

// run drains op under the budget and checks that no run file outlives it.
func (c *sortedCase) run(budget int64, dir string, op Operator) (*Ctx, []types.Row, error) {
	ctx := NewCtx(1)
	ctx.MemBudget, ctx.TempDir = budget, dir
	rows, err := Drain(ctx, op)
	if err != nil {
		return ctx, nil, err
	}
	if ents, _ := os.ReadDir(dir); len(ents) != 0 {
		return ctx, nil, fmt.Errorf("%d spill files left after Close", len(ents))
	}
	return ctx, rows, nil
}

// customers runs every budget-bound customer once; the check stops at the
// first that disagrees with its reference.
func (c *sortedCase) customers(budget int64, dir string) error {
	keys := c.keyCols()
	cntCol := c.specs[0].Col

	ctx, got, err := c.run(budget, dir, NewSort(c.source(c.rows), c.specs))
	if err == nil {
		err = sameRows(got, refSort(c.rows, c.specs))
	}
	if spilled := ctx.Spills.Load(); err == nil && spilled == 0 && heldBy(c.schema, c.rows) > budget {
		err = fmt.Errorf("no spill under a budget of %d", budget)
	} else if batches := int64((len(c.rows) + c.per - 1) / c.per); err == nil && budget == 1 && spilled != batches {
		err = fmt.Errorf("%d runs of %d batches under a budget of 1", spilled, batches)
	}
	if err != nil {
		return fmt.Errorf("Sort: %w", err)
	}

	part, order := keys[:len(keys)/2], c.specs[len(keys)/2:]
	an, err := NewAnalytic(c.source(c.rows), sortedAnalytics(part, order, cntCol))
	if err != nil {
		return err
	}
	if _, got, err = c.run(budget, dir, an); err == nil {
		err = sameRows(got, refAnalytic(c.rows, part, order, cntCol))
	}
	if err != nil {
		return fmt.Errorf("Analytic partition=%v order=%v: %w", part, order, err)
	}

	residual := expr.Expr(nil)
	if len(c.rows)%2 == 1 {
		residual = cmpLt(intCol(0, "id"), intCol(c.schema.Len(), "id"))
	}
	for _, typ := range []JoinType{InnerJoin, LeftOuterJoin, SemiJoin, AntiJoin} {
		want := refOrderedJoin(typ, c.rows, c.more, keys, residual != nil)
		hj, err := NewHashJoin(typ, c.source(c.rows), c.source(c.more), keys, keys)
		if err != nil {
			return err
		}
		hj.Residual = residual
		if _, got, err = c.run(budget, dir, hj); err == nil {
			if !hj.spilled { // the hash table emits in probe order
				got, want = anyOrder(got), anyOrder(want)
			}
			err = sameRows(got, want)
		}
		if err == nil && heldBy(c.schema, c.more) > budget && !hj.spilled {
			err = fmt.Errorf("no switch under a budget of %d", budget)
		}
		if err != nil {
			return fmt.Errorf("HashJoin %s keys=%v residual=%v switched=%v: %w", typ, keys, residual != nil, hj.spilled, err)
		}
		mj, err := NewMergeJoin(typ, c.source(refSort(c.rows, keySpecs(keys))), c.source(refSort(c.more, keySpecs(keys))), keys, keys)
		if err != nil {
			return err
		}
		mj.Residual = residual
		if _, got, err = c.run(budget, dir, mj); err == nil {
			err = sameRows(got, refOrderedJoin(typ, c.rows, c.more, keys, residual != nil))
		}
		if err != nil {
			return fmt.Errorf("MergeJoin %s keys=%v residual=%v: %w", typ, keys, residual != nil, err)
		}
	}

	keyExprs, names := make([]expr.Expr, len(keys)), make([]string, len(keys))
	for i, k := range keys {
		names[i] = c.schema.Col(k).Name
		keyExprs[i] = expr.NewColRef(k, c.schema.Col(k).Typ, names[i])
	}
	aggs := sortedAggs(cntCol, c.schema.Col(cntCol).Typ)
	want := refGroupBy(c.rows, keys, cntCol)
	ctx, got, err = c.run(budget, dir, NewGroupBy(c.source(c.rows), keyExprs, names, aggs))
	if err == nil {
		err = sameRows(got, want)
	}
	if err == nil && budget == 1 && len(want) > 0 && ctx.Spills.Load() == 0 {
		err = fmt.Errorf("no spill under a budget of 1")
	}
	if err != nil {
		return fmt.Errorf("GroupBy keys=%v: %w", keys, err)
	}
	pre, err := NewPrepass(c.source(c.rows), keyExprs, names, aggs)
	if err != nil {
		return err
	}
	pre.MaxGroups = 4
	if _, got, err = c.run(budget, dir, mergeOver(pre, keyExprs, names, aggs)); err == nil {
		err = sameRows(got, want)
	}
	if err != nil {
		return fmt.Errorf("GroupBy(MergePartials) keys=%v: %w", keys, err)
	}
	return nil
}

// exchange merges the sorted rows dealt at random to 1, 2 and 4 lanes. A
// tie comes out lane by lane, which is what a stable sort of the lanes one
// after another yields.
func (c *sortedCase) exchange(rng *rand.Rand, dir string) error {
	sorted := refSort(c.rows, c.specs)
	for _, ways := range []int{1, 2, 4} {
		lanes := make([][]types.Row, ways)
		for _, r := range sorted {
			l := rng.Intn(ways)
			lanes[l] = append(lanes[l], r)
		}
		var inputs []Operator
		var concat []types.Row
		for _, l := range lanes {
			inputs = append(inputs, c.source(l))
			concat = append(concat, l...)
		}
		_, got, err := c.run(64<<20, dir, NewMergeExchange(inputs, c.specs).Ports()[0])
		if err == nil {
			err = sameRows(got, refSort(concat, c.specs))
		}
		if err != nil {
			return fmt.Errorf("merge Exchange, %d lanes: %w", ways, err)
		}
	}
	return nil
}

// scan stores the rows as 1–6 containers sorted on the spec columns plus a
// WOS tail and merges them. What a source holds, in its stored order, is
// read through an unmerged scan of that source alone; a tie comes out
// container by container, the WOS last.
func (c *sortedCase) scan(t *testing.T, rng *rand.Rand) error {
	keys := c.keyCols()
	mgr, err := storage.NewManager(t.TempDir(), c.schema, storage.ManagerOpts{})
	if err != nil {
		return err
	}
	em := txn.NewEpochManager()
	place := storage.NewPlacement("p", c.schema, keys, nil)
	place.BlockRows = 16
	tm, err := tuplemover.New(tuplemover.Config{Mgr: mgr, Epochs: em, Place: place})
	if err != nil {
		return err
	}
	loads := 2 + rng.Intn(6) // the last one stays in the WOS
	for l := 0; l < loads; l++ {
		lo, hi := l*len(c.rows)/loads, (l+1)*len(c.rows)/loads
		if _, err := mgr.WOS().Append(c.rows[lo:hi], em.CommitDML()); err != nil {
			return err
		}
		if l < loads-1 {
			if _, err := tm.Moveout(); err != nil {
				return err
			}
		}
	}
	all := make([]int, c.schema.Len())
	for i := range all {
		all[i] = i
	}
	// The reference: a plain scan reads the containers in ID order, then the
	// WOS; a stable sort of that by the key is the merged scan's answer.
	ctx := NewCtx(em.ReadEpoch())
	concat, err := Drain(ctx, NewScan("p", mgr, c.schema, all))
	if err != nil {
		return err
	}

	merged := NewScan("p", mgr, c.schema, all)
	merged.MergeSorted, merged.SortKey, merged.PreserveRuns = true, keys, c.shape == shapeRLE
	got, err := Drain(ctx, merged)
	if err == nil && len(got) != len(c.rows) {
		err = fmt.Errorf("%d rows, stored %d", len(got), len(c.rows))
	}
	if err == nil {
		err = sameRows(got, refSort(concat, keySpecs(keys)))
	}
	if err != nil {
		return fmt.Errorf("merged Scan, %d loads, sort key %v: %w", loads, keys, err)
	}
	return nil
}

func TestSortedStreamOracle(t *testing.T) {
	dir := t.TempDir()
	for n := 0; n < *sortedCases; n++ {
		seed := *sortedSeed + int64(n)
		rng := rand.New(rand.NewSource(seed))
		c := newSortedCase(rng)
		fail := func(budget string, err error) {
			t.Fatalf("-sorted.seed %d -sorted.cases 1 (%d and %d rows of %v, specs %+v, %s batches of %d, %s budget): %v",
				seed, len(c.rows), len(c.more), c.schema.Names(), c.specs, c.shape, c.per, budget, err)
		}
		for _, b := range []struct {
			name  string
			bytes int64
		}{{"ample", 64 << 20}, {"two-run", heldBy(c.schema, c.rows)/3 + 1}, {"run-per-batch", 1}} {
			if err := c.customers(b.bytes, dir); err != nil {
				fail(b.name, err)
			}
		}
		if err := c.exchange(rng, dir); err != nil {
			fail("ample", err)
		}
		if err := c.scan(t, rng); err != nil {
			fail("ample", err)
		}
	}
}
