package exec

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/expr"
	"repro/internal/types"
	"repro/internal/vector"
)

// Differential oracles for the hash operators: HashJoin against a
// nested-loop reference and Prepass → GroupBy(MergePartials) against a
// map-of-rows reference, over probe/input batches that are flat, carry a
// selection vector, or have a run-length-encoded key column, serially and
// through the 4-way partitioned Exchange shape the planner builds.

type batchShape int

const (
	shapeFlat batchShape = iota
	shapeSel             // live rows interleaved with decoys the selection hides
	shapeRLE             // column rleCol run-length encoded
)

func (s batchShape) String() string { return [...]string{"flat", "sel", "rle"}[s] }

// shapedSource replays rows as batches of one shape. For shapeRLE the rows
// are ordered by rleCol first so that runs are real.
type shapedSource struct {
	schema *types.Schema
	rows   []types.Row
	shape  batchShape
	rleCol int
	per    int // live rows per batch
	pos    int
}

func newShapedSource(schema *types.Schema, rows []types.Row, shape batchShape, rleCol, per int) *shapedSource {
	rows = append([]types.Row{}, rows...)
	if shape == shapeRLE {
		sort.SliceStable(rows, func(i, j int) bool { return rows[i][rleCol].Compare(rows[j][rleCol]) < 0 })
	}
	return &shapedSource{schema: schema, rows: rows, shape: shape, rleCol: rleCol, per: per}
}

func (s *shapedSource) Schema() *types.Schema { return s.schema }
func (s *shapedSource) Open(*Ctx) error       { s.pos = 0; return nil }
func (s *shapedSource) Close(*Ctx) error      { return nil }
func (s *shapedSource) Describe() string      { return "ShapedSource " + s.shape.String() }

func (s *shapedSource) Next(*Ctx) (*vector.Batch, error) {
	if s.pos >= len(s.rows) {
		return nil, nil
	}
	chunk := s.rows[s.pos:min(s.pos+s.per, len(s.rows))]
	s.pos += len(chunk)
	b := vector.NewBatchForSchema(s.schema, 2*len(chunk))
	switch s.shape {
	case shapeSel:
		// A decoy copy before every live row: an operator that ignored the
		// selection would see every row twice.
		sel := make([]int, 0, len(chunk))
		for _, r := range chunk {
			b.AppendRow(r)
			sel = append(sel, b.FullLen())
			b.AppendRow(r)
		}
		b.Sel = sel
	case shapeRLE:
		for _, r := range chunk {
			b.AppendRow(r)
		}
		flat := b.Cols[s.rleCol]
		rle := vector.New(flat.Typ, 0)
		for i, r := range chunk {
			if i > 0 && r[s.rleCol].Compare(chunk[i-1][s.rleCol]) == 0 {
				rle.RunLens[len(rle.RunLens)-1]++
				continue
			}
			rle.AppendValue(r[s.rleCol])
			rle.RunLens = append(rle.RunLens, 1)
		}
		b.Cols[s.rleCol] = rle
	default:
		for _, r := range chunk {
			b.AppendRow(r)
		}
	}
	return b, nil
}

// canon renders rows as a sorted multiset for comparison.
func canon(rows []types.Row) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = r.String()
	}
	sort.Strings(out)
	return out
}

func diffRows(t *testing.T, what string, got, want []types.Row) {
	t.Helper()
	g, w := canon(got), canon(want)
	if len(g) != len(w) {
		t.Errorf("%s: %d rows, want %d", what, len(g), len(w))
		return
	}
	for i := range g {
		if g[i] != w[i] {
			t.Errorf("%s: row %d = %s, want %s", what, i, g[i], w[i])
			return
		}
	}
}

// drainCapped is Drain that also holds every batch to the batch-size cap.
func drainCapped(t *testing.T, ctx *Ctx, op Operator) []types.Row {
	t.Helper()
	if err := op.Open(ctx); err != nil {
		t.Fatal(err)
	}
	var out []types.Row
	for {
		b, err := op.Next(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if b == nil {
			break
		}
		if b.Len() > vector.DefaultBatchSize {
			t.Errorf("%s produced a %d-row batch, cap is %d", op.Describe(), b.Len(), vector.DefaultBatchSize)
		}
		out = append(out, b.Rows()...)
	}
	if err := op.Close(ctx); err != nil {
		t.Fatal(err)
	}
	return out
}

// --- joins -----------------------------------------------------------------

var allJoinTypes = []JoinType{InnerJoin, LeftOuterJoin, RightOuterJoin, FullOuterJoin, SemiJoin, AntiJoin}

// compareJoinKeys orders an inner row against an outer row by their aligned
// join key columns; hasNullKey reports a NULL among a row's keys. Both belong
// to the reference: the engine compares keys in place (mergeWalk).
func compareJoinKeys(inner, outer types.Row, innerKeys, outerKeys []int) int {
	for i := range outerKeys {
		if c := inner[innerKeys[i]].Compare(outer[outerKeys[i]]); c != 0 {
			return c
		}
	}
	return 0
}

func hasNullKey(r types.Row, keys []int) bool {
	for _, k := range keys {
		if r[k].Null {
			return true
		}
	}
	return false
}

// refJoin is the nested-loop reference: keys match when both are non-NULL
// and equal, the residual is evaluated per candidate pair.
func refJoin(t *testing.T, typ JoinType, outer, inner []types.Row, ok, ik []int, residual expr.Expr, outerW, innerW int) []types.Row {
	t.Helper()
	nulls := func(n int) types.Row {
		r := make(types.Row, n)
		for i := range r {
			r[i] = types.NewNull(types.Int64)
		}
		return r
	}
	matchedInner := make([]bool, len(inner))
	var out []types.Row
	for _, or := range outer {
		matched := false
		for ii, ir := range inner {
			if compareJoinKeys(ir, or, ik, ok) != 0 || hasNullKey(or, ok) || hasNullKey(ir, ik) {
				continue
			}
			pair := append(or.Clone(), ir...)
			if residual != nil {
				v, err := residual.EvalRow(pair)
				if err != nil {
					t.Fatal(err)
				}
				if !v.Bool() {
					continue
				}
			}
			matched, matchedInner[ii] = true, true
			if typ != SemiJoin && typ != AntiJoin {
				out = append(out, pair)
			}
		}
		switch {
		case typ == SemiJoin && matched, typ == AntiJoin && !matched:
			out = append(out, or)
		case (typ == LeftOuterJoin || typ == FullOuterJoin) && !matched:
			out = append(out, append(or.Clone(), nulls(innerW)...))
		}
	}
	if typ == RightOuterJoin || typ == FullOuterJoin {
		for ii, ir := range inner {
			if !matchedInner[ii] {
				out = append(out, append(nulls(outerW), ir...))
			}
		}
	}
	return out
}

type joinCase struct {
	name         string
	outer, inner []types.Row
	keys         []int // same columns on both sides
	residual     expr.Expr
}

func joinSideSchema(last string) *types.Schema {
	return types.NewSchema(
		types.Column{Name: "k1", Typ: types.Int64, Nullable: true},
		types.Column{Name: "k2", Typ: types.Int64, Nullable: true},
		types.Column{Name: "s", Typ: types.Varchar, Nullable: true},
		types.Column{Name: last, Typ: types.Int64},
	)
}

func joinCases(rng *rand.Rand) []joinCase {
	side := func(n, keySpace int, nullShare float64) []types.Row {
		rows := make([]types.Row, n)
		for i := range rows {
			k1 := int64(rng.Intn(keySpace))
			r := types.Row{
				types.NewInt(k1), types.NewInt(int64(rng.Intn(3))),
				types.NewString(fmt.Sprintf("s%d", k1%7)), types.NewInt(int64(rng.Intn(100))),
			}
			for c := 0; c < 3; c++ {
				if rng.Float64() < nullShare {
					r[c] = types.NewNull(r[c].Typ)
				}
			}
			rows[i] = r
		}
		return rows
	}
	fan := func(n int) []types.Row {
		rows := side(n+5, 20, 0)
		for i := 0; i < n; i++ {
			rows[i][0] = types.NewInt(1)
		}
		return rows
	}
	// outer.v (column 3) < inner.w (column 4+3)
	vLtW := cmpLt(intCol(3, "v"), intCol(7, "w"))
	return []joinCase{
		{name: "int-key", outer: side(300, 20, 0), inner: side(120, 25, 0), keys: []int{0}},
		{name: "two-column-key", outer: side(300, 12, 0), inner: side(120, 12, 0), keys: []int{0, 1}},
		{name: "varchar-key", outer: side(200, 20, 0), inner: side(60, 20, 0), keys: []int{2}},
		{name: "null-keys", outer: side(300, 10, 0.2), inner: side(120, 10, 0.2), keys: []int{0, 1}},
		{name: "fan-out-80x80", outer: fan(80), inner: fan(80), keys: []int{0}},
		{name: "fan-out-residual", outer: fan(90), inner: fan(90), keys: []int{0}, residual: vLtW},
		{name: "residual", outer: side(300, 20, 0.05), inner: side(120, 20, 0.05), keys: []int{0}, residual: vLtW},
		{name: "empty-build", outer: side(100, 20, 0), inner: nil, keys: []int{0}},
		{name: "empty-probe", outer: nil, inner: side(100, 20, 0), keys: []int{0}},
	}
}

func TestHashJoinMatchesNestedLoopOracle(t *testing.T) {
	outerSchema, innerSchema := joinSideSchema("v"), joinSideSchema("w")
	for _, c := range joinCases(rand.New(rand.NewSource(20120827))) {
		for _, typ := range allJoinTypes {
			want := refJoin(t, typ, c.outer, c.inner, c.keys, c.keys, c.residual, 4, 4)
			for _, shape := range []batchShape{shapeFlat, shapeSel, shapeRLE} {
				// 128 live rows a batch: the 80-row fan-out probes in one
				// batch, so its 6 400 pairs must split across output batches.
				inner := func() Operator { return newShapedSource(innerSchema, c.inner, shapeFlat, 0, 50) }
				j, err := NewHashJoin(typ, newShapedSource(outerSchema, c.outer, shape, c.keys[0], 128), inner(), c.keys, c.keys)
				if err != nil {
					t.Fatal(err)
				}
				j.Residual = c.residual
				diffRows(t, fmt.Sprintf("%s/%s/%s", c.name, typ, shape), drainCapped(t, NewCtx(1), j), want)
				if typ == RightOuterJoin || typ == FullOuterJoin {
					continue // a fan closes before these
				}
				// A fan: four workers, each probing its share of the outer rows
				// against one shared build — in memory, and under a budget so
				// small that the build switches to sort-merge and every worker
				// walks the one sorted inner side.
				for _, budget := range []int64{64 << 20, 512} {
					const ways = 4
					outers := make([]Operator, ways)
					for w := range outers {
						share := c.outer[w*len(c.outer)/ways : (w+1)*len(c.outer)/ways]
						outers[w] = newShapedSource(outerSchema, share, shape, c.keys[0], 128)
					}
					js, err := FanHashJoin(typ, outers, inner(), c.keys, c.keys)
					if err != nil {
						t.Fatal(err)
					}
					workers := make([]Operator, ways)
					for w, j := range js {
						j.Residual = c.residual
						workers[w] = j
					}
					ctx := NewCtx(1)
					ctx.MemBudget = budget
					name := fmt.Sprintf("%s/%s/%s/fan/budget=%d", c.name, typ, shape, budget)
					diffRows(t, name, drainCapped(t, ctx, NewParallelUnion(workers...)), want)
				}
			}
		}
	}
}

// --- aggregation -------------------------------------------------------------

func aggInputSchema() *types.Schema {
	return types.NewSchema(
		types.Column{Name: "g1", Typ: types.Int64, Nullable: true},
		types.Column{Name: "g2", Typ: types.Varchar},
		types.Column{Name: "v", Typ: types.Int64, Nullable: true},
		types.Column{Name: "f", Typ: types.Float64},
	)
}

func aggRows(rng *rand.Rand, n, keySpace int) []types.Row {
	rows := make([]types.Row, n)
	for i := range rows {
		g1 := types.NewInt(int64(rng.Intn(keySpace)))
		if rng.Intn(10) == 0 {
			g1 = types.NewNull(types.Int64) // NULL is a group of its own
		}
		v := types.NewInt(int64(rng.Intn(1000)) - 500)
		if rng.Intn(8) == 0 {
			v = types.NewNull(types.Int64)
		}
		rows[i] = types.Row{
			g1, types.NewString(fmt.Sprintf("g%d", rng.Intn(3))), v,
			types.NewFloat(float64(rng.Intn(64))), // small integers: sums are exact in any order
		}
	}
	return rows
}

// burstyAggRows makes g1 change every 60 rows, so a small prepass table
// fills and flushes again and again while still reducing rows.
func burstyAggRows(rng *rand.Rand, n int) []types.Row {
	rows := aggRows(rng, n, 1)
	for i, r := range rows {
		if !r[0].Null {
			r[0] = types.NewInt(int64(i / 60))
		}
	}
	return rows
}

func oracleAggs(withDistinct bool) []AggSpec {
	v, f := expr.NewColRef(2, types.Int64, "v"), fltCol(3, "f")
	aggs := []AggSpec{
		{Kind: AggCountStar, Name: "n"},
		{Kind: AggCount, Arg: v, Name: "nv"},
		{Kind: AggSum, Arg: v, Name: "sv"},
		{Kind: AggAvg, Arg: f, Name: "af"},
		{Kind: AggMin, Arg: v, Name: "mn"},
		{Kind: AggMax, Arg: expr.NewColRef(1, types.Varchar, "g2"), Name: "mx"},
		{Kind: AggSum, Arg: f, Name: "sf"},
	}
	if withDistinct {
		aggs = append(aggs, AggSpec{Kind: AggCountDistinct, Arg: v, Name: "dv"})
	}
	return aggs
}

// grouping is a GROUP BY the aggregation oracles run: the first n of (g1,
// g2), with g1 of type g1Typ. One key takes the hash table's typed lookup
// (hashTable.intKey); two take sameKey.
type grouping struct {
	name  string
	n     int
	g1Typ types.Type
}

var oracleGroupings = []grouping{
	{"g1,g2", 2, types.Int64},
	{"g1", 1, types.Int64},
	{"g1-timestamp", 1, types.Timestamp},
}

func (g grouping) keys() ([]expr.Expr, []string) {
	keys := []expr.Expr{expr.NewColRef(0, g.g1Typ, "g1"), expr.NewColRef(1, types.Varchar, "g2")}
	return keys[:g.n], []string{"g1", "g2"}[:g.n]
}

func (g grouping) keyCols() []int { return []int{0, 1}[:g.n] }

// input retypes aggRows' rows and schema for the grouping: g1 as g1Typ, a
// TIMESTAMP n days after the epoch for an INT n (0 stays 0, beside NULL).
func (g grouping) input(rows []types.Row) (*types.Schema, []types.Row) {
	schema := aggInputSchema()
	if g.g1Typ == types.Int64 {
		return schema, rows
	}
	schema.Cols[0].Typ = g.g1Typ
	out := make([]types.Row, len(rows))
	for i, r := range rows {
		out[i] = r.Clone()
		out[i][0].Typ = g.g1Typ
		out[i][0].I *= 86_400_000_000
	}
	return schema, out
}

// refAggregate is the map-of-rows reference for oracleAggs over GROUP BY
// the first nKeys of g1, g2.
func refAggregate(rows []types.Row, nKeys int, withDistinct bool) []types.Row {
	type state struct {
		key              types.Row
		n, nv, sv, nf    int64
		sf               float64
		mn, mx           types.Value
		seenV            bool
		distinct         map[int64]bool
		maxSeen, minSeen bool
	}
	groups := map[string]*state{}
	var order []string
	for _, r := range rows {
		k := r[:nKeys].String()
		s := groups[k]
		if s == nil {
			s = &state{key: r[:nKeys].Clone(), distinct: map[int64]bool{}}
			groups[k] = s
			order = append(order, k)
		}
		s.n++
		if v := r[2]; !v.Null {
			s.nv++
			s.sv += v.I
			s.seenV = true
			s.distinct[v.I] = true
			if !s.minSeen || v.I < s.mn.I {
				s.mn, s.minSeen = v, true
			}
		}
		s.nf++
		s.sf += r[3].F
		if !s.maxSeen || r[1].S > s.mx.S {
			s.mx, s.maxSeen = r[1], true
		}
	}
	var out []types.Row
	for _, k := range order {
		s := groups[k]
		sv, mn := types.NewNull(types.Int64), types.NewNull(types.Int64)
		if s.seenV {
			sv, mn = types.NewInt(s.sv), s.mn
		}
		row := append(s.key, types.NewInt(s.n), types.NewInt(s.nv), sv,
			types.NewFloat(s.sf/float64(s.nf)), mn, s.mx, types.NewFloat(s.sf))
		if withDistinct {
			row = append(row, types.NewInt(int64(len(s.distinct))))
		}
		out = append(out, row)
	}
	return out
}

func TestPrepassGroupByMatchesMapOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(20120827))
	aggs := oracleAggs(false)
	variants := []struct {
		name       string
		rows       []types.Row
		maxGroups  int
		wantBypass bool
	}{
		{name: "reducing", rows: aggRows(rng, 3000, 12), maxGroups: DefaultPrepassGroups},
		{name: "table-full-flush", rows: burstyAggRows(rng, 3000), maxGroups: 8},
		{name: "bypass", rows: aggRows(rng, 3000, 2500), maxGroups: 16, wantBypass: true},
		{name: "empty", rows: nil, maxGroups: DefaultPrepassGroups},
	}
	for _, gr := range oracleGroupings {
		keys, names := gr.keys()
		for _, v := range variants {
			schema, rows := gr.input(v.rows)
			want := refAggregate(rows, gr.n, false)
			for _, shape := range []batchShape{shapeFlat, shapeSel, shapeRLE} {
				for _, ways := range []int{1, 4} {
					name := fmt.Sprintf("%s/%s/%s/ways=%d", gr.name, v.name, shape, ways)
					src := newShapedSource(schema, rows, shape, 0, 200)
					pre, err := NewPrepass(src, keys, names, aggs)
					if err != nil {
						t.Fatal(err)
					}
					pre.MaxGroups = v.maxGroups
					var root Operator
					if ways == 1 {
						root = mergeOver(pre, keys, names, aggs)
					} else {
						// Partials resegmented on the group key, one merging
						// GroupBy per partition — the planner's parallel aggregate.
						ports := NewExchange([]Operator{pre}, ways, gr.keyCols()).Ports()
						finals := make([]Operator, ways)
						for p := range finals {
							finals[p] = mergeOver(ports[p], keys, names, aggs)
						}
						root = NewParallelUnion(finals...)
					}
					ctx := NewCtx(1)
					diffRows(t, name, drainCapped(t, ctx, root), want)
					// The RLE shape sorts rows by g1, so a GROUP BY g1 alone
					// finds its duplicates side by side and does reduce rows.
					wantBypass := v.wantBypass && !(shape == shapeRLE && gr.n == 1)
					if got := ctx.PrepassBypassed.Load(); got != wantBypass {
						t.Errorf("%s: prepass bypassed = %v, want %v", name, got, wantBypass)
					}
				}
			}
		}
	}
}

func mergeOver(child Operator, keys []expr.Expr, names []string, aggs []AggSpec) *GroupBy {
	merged := make([]expr.Expr, len(keys))
	for i, k := range keys {
		merged[i] = expr.NewColRef(i, k.Type(), names[i])
	}
	g := NewGroupBy(child, merged, names, aggs)
	g.MergePartials = true
	return g
}

// The raw hash and one-pass modes against the same reference, COUNT(DISTINCT)
// (which no prepass can compute) included, in memory and through spills.
func TestGroupByMatchesMapOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	raw := aggRows(rng, 3000, 40)
	for _, gr := range oracleGroupings {
		keys, names := gr.keys()
		schema, rows := gr.input(raw)
		for _, shape := range []batchShape{shapeFlat, shapeSel, shapeRLE} {
			name := func(mode string) string { return fmt.Sprintf("%s/%s/%s", gr.name, mode, shape) }
			src := func(rows []types.Row) Operator { return newShapedSource(schema, rows, shape, 0, 200) }
			g := NewGroupBy(src(rows), keys, names, oracleAggs(true))
			diffRows(t, name("hash"), drainCapped(t, NewCtx(1), g), refAggregate(rows, gr.n, true))

			if gr.g1Typ == types.Int64 {
				// A computed key (g1 + 0) is not a bare column: a selection has
				// to be materialized before the expression sees the batch.
				plusZero, err := expr.NewArith(expr.Add, keys[0], intConst(0))
				if err != nil {
					t.Fatal(err)
				}
				g = NewGroupBy(src(rows), append([]expr.Expr{plusZero}, keys[1:]...), names, oracleAggs(true))
				diffRows(t, name("hash-computed-key"), drainCapped(t, NewCtx(1), g), refAggregate(rows, gr.n, true))
			}

			ctx := NewCtx(1)
			ctx.MemBudget, ctx.TempDir = 4<<10, t.TempDir()
			g = NewGroupBy(src(rows), keys, names, oracleAggs(false))
			diffRows(t, name("hash-spilled"), drainCapped(t, ctx, g), refAggregate(rows, gr.n, false))
			if ctx.Spills.Load() == 0 {
				t.Errorf("%s: no spill under a 4 KiB budget", name("hash-spilled"))
			}

			sorted := append([]types.Row{}, rows...)
			sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Compare(sorted[j], gr.keyCols()) < 0 })
			g = NewGroupBy(src(sorted), keys, names, oracleAggs(true))
			g.InputSorted = true
			diffRows(t, name("one-pass"), drainCapped(t, NewCtx(1), g), refAggregate(rows, gr.n, true))
		}
	}
}

// A wide-string GROUP BY must reach its spill threshold: 64 groups keyed by
// 1 000-byte strings hold 64 KB of key payload alone. The old per-group
// charge (24 bytes a key column + 96 an accumulator + 64) came to 12 KB and
// never crossed a 32 KiB budget.
func TestGroupByChargesVarcharKeyBytes(t *testing.T) {
	schema := types.NewSchema(types.Column{Name: "s", Typ: types.Varchar})
	var rows []types.Row
	for rep := 0; rep < 3; rep++ {
		for i := 0; i < 64; i++ {
			rows = append(rows, types.Row{types.NewString(fmt.Sprintf("%04d", i) + strings.Repeat("x", 996))})
		}
	}
	ctx := NewCtx(1)
	ctx.MemBudget, ctx.TempDir = 32<<10, t.TempDir()
	g := NewGroupBy(NewValues(schema, rows),
		[]expr.Expr{expr.NewColRef(0, types.Varchar, "s")}, []string{"s"},
		[]AggSpec{{Kind: AggCountStar, Name: "n"}})
	out, err := Drain(ctx, g)
	if err != nil {
		t.Fatal(err)
	}
	if ctx.Spills.Load() == 0 {
		t.Error("64 KB of VARCHAR keys stayed under a 32 KiB budget: key payload is not charged")
	}
	if len(out) != 64 {
		t.Fatalf("groups = %d, want 64", len(out))
	}
	for _, r := range out {
		if r[1].I != 3 {
			t.Fatalf("group %.8s… count = %d, want 3", r[0].S, r[1].I)
		}
	}
}

// The grant counts what a hash table holds: after adds, a link and a
// release, mem is at least the bytes of its hashes, chain links, bucket
// heads and stored columns (values, NULL flags and string payload).
func TestHashTableMemCoversWhatItHolds(t *testing.T) {
	schema := types.NewSchema(
		types.Column{Name: "k", Typ: types.Int64, Nullable: true},
		types.Column{Name: "s", Typ: types.Varchar},
	)
	rows := make([]types.Row, 3000)
	for i := range rows {
		k := types.NewInt(int64(i))
		if i%7 == 0 {
			k = types.NewNull(types.Int64)
		}
		rows[i] = types.Row{k, types.NewString(strings.Repeat("x", i%40))}
	}
	batch := vector.BatchFromRows(schema, rows)
	held := func(tb *hashTable) int64 {
		n := 8*len(tb.hashes) + 4*len(tb.next) + 4*len(tb.first)
		for _, c := range tb.rows.Cols {
			n += 8*c.PhysLen() + len(c.Nulls)
			for _, s := range c.Strs {
				n += 8 + len(s) // a string header is 16 bytes, 8 more than a value
			}
		}
		return int64(n)
	}
	check := func(what string, tb *hashTable) {
		t.Helper()
		if got, want := tb.mem(), held(tb); got < want {
			t.Errorf("%s: the table charges %d bytes and holds %d", what, got, want)
		}
	}

	group := newHashTable(schema, []int{0, 1}, true)
	hashes := batch.KeyHashes(nil, []int{0, 1})
	for _, n := range []int{1, 9, 17, 1000, len(rows)} {
		for i := group.len(); i < n; i++ {
			group.add(hashes[i], batch.Cols, i)
		}
		check(fmt.Sprintf("after %d adds", n), group)
	}
	group.release()
	check("after a release", group)
	for i := 0; i < 10; i++ {
		group.add(hashes[i], batch.Cols, i)
	}
	check("after a release and 10 adds", group)

	join := newHashTable(schema, []int{0}, false)
	join.appendBatch(batch)
	check("a join build before its link", join)
	before := join.mem()
	join.link()
	check("after a link", join)
	if after := join.mem(); after != before {
		t.Errorf("linking moved the charge from %d to %d: the build was checked against a wrong figure", before, after)
	}
}

// --- allocation guards -------------------------------------------------------

// Probing or consuming a full batch whose keys all hit existing entries
// allocates per column (hash vector, output vectors), never per row.
const hitPathAllocCeiling = 64

func TestHashOperatorsHitPathAllocations(t *testing.T) {
	const n = vector.DefaultBatchSize
	schema := types.NewSchema(
		types.Column{Name: "k", Typ: types.Int64},
		types.Column{Name: "s", Typ: types.Varchar},
		types.Column{Name: "v", Typ: types.Int64},
	)
	rows := make([]types.Row, n)
	for i := range rows {
		rows[i] = types.Row{types.NewInt(int64(i % 512)), types.NewString(fmt.Sprintf("s%d", i%512)), types.NewInt(int64(i))}
	}
	batch := vector.NewBatchForSchema(schema, n)
	for _, r := range rows {
		batch.AppendRow(r)
	}
	ctx := NewCtx(1)
	keys := []expr.Expr{intCol(0, "k"), expr.NewColRef(1, types.Varchar, "s")}
	aggs := []AggSpec{{Kind: AggCountStar, Name: "n"}, {Kind: AggSum, Arg: intCol(2, "v"), Name: "sv"}, {Kind: AggAvg, Arg: intCol(2, "v"), Name: "av"}}

	t.Run("join-probe", func(t *testing.T) {
		j, err := NewHashJoin(InnerJoin, NewValues(schema, nil), NewValues(schema, rows[:512]), []int{0, 1}, []int{0, 1})
		if err != nil {
			t.Fatal(err)
		}
		if err := j.Open(ctx); err != nil {
			t.Fatal(err)
		}
		if _, err := j.build(ctx, &j.runs); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(10, func() {
			j.startProbe(batch.ShallowCopy())
			out, err := j.probeChunk()
			if err != nil || out == nil || out.Len() != n {
				t.Fatalf("probe: %v, err %v", out, err)
			}
		})
		if allocs > hitPathAllocCeiling {
			t.Errorf("probing %d matching rows allocated %.0f times, ceiling %d", n, allocs, hitPathAllocCeiling)
		}
	})
	t.Run("group-by", func(t *testing.T) {
		g := NewGroupBy(NewValues(schema, nil), keys, nil, aggs)
		if err := g.Open(ctx); err != nil {
			t.Fatal(err)
		}
		consume := func() {
			if err := g.consume(batch.ShallowCopy(), false, false); err != nil {
				t.Fatal(err)
			}
		}
		consume() // creates the 512 groups
		if allocs := testing.AllocsPerRun(10, consume); allocs > hitPathAllocCeiling {
			t.Errorf("consuming %d rows of existing groups allocated %.0f times, ceiling %d", n, allocs, hitPathAllocCeiling)
		}
	})
	t.Run("prepass", func(t *testing.T) {
		p, err := NewPrepass(NewValues(schema, nil), keys, nil, aggs)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Open(ctx); err != nil {
			t.Fatal(err)
		}
		consume := func() {
			if err := p.consume(ctx, batch.ShallowCopy()); err != nil {
				t.Fatal(err)
			}
		}
		consume()
		if allocs := testing.AllocsPerRun(10, consume); allocs > hitPathAllocCeiling {
			t.Errorf("consuming %d rows of existing groups allocated %.0f times, ceiling %d", n, allocs, hitPathAllocCeiling)
		}
	})
}

// builtTable returns the hash table a join builds from rows on keyCols,
// linked: what a SIP filter is handed.
func builtTable(schema *types.Schema, keyCols []int, rows []types.Row) *hashTable {
	b := vector.NewBatchForSchema(schema, len(rows))
	for _, r := range rows {
		b.AppendRow(r)
	}
	t := newHashTable(schema, keyCols, false)
	t.appendBatch(b)
	t.link()
	return t
}

// SIP hashes the probe keys as a vector and looks them up in the join's
// table: a row passes when its key is the key of a linked build row — one
// whose key has no NULL — and has no NULL itself, whether the batch is
// flat, selected or RLE-keyed (expanded first: the scan hands SIP flat
// keys). The filter tests key hashes, so it may pass a key the build lacks;
// over 160 keys a 64-bit hash passes none.
func TestSIPFilterApplyKeepsBuildKeys(t *testing.T) {
	schema := types.NewSchema(
		types.Column{Name: "k", Typ: types.Int64, Nullable: true},
		types.Column{Name: "s", Typ: types.Varchar},
	)
	rng := rand.New(rand.NewSource(3))
	var rows []types.Row
	for i := 0; i < 500; i++ {
		k := types.NewInt(int64(rng.Intn(40)))
		if i%50 == 0 {
			k = types.NewNull(types.Int64)
		}
		rows = append(rows, types.Row{k, types.NewString(fmt.Sprintf("s%d", rng.Intn(4)))})
	}
	keyCols := []int{0, 1}
	var build []types.Row
	for i, r := range rows {
		if i%3 == 0 {
			build = append(build, r)
		}
	}
	linked := map[string]bool{}
	for _, r := range build {
		if !r[0].Null {
			linked[r.String()] = true
		}
	}
	var want []types.Row
	for _, r := range rows {
		if !r[0].Null && linked[r.String()] {
			want = append(want, r)
		}
	}
	for _, shape := range []batchShape{shapeFlat, shapeSel, shapeRLE} {
		f := NewSIPFilter(keyCols, "test")
		f.table.Store(builtTable(schema, keyCols, build))
		src := newShapedSource(schema, rows, shape, 0, 128)
		var got []types.Row
		var hashes []uint64
		for {
			b, _ := src.Next(nil)
			if b == nil {
				break
			}
			b.ExpandRLE()
			sel := b.Sel
			if sel == nil {
				sel = make([]int, b.FullLen())
				for i := range sel {
					sel[i] = i
				}
			}
			b.Sel, hashes = f.Apply(b.Cols, sel, hashes)
			got = append(got, b.Rows()...)
		}
		diffRows(t, "sip/"+shape.String(), got, want)
	}
}

// A warmed scan's SIP step allocates nothing: the key hashes and the
// selection are the scan's scratch, the lookup is in the join's table.
func TestSIPFilterApplyAllocatesNothing(t *testing.T) {
	const n = vector.DefaultBatchSize
	schema := types.NewSchema(types.Column{Name: "k", Typ: types.Int64}, types.Column{Name: "v", Typ: types.Int64})
	var build []types.Row
	for i := 0; i < 512; i++ {
		build = append(build, types.Row{types.NewInt(int64(i * 2)), types.NewInt(0)})
	}
	f := NewSIPFilter([]int{0}, "test")
	f.table.Store(builtTable(schema, []int{0}, build))
	keys, vals := make([]int64, n), make([]int64, n)
	for i := range keys {
		keys[i] = int64(i % 1024)
	}
	s := &Scan{SIPs: []*SIPFilter{f}}
	ctx := NewCtx(1)
	cols := []*vector.Vector{vector.NewFromInts(types.Int64, keys), vector.NewFromInts(types.Int64, vals)}
	sel := make([]int, n)
	run := func() {
		for i := range sel {
			sel[i] = i
		}
		if kept := s.applySIPs(ctx, cols, sel); len(kept) != n/2 {
			t.Fatalf("SIP kept %d of %d rows, want %d", len(kept), n, n/2)
		}
	}
	run() // grows the scratch
	if allocs := testing.AllocsPerRun(20, run); allocs != 0 {
		t.Errorf("the SIP step allocated %.0f times, want 0", allocs)
	}
}
