package exec

import (
	"encoding/binary"
	"fmt"
	"strings"

	"repro/internal/expr"
	"repro/internal/types"
	"repro/internal/vector"
)

// AggKind identifies an aggregate function.
type AggKind uint8

// Aggregate functions.
const (
	AggCountStar AggKind = iota
	AggCount
	AggSum
	AggAvg
	AggMin
	AggMax
	AggCountDistinct
)

func (k AggKind) String() string {
	switch k {
	case AggCountStar:
		return "COUNT(*)"
	case AggCount:
		return "COUNT"
	case AggSum:
		return "SUM"
	case AggAvg:
		return "AVG"
	case AggMin:
		return "MIN"
	case AggMax:
		return "MAX"
	case AggCountDistinct:
		return "COUNT(DISTINCT)"
	default:
		return fmt.Sprintf("AGG(%d)", k)
	}
}

// AggSpec describes one aggregate output.
type AggSpec struct {
	Kind AggKind
	// Arg is the aggregated expression over the input schema (nil for
	// COUNT(*)).
	Arg  expr.Expr
	Name string
}

// ResultType returns the aggregate's output type.
func (a *AggSpec) ResultType() types.Type {
	switch a.Kind {
	case AggCountStar, AggCount, AggCountDistinct:
		return types.Int64
	case AggAvg:
		return types.Float64
	default: // Sum, Min, Max follow the argument
		return a.Arg.Type()
	}
}

// String renders the spec.
func (a *AggSpec) String() string {
	switch a.Kind {
	case AggCountStar:
		return "COUNT(*)"
	case AggCountDistinct:
		return "COUNT(DISTINCT " + a.Arg.String() + ")"
	default:
		return a.Kind.String() + "(" + a.Arg.String() + ")"
	}
}

func describeAggs(aggs []AggSpec) string {
	parts := make([]string, len(aggs))
	for i := range aggs {
		parts[i] = aggs[i].String()
	}
	return strings.Join(parts, ", ")
}

// SupportsPartial reports whether the aggregate can be split into prepass
// partials merged by a final GroupBy (COUNT DISTINCT cannot).
func (a *AggSpec) SupportsPartial() bool { return a.Kind != AggCountDistinct }

// PartialWidth is the number of columns the aggregate's partial state
// occupies in a partial row (AVG needs sum and count).
func (a *AggSpec) PartialWidth() int {
	if a.Kind == AggAvg {
		return 2
	}
	return 1
}

// PartialCols describes the partial-state columns for prepass output.
func (a *AggSpec) PartialCols() []types.Column {
	base := sanitizeAggName(a.Name)
	switch a.Kind {
	case AggCountStar, AggCount:
		return []types.Column{{Name: base + "_cnt", Typ: types.Int64}}
	case AggAvg:
		return []types.Column{
			{Name: base + "_sum", Typ: types.Float64},
			{Name: base + "_cnt", Typ: types.Int64},
		}
	case AggSum:
		return []types.Column{{Name: base + "_sum", Typ: a.Arg.Type()}}
	case AggMin:
		return []types.Column{{Name: base + "_min", Typ: a.Arg.Type()}}
	case AggMax:
		return []types.Column{{Name: base + "_max", Typ: a.Arg.Type()}}
	default:
		return nil
	}
}

func sanitizeAggName(n string) string {
	if n == "" {
		return "agg"
	}
	return n
}

// accTable holds the aggregate state of every group of a Prepass or GroupBy
// as columns, one set per aggregate, indexed by group. Groups are numbered
// as the operator's hashTable numbers their key rows. Input is folded in a
// column at a time by one typed loop per aggregate kind, argument type and
// NULL-ness, chosen once per batch, so a row joining an existing group
// allocates nothing and nothing is boxed on the way in or out.
type accTable struct {
	specs  []AggSpec
	states []aggState
	groups int
	// groupBytes is what one group's state holds across the aggregates.
	groupBytes int64
	// distinctBytes is what the COUNT(DISTINCT) sets hold.
	distinctBytes int64
	key           []byte // scratch: a COUNT(DISTINCT) set key
}

// aggState is one aggregate's state, an entry per group.
type aggState struct {
	// cnt counts rows: COUNT(*), COUNT and AVG.
	cnt []int64
	// sum is AVG's sum; the average is NULL where cnt is 0.
	sum []float64
	// val is the running SUM, MIN or MAX, of the result type. An entry is
	// NULL until its group sees a value.
	val vector.Vector
	// distinct is COUNT(DISTINCT)'s set per group, nil until it has a value.
	distinct []map[string]struct{}
}

// Bytes charged per COUNT(DISTINCT) set (map header) and per set entry
// (string header, map slot and bucket share; the key's bytes are added on
// top).
const (
	distinctSetBytes   = 48
	distinctEntryBytes = 48
)

func newAccTable(specs []AggSpec) accTable {
	t := accTable{specs: specs, states: make([]aggState, len(specs))}
	for a := range specs {
		switch specs[a].Kind {
		case AggCountStar, AggCount:
			t.groupBytes += 8
		case AggAvg:
			t.groupBytes += 8 + 8
		case AggSum, AggMin, AggMax:
			typ := specs[a].ResultType()
			t.states[a].val.Typ = typ
			t.groupBytes += 8 + 1
			if typ == types.Varchar {
				t.groupBytes += 8 // a string header is 16 bytes
			}
		case AggCountDistinct:
			t.groupBytes += 8
		}
	}
	return t
}

// counts reports whether the aggregate keeps a row count, and valued
// whether it keeps a running value.
func counts(k AggKind) bool { return k == AggCountStar || k == AggCount || k == AggAvg }
func valued(k AggKind) bool { return k == AggSum || k == AggMin || k == AggMax }

// memBytes is what the state columns and COUNT(DISTINCT) sets hold, for the
// operator's grant.
func (t *accTable) memBytes() int64 { return int64(t.groups)*t.groupBytes + t.distinctBytes }

// reset drops every group, keeping the columns' arrays for the next fill.
func (t *accTable) reset() {
	for a := range t.states {
		st := &t.states[a]
		st.cnt, st.sum = st.cnt[:0], st.sum[:0]
		v := &st.val
		clear(v.Strs)
		v.Ints, v.Floats, v.Strs, v.Nulls = v.Ints[:0], v.Floats[:0], v.Strs[:0], v.Nulls[:0]
		clear(st.distinct)
		st.distinct = st.distinct[:0]
	}
	t.groups, t.distinctBytes = 0, 0
}

// addGroup appends a fresh group's state.
func (t *accTable) addGroup() { t.addGroups(1) }

// addGroups appends n fresh groups: zero counts, NULL values, no sets.
func (t *accTable) addGroups(n int) {
	t.groups += n
	for a := range t.states {
		st, kind := &t.states[a], t.specs[a].Kind
		if counts(kind) {
			st.cnt = append(st.cnt, make([]int64, n)...)
		}
		if kind == AggAvg {
			st.sum = append(st.sum, make([]float64, n)...)
		}
		if valued(kind) {
			st.val.AppendNulls(n)
		}
		if kind == AggCountDistinct {
			st.distinct = append(st.distinct, make([]map[string]struct{}, n)...)
		}
	}
}

// addCount adds n rows to group g's counts — the one-pass COUNT(*) of a run.
func (t *accTable) addCount(g, n int) {
	for a := range t.states {
		t.states[a].cnt[g] += int64(n)
	}
}

// update folds input rows into their groups: row lo+i of each aggregate's
// flat argument vector goes to group gids[i].
func (t *accTable) update(gids []int32, args []*vector.Vector, lo int) {
	hi := lo + len(gids)
	for a := range t.specs {
		st, arg := &t.states[a], args[a]
		switch kind := t.specs[a].Kind; kind {
		case AggCountStar:
			countRows(st.cnt, gids, nil)
		case AggCount:
			countRows(st.cnt, gids, nullsIn(arg, lo, hi))
		case AggAvg:
			if arg.Typ == types.Float64 {
				foldAvg(st.sum, st.cnt, gids, arg.Floats[lo:hi], nil, nullsIn(arg, lo, hi))
			} else {
				foldAvg(st.sum, st.cnt, gids, arg.Ints[lo:hi], nil, nullsIn(arg, lo, hi))
			}
		case AggSum, AggMin, AggMax:
			st.fold(kind, gids, arg, lo)
		case AggCountDistinct:
			t.addDistinct(st, gids, arg, lo)
		}
	}
}

// merge folds partial-state rows (as appendPartials lays them out) into
// their groups: row lo+i of the partial columns goes to group gids[i].
func (t *accTable) merge(gids []int32, partials []*vector.Vector, lo int) {
	hi, col := lo+len(gids), 0
	for a := range t.specs {
		st, p := &t.states[a], partials[col]
		switch kind := t.specs[a].Kind; kind {
		case AggCountStar, AggCount:
			addCounts(st.cnt, gids, p.Ints[lo:hi])
		case AggAvg:
			foldAvg(st.sum, st.cnt, gids, p.Floats[lo:hi], partials[col+1].Ints[lo:hi], nullsIn(p, lo, hi))
		case AggSum, AggMin, AggMax:
			st.fold(kind, gids, p, lo)
		}
		col += t.specs[a].PartialWidth()
	}
}

// fold folds entries lo… of a flat vector of the result type into the
// running SUM, MIN or MAX of groups gids — an input argument and a
// partial state alike.
func (st *aggState) fold(kind AggKind, gids []int32, in *vector.Vector, lo int) {
	hi, acc := lo+len(gids), &st.val
	nulls := nullsIn(in, lo, hi)
	switch {
	case kind == AggSum && acc.Typ == types.Float64:
		foldSum(acc.Floats, acc.Nulls, gids, in.Floats[lo:hi], nulls)
	case kind == AggSum:
		foldSum(acc.Ints, acc.Nulls, gids, in.Ints[lo:hi], nulls)
	case acc.Typ == types.Float64:
		foldBest(acc.Floats, acc.Nulls, gids, in.Floats[lo:hi], nulls, kind == AggMax)
	case acc.Typ == types.Varchar:
		foldBest(acc.Strs, acc.Nulls, gids, in.Strs[lo:hi], nulls, kind == AggMax)
	default:
		foldBest(acc.Ints, acc.Nulls, gids, in.Ints[lo:hi], nulls, kind == AggMax)
	}
}

// nullsIn returns the NULL flags of entries lo..hi of v, nil if it has none.
func nullsIn(v *vector.Vector, lo, hi int) []bool {
	if v.Nulls == nil {
		return nil
	}
	return v.Nulls[lo:hi]
}

// countRows adds one to cnt[gids[i]] per row i, or per non-NULL row when
// nulls is given.
func countRows(cnt []int64, gids []int32, nulls []bool) {
	if nulls == nil {
		for _, g := range gids {
			cnt[g]++
		}
		return
	}
	nulls = nulls[:len(gids)]
	for i, g := range gids {
		if !nulls[i] {
			cnt[g]++
		}
	}
}

// addCounts adds partial counts n[i] to cnt[gids[i]].
func addCounts(cnt []int64, gids []int32, n []int64) {
	n = n[:len(gids)]
	for i, g := range gids {
		cnt[g] += n[i]
	}
}

// foldSum adds each non-NULL vals[i] to sum[gids[i]] and marks that group
// seen (unseen[g] false).
func foldSum[S, T int64 | float64](sum []S, unseen []bool, gids []int32, vals []T, nulls []bool) {
	vals = vals[:len(gids)]
	if nulls == nil {
		for i, g := range gids {
			sum[g] += S(vals[i])
			unseen[g] = false
		}
		return
	}
	nulls = nulls[:len(gids)]
	for i, g := range gids {
		if !nulls[i] {
			sum[g] += S(vals[i])
			unseen[g] = false
		}
	}
}

// foldAvg adds each non-NULL vals[i] to sum[gids[i]] and counts it — one
// row, or n[i] rows when merging partial counts.
func foldAvg[T int64 | float64](sum []float64, cnt []int64, gids []int32, vals []T, n []int64, nulls []bool) {
	vals = vals[:len(gids)]
	switch {
	case n != nil:
		n = n[:len(gids)]
		for i, g := range gids {
			if nulls == nil || !nulls[i] {
				sum[g] += float64(vals[i])
				cnt[g] += n[i]
			}
		}
	case nulls == nil:
		for i, g := range gids {
			sum[g] += float64(vals[i])
			cnt[g]++
		}
	default:
		nulls = nulls[:len(gids)]
		for i, g := range gids {
			if !nulls[i] {
				sum[g] += float64(vals[i])
				cnt[g]++
			}
		}
	}
}

// foldBest keeps in best[gids[i]] the least (greatest with max) non-NULL
// vals[i], compared in place in Value.Compare's order: a NaN after every
// number, −0 beside +0 (the first seen stays).
func foldBest[T int64 | float64 | string](best []T, unseen []bool, gids []int32, vals []T, nulls []bool, max bool) {
	vals = vals[:len(gids)]
	for i, g := range gids {
		if nulls != nil && nulls[i] {
			continue
		}
		x := vals[i]
		if unseen[g] || max && before(best[g], x) || !max && before(x, best[g]) {
			best[g], unseen[g] = x, false
		}
	}
}

// before reports whether x orders before y as Value.Compare has it; for
// floats a NaN is after every number, and equal to a NaN.
func before[T int64 | float64 | string](x, y T) bool { return x < y || x == x && y != y }

// addDistinct adds the non-NULL entries lo… of arg to their groups'
// COUNT(DISTINCT) sets, accounting the bytes a new entry holds.
func (t *accTable) addDistinct(st *aggState, gids []int32, arg *vector.Vector, lo int) {
	for i, g := range gids {
		p := lo + i
		if arg.NullAt(p) {
			continue
		}
		t.key = distinctKey(t.key[:0], arg, p)
		set := st.distinct[g]
		if set == nil {
			set = map[string]struct{}{}
			st.distinct[g] = set
			t.distinctBytes += distinctSetBytes
		}
		if _, ok := set[string(t.key)]; !ok {
			set[string(t.key)] = struct{}{}
			t.distinctBytes += distinctEntryBytes + int64(len(t.key))
		}
	}
}

// distinctKey appends flat entry p of v as a COUNT(DISTINCT) set key: a
// string's bytes, or the 8 bytes of an integer or of a float's FloatWord,
// so that the values EqualAt calls equal (−0 and +0, any two NaNs) share
// one key. A set holds one argument type, so keys need no type tag.
func distinctKey(dst []byte, v *vector.Vector, p int) []byte {
	switch v.Typ {
	case types.Varchar:
		return append(dst, v.Strs[p]...)
	case types.Float64:
		return binary.LittleEndian.AppendUint64(dst, vector.FloatWord(v.Floats[p]))
	default:
		return binary.LittleEndian.AppendUint64(dst, uint64(v.Ints[p]))
	}
}

// appendPartials appends every group's partial state, in group order, to
// the partial columns (see AggSpec.PartialCols).
func (t *accTable) appendPartials(cols []*vector.Vector) {
	col := 0
	for a := range t.specs {
		st := &t.states[a]
		switch kind := t.specs[a].Kind; {
		case kind == AggAvg:
			for g, sum := range st.sum {
				if st.cnt[g] == 0 {
					cols[col].AppendNull()
				} else {
					cols[col].AppendValue(types.NewFloat(sum))
				}
			}
			cols[col+1].AppendFrom(countVector(st.cnt), nil)
		case counts(kind):
			cols[col].AppendFrom(countVector(st.cnt), nil)
		case valued(kind):
			cols[col].AppendFrom(&st.val, nil)
		}
		col += t.specs[a].PartialWidth()
	}
}

// appendFinals appends the final aggregate values of the given groups, in
// that order, to one column per aggregate.
func (t *accTable) appendFinals(cols []*vector.Vector, groups []int) {
	for a := range t.specs {
		st, out := &t.states[a], cols[a]
		switch t.specs[a].Kind {
		case AggCountStar, AggCount:
			out.AppendFrom(countVector(st.cnt), groups)
		case AggAvg:
			for _, g := range groups {
				if st.cnt[g] == 0 {
					out.AppendNull()
				} else {
					out.AppendValue(types.NewFloat(st.sum[g] / float64(st.cnt[g])))
				}
			}
		case AggCountDistinct:
			for _, g := range groups {
				out.AppendValue(types.NewInt(int64(len(st.distinct[g]))))
			}
		default: // AggSum, AggMin, AggMax
			out.AppendFrom(&st.val, groups)
		}
	}
}

// countVector views counts as an INT vector.
func countVector(cnt []int64) *vector.Vector { return &vector.Vector{Typ: types.Int64, Ints: cnt} }
