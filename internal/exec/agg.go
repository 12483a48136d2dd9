package exec

import (
	"fmt"
	"strings"
	"unsafe"

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

// aggAcc is one aggregate's accumulator within one group.
type aggAcc struct {
	kind  AggKind
	typ   types.Type
	seen  bool
	count int64
	sumI  int64
	sumF  float64
	best  types.Value // running MIN or MAX
	// distinct values for COUNT(DISTINCT) in hash mode.
	distinct map[string]bool
}

func newAggAcc(spec *AggSpec) aggAcc {
	acc := aggAcc{kind: spec.Kind}
	if spec.Arg != nil {
		acc.typ = spec.Arg.Type()
	}
	if spec.Kind == AggCountDistinct {
		acc.distinct = map[string]bool{}
	}
	return acc
}

// update folds one input value into the accumulator (v ignored for
// COUNT(*)) — the single-value form, for row-at-a-time callers and the
// aggregates accTable has no typed loop for. COUNT(DISTINCT) sets are
// maintained by accTable.update, which accounts their bytes.
func (a *aggAcc) update(v types.Value) {
	switch a.kind {
	case AggCountStar:
		a.count++
	case AggCount:
		if !v.Null {
			a.count++
		}
	case AggSum, AggAvg:
		if v.Null {
			return
		}
		a.seen = true
		a.count++
		if v.Typ == types.Float64 {
			a.sumF += v.F
		} else {
			a.sumI += v.I
			a.sumF += float64(v.I)
		}
	case AggMin, AggMax:
		if v.Null {
			return
		}
		if !a.seen || (a.kind == AggMin && v.Compare(a.best) < 0) || (a.kind == AggMax && v.Compare(a.best) > 0) {
			a.best = v
		}
		a.seen = true
	}
}

// final produces the aggregate's result value.
func (a *aggAcc) final() types.Value {
	switch a.kind {
	case AggCountStar, AggCount:
		return types.NewInt(a.count)
	case AggCountDistinct:
		return types.NewInt(int64(len(a.distinct)))
	case AggSum:
		if !a.seen {
			return types.NewNull(a.typ)
		}
		if a.typ == types.Float64 {
			return types.NewFloat(a.sumF)
		}
		return types.Value{Typ: a.typ, I: a.sumI}
	case AggAvg:
		if !a.seen {
			return types.NewNull(types.Float64)
		}
		return types.NewFloat(a.sumF / float64(a.count))
	default: // AggMin, AggMax
		if !a.seen {
			return types.NewNull(a.typ)
		}
		return a.best
	}
}

// partial appends the accumulator's partial-state values (prepass output;
// see AggSpec.PartialCols) to dst.
func (a *aggAcc) partial(dst []types.Value) []types.Value {
	switch a.kind {
	case AggCountStar, AggCount:
		return append(dst, types.NewInt(a.count))
	case AggAvg:
		if !a.seen {
			return append(dst, types.NewNull(types.Float64), types.NewInt(0))
		}
		return append(dst, types.NewFloat(a.sumF), types.NewInt(a.count))
	case AggSum, AggMin, AggMax:
		return append(dst, a.final())
	default:
		return dst
	}
}

// accTable holds the accumulators of every group of a Prepass or GroupBy in
// one flat slice, group-major: aggregate a of group g is accs[g*len(specs)+a].
// Groups are numbered as the operator's hashTable numbers their key rows.
// Input is folded in column at a time, so the per-aggregate type dispatch
// happens once per batch and a row joining an existing group allocates
// nothing.
type accTable struct {
	specs []AggSpec
	accs  []aggAcc
	// distinctBytes is what the COUNT(DISTINCT) sets hold.
	distinctBytes int64
}

// Bytes charged per accumulator and per COUNT(DISTINCT) set entry (string
// header, map slot and bucket share; the key's bytes are added on top).
const (
	aggAccBytes        = int64(unsafe.Sizeof(aggAcc{}))
	distinctEntryBytes = 48
)

// memBytes is what the accumulators hold, for the operator's grant.
func (t *accTable) memBytes() int64 { return int64(len(t.accs))*aggAccBytes + t.distinctBytes }

func (t *accTable) reset() { t.accs, t.distinctBytes = t.accs[:0], 0 }

// addGroup appends a fresh group's accumulators.
func (t *accTable) addGroup() {
	for a := range t.specs {
		t.accs = append(t.accs, newAggAcc(&t.specs[a]))
	}
}

// update folds input rows into their groups: row lo+i of each aggregate's
// flat argument vector goes to group gids[i].
func (t *accTable) update(gids []int32, args []*vector.Vector, lo int) {
	na := len(t.specs)
	for a := range t.specs {
		accs, arg := t.accs[a:], args[a]
		switch t.specs[a].Kind {
		case AggCountStar:
			for _, g := range gids {
				accs[int(g)*na].count++
			}
		case AggCount:
			for i, g := range gids {
				if !arg.NullAt(lo + i) {
					accs[int(g)*na].count++
				}
			}
		case AggSum, AggAvg:
			for i, g := range gids {
				p := lo + i
				if arg.NullAt(p) {
					continue
				}
				acc := &accs[int(g)*na]
				acc.seen = true
				acc.count++
				if arg.Typ == types.Float64 {
					acc.sumF += arg.Floats[p]
				} else {
					acc.sumI += arg.Ints[p]
					acc.sumF += float64(arg.Ints[p])
				}
			}
		case AggMin, AggMax:
			for i, g := range gids {
				accs[int(g)*na].update(arg.ValueAt(lo + i))
			}
		case AggCountDistinct:
			for i, g := range gids {
				p := lo + i
				if arg.NullAt(p) {
					continue
				}
				set, key := accs[int(g)*na].distinct, distinctKey(arg.ValueAt(p))
				if !set[key] {
					set[key] = true
					t.distinctBytes += distinctEntryBytes + int64(len(key))
				}
			}
		}
	}
}

// merge folds partial-state rows (as partial produces them) into their
// groups: row lo+i of the partial columns goes to group gids[i].
func (t *accTable) merge(gids []int32, partials []*vector.Vector, lo int) {
	na, col := len(t.specs), 0
	for a := range t.specs {
		accs, p := t.accs[a:], partials[col]
		switch t.specs[a].Kind {
		case AggCountStar, AggCount:
			for i, g := range gids {
				accs[int(g)*na].count += p.Ints[lo+i]
			}
		case AggAvg:
			cnt := partials[col+1]
			for i, g := range gids {
				if r := lo + i; !p.NullAt(r) {
					acc := &accs[int(g)*na]
					acc.seen = true
					acc.sumF += p.Floats[r]
					acc.count += cnt.Ints[r]
				}
			}
		case AggSum:
			for i, g := range gids {
				r := lo + i
				if p.NullAt(r) {
					continue
				}
				acc := &accs[int(g)*na]
				acc.seen = true
				if p.Typ == types.Float64 {
					acc.sumF += p.Floats[r]
				} else {
					acc.sumI += p.Ints[r]
				}
			}
		case AggMin, AggMax:
			for i, g := range gids {
				accs[int(g)*na].update(p.ValueAt(lo + i))
			}
		}
		col += t.specs[a].PartialWidth()
	}
}

// appendPartials appends every group's partial-state values, in group
// order, to the partial columns.
func (t *accTable) appendPartials(cols []*vector.Vector) {
	var buf [2]types.Value
	na, col := len(t.specs), 0
	for a := range t.specs {
		for i := a; i < len(t.accs); i += na {
			for w, v := range t.accs[i].partial(buf[:0]) {
				cols[col+w].AppendValue(v)
			}
		}
		col += t.specs[a].PartialWidth()
	}
}

// appendFinals appends the final aggregate values of the given groups, in
// that order, to one column per aggregate.
func (t *accTable) appendFinals(cols []*vector.Vector, groups []int) {
	na := len(t.specs)
	for a := range t.specs {
		for _, g := range groups {
			cols[a].AppendValue(t.accs[g*na+a].final())
		}
	}
}

// distinctKey canonicalizes a value for distinct-set membership.
func distinctKey(v types.Value) string {
	switch v.Typ {
	case types.Varchar:
		return "s" + v.S
	case types.Float64:
		return fmt.Sprintf("f%x", v.F)
	default:
		return fmt.Sprintf("i%d", v.I)
	}
}
