package exec

import (
	"fmt"

	"repro/internal/expr"
	"repro/internal/types"
	"repro/internal/vector"
)

// GroupBy groups and aggregates (paper §6.1 operator 2). Vertica has
// "several different hash based algorithms depending on what is needed for
// maximal performance, how much memory is allotted" plus "classic pipelined
// (one-pass) aggregates"; this operator implements:
//
//   - hash aggregation with externalization: when the hash table exceeds
//     the memory budget, groups spill as key-sorted runs of partial rows
//     that are merged at the end (requires partial-able aggregates);
//   - one-pass (pipelined) aggregation for inputs sorted by the group key,
//     with an RLE-direct fast path for COUNT(*) over run-length keys;
//   - a merge mode consuming partial rows produced by Prepass operators.
type GroupBy struct {
	single
	Keys     []expr.Expr
	KeyNames []string
	Aggs     []AggSpec

	// InputSorted selects one-pass aggregation (input sorted by Keys).
	InputSorted bool
	// MergePartials marks the input as prepass partial rows: the first
	// len(Keys) columns are keys, followed by each aggregate's partial
	// columns.
	MergePartials bool

	schema *types.Schema

	groups  *groupSet
	budget  int64 // starts at Ctx.MemBudget, grows by grant renegotiation
	extDone bool  // denied with no spill fallback: stop renegotiating
	runs    runSet

	out    []*vector.Batch
	opened bool
	prof   OpProf
}

// groupSet is the state Prepass and GroupBy aggregate into: group keys in
// the shared columnar hashTable, aggregate state in an accTable's columns,
// both numbered by the order groups were first seen.
type groupSet struct {
	table  *hashTable
	accs   accTable
	keys   []expr.Expr
	args   []expr.Expr // each aggregate's argument, nil for COUNT(*)
	gids   []int32     // scratch: the group of each row being folded in
	hashes []uint64    // scratch: the key hash of each row being folded in
}

func newGroupSet(keys []expr.Expr, keyCols []types.Column, aggs []AggSpec) *groupSet {
	keyIdx := make([]int, len(keyCols))
	for i := range keyIdx {
		keyIdx[i] = i
	}
	s := &groupSet{
		table: newHashTable(types.NewSchema(keyCols...), keyIdx, true),
		accs:  newAccTable(aggs),
		keys:  keys,
		args:  make([]expr.Expr, len(aggs)),
	}
	for i := range aggs {
		s.args[i] = aggs[i].Arg
	}
	return s
}

// memBytes is what the key store, its hash chains and dense slots, and the
// aggregate state hold, for the operator's grant.
func (s *groupSet) memBytes() int64 { return s.table.mem() + s.accs.memBytes() }

// groupInput is one batch readied for folding in: n rows of flat key and
// argument vectors (partial-state columns in partials mode), and their key
// hashes once resolveHashed has needed them.
type groupInput struct {
	keys, args []*vector.Vector
	n          int
	hashes     []uint64
}

// input readies a batch: a selection is materialized (expressions evaluate
// over every physical row, and hidden rows must not be seen), RLE columns
// are expanded, keys and arguments evaluated — or, for partials, taken from
// the columns: the first len(keys) are the keys, the rest the states.
func (s *groupSet) input(in *vector.Batch, partials bool) (groupInput, error) {
	if in.Sel != nil {
		in = in.Flatten()
	} else {
		in.ExpandRLE()
	}
	gi := groupInput{n: in.Len()}
	if cap(s.gids) < gi.n {
		s.gids = make([]int32, 0, gi.n)
	}
	if partials {
		gi.keys, gi.args = in.Cols[:len(s.keys)], in.Cols[len(s.keys):]
		return gi, nil
	}
	var err error
	if gi.keys, err = evalFlat(s.keys, in); err != nil {
		return gi, err
	}
	gi.args, err = evalFlat(s.args, in)
	return gi, err
}

// resolveHashed finds or creates the group of each row from lo on,
// leaving them in gids, and returns the row it stopped before: n, or the
// first row that needs a new group when maxGroups (> 0) already exist.
// Without keys every row belongs to the one global group, which is created
// on the first row and never looked up. A one-column integer key is
// resolved by value while the dense index serves (resolveDense); any other
// is hashed (vector.Batch.KeyHashes), once per batch, and looked up in the
// hash chains.
func (s *groupSet) resolveHashed(in *groupInput, lo, maxGroups int) int {
	if len(in.keys) == 0 {
		if s.table.len() == 0 && in.n > lo {
			s.addGlobalGroup()
		}
		s.gids = s.gids[:in.n-lo]
		clear(s.gids)
		return in.n
	}
	t := s.table
	ints := t.intKey(in.keys)
	s.gids = s.gids[:0]
	i := lo
	if ints != nil && !t.dense.off {
		if i = s.resolveDense(in, ints, lo, maxGroups); !t.dense.off {
			return i
		}
	}
	if in.hashes == nil {
		s.hashes = vector.NewBatch(in.keys...).KeyHashes(s.hashes[:0], t.keys)
		in.hashes = s.hashes
	}
	hashes := in.hashes
	for ; i < in.n; i++ {
		if ints != nil {
			// The typed loop resolves rows until one needs a new group.
			if s.gids, i = t.findInts(hashes, ints, i, in.n, s.gids); i == in.n {
				break
			}
		} else if g := t.find(hashes[i], in.keys, i); g >= 0 {
			s.gids = append(s.gids, int32(g))
			continue
		}
		if maxGroups > 0 && t.len() >= maxGroups {
			return i
		}
		s.gids = append(s.gids, int32(t.add(hashes[i], in.keys, i)))
		s.accs.addGroup()
	}
	return in.n
}

// resolveDense is resolveHashed by the dense index, for a flat integer key
// vector: a row's group is its key's slot. A key outside the index's range
// widens it over the rest of the batch (denseIndex.fit); where that would
// take too many slots, the index turns off and resolveDense returns the
// row, for hashing to go on from. A new group is stored in the table with
// its key hash, as hashing would store it, and recorded in its slot.
func (s *groupSet) resolveDense(in *groupInput, keys *vector.Vector, lo, maxGroups int) int {
	t, d, n := s.table, &s.table.dense, in.n
	ints, nulls := keys.Ints[:n], keys.Nulls
	if nulls != nil {
		nulls = nulls[:n]
	}
	gids := s.gids[:n-lo] // input gave gids room for n
	i := lo
	for {
		if i = denseHits(gids[i-lo:], ints[i:], nulls, d, i); i == n {
			break
		}
		// Row i's key is out of range, or has no group yet.
		null := nulls != nil && nulls[i]
		if !null && uint64(ints[i]-d.base) >= uint64(len(d.slots)) {
			if !d.fit(keys, i, n, denseLimit(t.len())) {
				break
			}
			continue
		}
		if maxGroups > 0 && t.len() >= maxGroups {
			break
		}
		g := int32(t.add(vector.KeyHash(keys, i), in.keys, i))
		s.accs.addGroup()
		if null {
			d.null = g
		} else {
			d.slots[ints[i]-d.base] = g
		}
		gids[i-lo] = g
		i++
	}
	s.gids = gids[:i-lo]
	return i
}

// denseHits is resolveDense's loop over keys that have a group: it writes
// the group of ints[j], row i+j of the batch, to gids[j], and returns the
// first row whose key is out of range or has no group yet, or i+len(ints).
func denseHits(gids []int32, ints []int64, nulls []bool, d *denseIndex, i int) int {
	slots, base, null := d.slots, d.base, d.null
	gids = gids[:len(ints)]
	for j, x := range ints {
		g := null
		if nulls == nil || !nulls[i+j] {
			k := uint64(x - base)
			if k >= uint64(len(slots)) {
				return i + j
			}
			g = slots[k]
		}
		if g < 0 {
			return i + j
		}
		gids[j] = g
	}
	return i + len(ints)
}

// addGlobalGroup creates the one group of a keyless aggregation.
func (s *groupSet) addGlobalGroup() {
	s.table.add(0, nil, 0)
	s.accs.addGroup()
}

// resolveSorted is resolveHashed for key-sorted input: a row either
// continues the newest group or opens the next one.
func (s *groupSet) resolveSorted(in groupInput) {
	s.gids = s.gids[:0]
	for i := 0; i < in.n; i++ {
		g := s.table.len() - 1
		if g < 0 || !s.table.sameKey(g, in.keys, i) {
			g = s.table.add(0, in.keys, i)
			s.accs.addGroup()
		}
		s.gids = append(s.gids, int32(g))
	}
}

// keyColumns derives the key columns of an aggregation's output schema.
func keyColumns(keys []expr.Expr, keyNames []string) []types.Column {
	cols := make([]types.Column, len(keys))
	for i, k := range keys {
		name := ""
		if keyNames != nil {
			name = keyNames[i]
		}
		if name == "" {
			name = k.String()
		}
		cols[i] = types.Column{Name: name, Typ: k.Type(), Nullable: true}
	}
	return cols
}

// evalFlat evaluates expressions over a flat batch into flat vectors; nil
// expressions (COUNT(*) arguments) yield nil.
func evalFlat(exprs []expr.Expr, in *vector.Batch) ([]*vector.Vector, error) {
	out := make([]*vector.Vector, len(exprs))
	for i, e := range exprs {
		if e == nil {
			continue
		}
		v, err := e.Eval(in)
		if err != nil {
			return nil, err
		}
		out[i] = v.Expand()
	}
	return out, nil
}

// NewGroupBy builds a grouping node.
func NewGroupBy(child Operator, keys []expr.Expr, keyNames []string, aggs []AggSpec) *GroupBy {
	g := &GroupBy{single: single{child: child}, Keys: keys, KeyNames: keyNames, Aggs: aggs}
	cols := keyColumns(keys, keyNames)
	for i := range aggs {
		name := aggs[i].Name
		if name == "" {
			name = aggs[i].String()
		}
		cols = append(cols, types.Column{Name: name, Typ: aggs[i].ResultType(), Nullable: true})
	}
	g.schema = types.NewSchema(cols...)
	return g
}

// Schema implements Operator.
func (g *GroupBy) Schema() *types.Schema { return g.schema }

// Describe implements Operator.
func (g *GroupBy) Describe() string {
	mode := "hash"
	if g.InputSorted {
		mode = "one-pass"
	}
	if g.MergePartials {
		mode += "+merge-partials"
	}
	keys := make([]string, len(g.Keys))
	for i, k := range g.Keys {
		keys[i] = k.String()
	}
	return fmt.Sprintf("GroupBy(%s) keys=%v aggs=[%s]", mode, keys, describeAggs(g.Aggs))
}

// Open implements Operator.
func (g *GroupBy) Open(ctx *Ctx) error {
	g.groups = newGroupSet(g.Keys, g.schema.Cols[:len(g.Keys)], g.Aggs)
	g.budget = ctx.MemBudget
	g.extDone = false
	g.runs.close()
	g.out = nil
	g.opened = false
	return g.openChild(ctx)
}

// Close implements Operator.
func (g *GroupBy) Close(ctx *Ctx) error {
	g.runs.close()
	g.groups = nil
	return g.closeChild(ctx)
}

// next is the operator body behind the profiled Next (profile.go).
func (g *GroupBy) next(ctx *Ctx) (*vector.Batch, error) {
	if !g.opened {
		if err := g.consumeAll(ctx); err != nil {
			return nil, err
		}
		g.opened = true
	}
	if len(g.out) == 0 {
		return nil, nil
	}
	b := g.out[0]
	g.out = g.out[1:]
	return b, nil
}

func (g *GroupBy) consumeAll(ctx *Ctx) error {
	for {
		if err := ctx.Canceled(); err != nil {
			return err
		}
		in, err := g.child.Next(ctx)
		if err != nil {
			return err
		}
		if in == nil {
			break
		}
		if g.InputSorted {
			err = g.consumeSorted(in)
		} else {
			err = g.consumeHash(ctx, in)
		}
		if err != nil {
			return err
		}
	}
	if g.InputSorted {
		g.emitGroups(nil)
		return nil
	}
	return g.finishHash(ctx)
}

// consume folds one input batch into the groups. sorted input resolves a
// row's group by comparing with the newest group instead of hashing;
// partials input carries keys and partial states rather than raw rows.
func (g *GroupBy) consume(batch *vector.Batch, sorted, partials bool) error {
	s := g.groups
	in, err := s.input(batch, partials)
	if err != nil {
		return err
	}
	if sorted {
		s.resolveSorted(in)
	} else {
		s.resolveHashed(&in, 0, 0)
	}
	if partials {
		s.accs.merge(s.gids, in.args, 0)
	} else {
		s.accs.update(s.gids, in.args, 0)
	}
	return nil
}

// --- hash aggregation ---------------------------------------------------

// consumeHash folds a batch in by hash and then holds the operator to its
// budget. What is charged is what the group set holds: the columnar key
// store (8 bytes per fixed-width key, header plus payload per string key),
// the table's hash and chain entries, the accumulators and the
// COUNT(DISTINCT) sets.
func (g *GroupBy) consumeHash(ctx *Ctx, in *vector.Batch) error {
	if err := g.consume(in, false, g.MergePartials); err != nil {
		return err
	}
	memUsed := g.groups.memBytes()
	ctx.noteAlloc(&g.prof, memUsed)
	for memUsed > g.budget && !g.extDone {
		// Renegotiate the grant at the spill threshold; externalize only on
		// denial. Holistic aggregates (no partial form) cannot spill at all,
		// so for them a granted extension also keeps the accounting honest.
		if ext := ctx.extendBudget(g.budget, memUsed); ext > 0 {
			g.budget += ext
			continue
		}
		if !g.canSpill() {
			// No spill fallback and the pool said no: memUsed stays above
			// budget for the rest of the query, so remember the denial
			// instead of re-asking (and re-counting) on every batch.
			g.extDone = true
			break
		}
		if err := g.spillGroups(ctx); err != nil {
			return err
		}
		break
	}
	return nil
}

func (g *GroupBy) canSpill() bool {
	if g.MergePartials {
		return true
	}
	for i := range g.Aggs {
		if !g.Aggs[i].SupportsPartial() {
			return false
		}
	}
	return true
}

// partials renders the groups as key-sorted partial rows (keys, then each
// aggregate's partial columns; in merge mode, the input's layout) — the form
// of a spill run.
func (g *GroupBy) partials() (*types.Schema, *vector.Batch) {
	s := g.groups
	schema := g.child.Schema()
	if !g.MergePartials {
		schema = partialSchema(g.schema.Cols[:len(g.Keys)], g.Aggs)
	}
	cols := append([]*vector.Vector{}, s.table.rows.Cols...)
	for _, c := range schema.Cols[len(cols):] {
		cols = append(cols, vector.New(c.Typ, s.table.len()))
	}
	s.accs.appendPartials(cols[len(g.Keys):])
	return schema, (&vector.Batch{Cols: cols, Sel: s.table.keyOrder()}).Flatten()
}

// spillGroups writes the hash table as a key-sorted partial run and resets.
func (g *GroupBy) spillGroups(ctx *Ctx) error {
	schema, rows := g.partials()
	if _, err := g.runs.spill(ctx, &g.prof, "GROUP_BY_SPILLED", schema, rows); err != nil {
		return err
	}
	g.groups.table.release()
	g.groups.accs.reset()
	return nil
}

// finishHash produces the final output: the in-memory groups in key order,
// or, after spills, the merge of the spilled runs and the in-memory
// remainder — a key-sorted stream of partial rows, which is folded in the
// way one-pass aggregation folds sorted partials.
func (g *GroupBy) finishHash(ctx *Ctx) error {
	s := g.groups
	if len(g.runs.runs) == 0 {
		// SQL semantics: a global aggregate (no GROUP BY) over an empty
		// input still yields one row (COUNT(*) = 0, SUM = NULL, ...).
		if len(g.Keys) == 0 && s.table.len() == 0 && len(g.Aggs) > 0 {
			s.addGlobalGroup()
		}
		g.emitGroups(s.table.keyOrder())
		return nil
	}
	_, rest := g.partials()
	merged := mergeRuns(vector.KeySpecs(s.table.keys), g.runs.runs, rest)
	s.table.release()
	s.accs.reset()
	for {
		if err := ctx.Canceled(); err != nil {
			return err
		}
		batch, err := merged.Next()
		if err != nil {
			return err
		}
		if batch == nil {
			break
		}
		if err := g.consume(batch, true, true); err != nil {
			return err
		}
	}
	g.emitGroups(nil)
	return nil
}

// emitGroups queues the final output, a batch at a time by column append:
// the given groups in that order, or every group in the order first seen
// when order is nil.
func (g *GroupBy) emitGroups(order []int) {
	s := g.groups
	if order == nil {
		order = make([]int, s.table.len())
		for i := range order {
			order[i] = i
		}
	}
	for len(order) > 0 {
		part := order[:min(len(order), vector.DefaultBatchSize)]
		order = order[len(part):]
		b := vector.NewBatchForSchema(g.schema, len(part))
		for k := range g.Keys {
			b.Cols[k].AppendFrom(s.table.rows.Cols[k], part)
		}
		s.accs.appendFinals(b.Cols[len(g.Keys):], part)
		g.out = append(g.out, b)
	}
}

// --- one-pass (pipelined) aggregation ------------------------------------

func (g *GroupBy) consumeSorted(in *vector.Batch) error {
	// RLE-direct fast path: COUNT(*)-only aggregates over run-length keys
	// never touch individual rows.
	if g.tryRLEDirect(in) {
		return nil
	}
	return g.consume(in, true, g.MergePartials)
}

// tryRLEDirect consumes the batch via run-length counts when every key is a
// direct column reference in RLE form with aligned runs and every aggregate
// is COUNT(*). Returns false (leaving the batch unconsumed) otherwise.
func (g *GroupBy) tryRLEDirect(in *vector.Batch) bool {
	if in.Sel != nil || g.MergePartials {
		return false
	}
	for i := range g.Aggs {
		if g.Aggs[i].Kind != AggCountStar {
			return false
		}
	}
	runVals := make([]*vector.Vector, len(g.Keys)) // one entry per run
	var runs []int
	for i, k := range g.Keys {
		cr, ok := k.(*expr.ColRef)
		if !ok || cr.Idx >= len(in.Cols) {
			return false
		}
		v := in.Cols[cr.Idx]
		if !v.IsRLE() {
			return false
		}
		if runs == nil {
			runs = v.RunLens
		} else if !sameRuns(runs, v.RunLens) {
			return false
		}
		runVals[i] = v.RunValues()
	}
	if runs == nil {
		return false
	}
	s := g.groups
	for r, n := range runs {
		grp := s.table.len() - 1
		if grp < 0 || !s.table.sameKey(grp, runVals, r) {
			grp = s.table.add(0, runVals, r)
			s.accs.addGroup()
		}
		s.accs.addCount(grp, n)
	}
	return true
}

func sameRuns(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
