package exec

import (
	"errors"
	"fmt"

	"repro/internal/expr"
	"repro/internal/metrics"
	"repro/internal/types"
	"repro/internal/vector"
)

// JoinType enumerates the supported join flavors (paper §6.1: "all flavors
// of INNER, LEFT OUTER, RIGHT OUTER, FULL OUTER, SEMI, and ANTI joins").
type JoinType uint8

// Join flavors.
const (
	InnerJoin JoinType = iota
	LeftOuterJoin
	RightOuterJoin
	FullOuterJoin
	SemiJoin
	AntiJoin
)

func (t JoinType) String() string {
	switch t {
	case InnerJoin:
		return "INNER"
	case LeftOuterJoin:
		return "LEFT OUTER"
	case RightOuterJoin:
		return "RIGHT OUTER"
	case FullOuterJoin:
		return "FULL OUTER"
	case SemiJoin:
		return "SEMI"
	case AntiJoin:
		return "ANTI"
	default:
		return fmt.Sprintf("JOIN(%d)", t)
	}
}

// HashJoin builds a hash table from its inner (build) input and probes it
// with the outer input, batch at a time and column-wise throughout: build
// rows are stored in the shared columnar hashTable, a probe batch is hashed
// as a vector, matches are collected as (probe row, build row) index pairs,
// and output is gathered from the two sides by those indexes. If the build
// side exceeds the memory budget at run time, the operator switches to a
// sort-merge join ("we will perform a sort-merge join instead", paper
// §6.1). When a SIP filter is attached, the built table is published to the
// probe-side scan.
type HashJoin struct {
	Type  JoinType
	outer Operator
	inner Operator
	// OuterKeys / InnerKeys are equi-join column indexes (aligned pairs).
	OuterKeys []int
	InnerKeys []int
	// Residual is an extra non-equi predicate over the combined schema
	// (outer columns then inner columns).
	Residual expr.Expr
	// SIP, when set, is handed the built table (see sip.go).
	SIP *SIPFilter

	schema    *types.Schema
	resSchema *types.Schema // outer+inner, for vectorized residual eval
	// keep lists the columns of the joined row the output carries (Keep);
	// nil carries them all.
	keep []int

	table *hashTable
	// matchedBuild marks build rows that found a partner (right/full outer
	// only); unmatchedPos walks it once the outer input is exhausted.
	matchedBuild []bool
	unmatchedPos int
	ready        bool // the table is built, or merge is set
	spilled      bool
	merge        *mergeWalk // set by the runtime switch to sort-merge
	runs         runSet     // what its sorters spilled
	// share holds the build: the join's own, or the one the hash joins of a
	// fan's workers probe together (fan.go); sharing is set from Open to
	// Close.
	share   *buildShare
	sharing bool

	// Probe state. A probe batch is worked off in chunks of at most
	// vector.DefaultBatchSize output rows, so (pos, chain) can stop in the
	// middle of one outer row's chain of duplicates and resume there.
	in         *vector.Batch    // outer batch being probed (RLE expanded); nil when the next is due
	inKeys     []*vector.Vector // its key columns
	hashes     []uint64         // one per live row of in
	pos        int              // next live row of in
	chain      int32            // where row pos resumes in its chain, chainStart when not begun
	rowMatched bool             // row pos already matched in an earlier chunk
	solo       []int            // semi/anti: rows of in to emit, collected across chunks

	probeIdx, buildIdx []int // scratch: candidate pairs of one chunk
	visited            []probedRow
	prof               OpProf
}

// probedRow is one outer row visited by a probe chunk: its physical index
// and where its candidates end in the chunk's pair lists.
type probedRow struct{ phys, end int }

const chainStart = -2

// NewHashJoin builds a hash join; outer is the probe side, inner the build
// side ("the HashJoin will first create a hash table from the inner input").
func NewHashJoin(t JoinType, outer, inner Operator, outerKeys, innerKeys []int) (*HashJoin, error) {
	if len(outerKeys) != len(innerKeys) || len(outerKeys) == 0 {
		return nil, fmt.Errorf("exec: join requires aligned, non-empty key lists")
	}
	j := &HashJoin{Type: t, outer: outer, inner: inner, OuterKeys: outerKeys, InnerKeys: innerKeys,
		share:    &buildShare{inner: inner},
		probeIdx: make([]int, 0, vector.DefaultBatchSize),
		buildIdx: make([]int, 0, vector.DefaultBatchSize),
		visited:  make([]probedRow, 0, vector.DefaultBatchSize)}
	j.schema = joinSchema(t, outer.Schema(), inner.Schema())
	j.resSchema = combinedSchema(outer.Schema(), inner.Schema())
	return j, nil
}

// combinedSchema is the residual predicate's evaluation schema: outer
// columns then inner columns, regardless of join type (semi/anti joins drop
// the inner columns from their output but residuals still see them).
func combinedSchema(outer, inner *types.Schema) *types.Schema {
	cols := append(append([]types.Column{}, outer.Cols...), inner.Cols...)
	return types.NewSchema(cols...)
}

// residualMask evaluates a residual predicate once, vectorized, over a flat
// batch of candidate combined rows, returning the keep mask.
func residualMask(res expr.Expr, cands *vector.Batch) ([]bool, error) {
	v, err := res.Eval(cands)
	if err != nil {
		return nil, err
	}
	v = v.Expand()
	mask := make([]bool, cands.Len())
	for i := range mask {
		mask[i] = !v.NullAt(i) && v.Ints[i] != 0
	}
	return mask, nil
}

func joinSchema(t JoinType, outer, inner *types.Schema) *types.Schema {
	cols := append([]types.Column{}, outer.Cols...)
	if t != SemiJoin && t != AntiJoin {
		cols = append(cols, inner.Cols...)
	}
	// Join outputs are nullable on the padded side.
	out := make([]types.Column, len(cols))
	copy(out, cols)
	for i := range out {
		out[i].Nullable = true
	}
	return types.NewSchema(out...)
}

// Keep narrows the output of an INNER or OUTER join to the given columns
// of the joined row (outer columns, then inner), in order: the planner
// passes the ones read above the join, so the probe gathers nothing else.
// The residual still sees the whole joined row.
func (j *HashJoin) Keep(cols []int) {
	full := joinSchema(j.Type, j.outer.Schema(), j.inner.Schema())
	out := make([]types.Column, len(cols))
	for i, c := range cols {
		out[i] = full.Col(c)
	}
	j.keep, j.schema = cols, types.NewSchema(out...)
}

// kept returns the output's columns of the joined row cols.
func (j *HashJoin) kept(cols []*vector.Vector) []*vector.Vector {
	if j.keep == nil {
		return cols
	}
	out := make([]*vector.Vector, len(j.keep))
	for i, c := range j.keep {
		out[i] = cols[c]
	}
	return out
}

// Schema implements Operator.
func (j *HashJoin) Schema() *types.Schema { return j.schema }

// Children implements the plan walker.
func (j *HashJoin) Children() []Operator { return []Operator{j.outer, j.inner} }

// Describe implements Operator.
func (j *HashJoin) Describe() string {
	d := fmt.Sprintf("HashJoin %s outerKeys=%v innerKeys=%v", j.Type, j.OuterKeys, j.InnerKeys)
	if j.spilled {
		d += " (switched to sort-merge)"
	}
	if j.SIP != nil {
		d += " +sip"
	}
	return d
}

// Open implements Operator.
func (j *HashJoin) Open(ctx *Ctx) error {
	j.runs.close()
	j.table, j.matchedBuild, j.merge, j.in = nil, nil, nil, nil
	j.ready, j.spilled = false, false
	j.unmatchedPos = 0
	if err := j.outer.Open(ctx); err != nil {
		return err
	}
	j.sharing = true
	return j.share.open(ctx)
}

// Close implements Operator.
func (j *HashJoin) Close(ctx *Ctx) error {
	j.runs.close()
	err := j.outer.Close(ctx)
	if j.sharing {
		j.sharing = false
		if innerErr := j.share.close(ctx, j.SIP); err == nil {
			err = innerErr
		}
	}
	return err
}

// build drains the inner input into the hash table, renegotiating the grant
// at the budget threshold; when the governor denies the extension it sorts
// the inner side instead, its runs owned by runs, and returns that sorter
// (the table is then nil). What is charged is what the columnar store
// holds: 8 bytes per fixed-width value, header plus payload per string, and
// the table's hash and chain entries per row.
func (j *HashJoin) build(ctx *Ctx, runs *runSet) (*sorter, error) {
	j.table = newHashTable(j.inner.Schema(), j.InnerKeys, false)
	budget := ctx.MemBudget
	for {
		if err := ctx.Canceled(); err != nil {
			return nil, err
		}
		in, err := j.inner.Next(ctx)
		if err != nil {
			return nil, err
		}
		if in == nil {
			break
		}
		j.table.appendBatch(in)
		mem := j.table.mem()
		ctx.noteAlloc(&j.prof, mem)
		for mem > budget {
			// Ask for more memory before abandoning the hash table: the
			// sort-merge switch rereads the whole inner side, so growing in
			// place is strictly cheaper while the pool has headroom.
			if ext := ctx.extendBudget(budget, mem); ext > 0 {
				budget += ext
				continue
			}
			// Runtime algorithm switch: abandon the hash table and join by
			// sorting both sides. The budget extended so far stays granted,
			// so the inner sorter inherits it rather than re-requesting
			// memory the query already holds.
			return j.sortInner(ctx, budget, runs)
		}
	}
	j.table.link()
	if j.Type == RightOuterJoin || j.Type == FullOuterJoin {
		j.matchedBuild = make([]bool, j.table.len())
	}
	if j.SIP != nil {
		j.SIP.table.Store(j.table)
	}
	return nil, nil
}

// next is the operator body behind the profiled Next (profile.go).
func (j *HashJoin) next(ctx *Ctx) (*vector.Batch, error) {
	if err := ctx.Canceled(); err != nil {
		return nil, err
	}
	if !j.ready {
		// The table built — by this join, or by the fan's worker that built
		// the shared one — or, when the build was denied memory, both sides
		// sorted for the merge-join loop.
		inner, err := j.share.acquire(ctx, j)
		if err == nil && inner != nil {
			err = j.mergeOuter(ctx, inner)
		}
		if err != nil {
			return nil, err
		}
		j.ready = true
	}
	if j.merge != nil {
		out, err := j.merge.next()
		if out != nil {
			out.Cols = j.kept(out.Cols)
		}
		return out, err
	}
	for {
		if j.in == nil {
			in, err := j.outer.Next(ctx)
			if err != nil {
				return nil, err
			}
			if in == nil {
				return j.unmatchedBuild(), nil
			}
			j.startProbe(in)
		}
		var out *vector.Batch
		if j.Residual == nil && (j.Type == SemiJoin || j.Type == AntiJoin) {
			out = j.probeExists()
		} else {
			var err error
			if out, err = j.probeChunk(); err != nil {
				return nil, err
			}
		}
		if out != nil && out.Len() > 0 {
			return out, nil
		}
	}
}

// startProbe hashes an outer batch's keys as a vector (once per run for RLE
// key columns, honouring the selection) and readies it for probeChunk.
func (j *HashJoin) startProbe(in *vector.Batch) {
	j.hashes = in.KeyHashes(j.hashes[:0], j.OuterKeys)
	in.ExpandRLE() // rows are addressed physically from here on
	j.in = in
	j.inKeys = j.inKeys[:0]
	for _, k := range j.OuterKeys {
		j.inKeys = append(j.inKeys, in.Cols[k])
	}
	j.pos, j.chain = 0, chainStart
	if j.Type == SemiJoin || j.Type == AntiJoin {
		j.solo = make([]int, 0, len(j.hashes)) // becomes the output's selection
	}
}

// probeExists decides a residual-free semi/anti join for the whole probe
// batch — the first key match settles a row, no candidates are gathered —
// and returns the batch with its selection narrowed to the rows kept.
func (j *HashJoin) probeExists() *vector.Batch {
	in, t := j.in, j.table
	ints := t.intKey(j.inKeys)
	for i, h := range j.hashes {
		phys := i
		if in.Sel != nil {
			phys = in.Sel[i]
		}
		var row int
		if ints != nil {
			row = t.findInt(h, ints, phys)
		} else {
			row = t.find(h, j.inKeys, phys)
		}
		if found := row >= 0; found == (j.Type == SemiJoin) {
			j.solo = append(j.solo, phys)
		}
	}
	j.in = nil
	return &vector.Batch{Cols: in.Cols, Sel: j.solo}
}

// probeChunk advances the probe of the current outer batch by one output
// batch: it collects candidate (probe row, build row) pairs by hash and
// typed key equality until vector.DefaultBatchSize output rows are due,
// evaluates the residual (if any) once over the gathered candidates, does
// the match bookkeeping on the survivors and gathers the output. NULL keys
// never match: the table does not link them. Semi/anti joins (which come
// here only with a residual) need one decision per outer row, so a row
// that matched in an earlier chunk skips the rest of its chain, and their
// output is the probe batch itself, selection narrowed, once it is done.
func (j *HashJoin) probeChunk() (*vector.Batch, error) {
	t, in := j.table, j.in
	ints := t.intKey(j.inKeys)
	semi := j.Type == SemiJoin || j.Type == AntiJoin
	pi, bi, visited := j.probeIdx[:0], j.buildIdx[:0], j.visited[:0]
	carried := j.chain != chainStart && j.rowMatched
	room := vector.DefaultBatchSize
	for j.pos < len(j.hashes) && room > 0 {
		phys := j.pos
		if in.Sel != nil {
			phys = in.Sel[j.pos]
		}
		h := j.hashes[j.pos]
		c := j.chain
		switch {
		case c == chainStart:
			c = t.head(h)
		case semi && carried:
			c = -1 // decided already; a skewed chain is not walked to its end
		}
		start := len(pi)
		for ; c >= 0 && room > 0; c = t.next[c] {
			if ints != nil && t.matchesInt(c, h, ints, phys) || ints == nil && t.matches(c, h, j.inKeys, phys) {
				pi, bi = append(pi, phys), append(bi, int(c))
				room--
			}
		}
		visited = append(visited, probedRow{phys, len(pi)})
		if c >= 0 {
			j.chain = c // out of room mid-chain: the next chunk resumes here
			break
		}
		j.chain = chainStart
		j.pos++
		if len(pi) == start {
			room-- // may surface as an unmatched outer row
		}
	}
	j.probeIdx, j.buildIdx, j.visited = pi, bi, visited
	midRow := j.chain != chainStart

	var mask []bool
	if j.Residual != nil && len(pi) > 0 {
		var err error
		if mask, err = residualMask(j.Residual, j.gather(j.resSchema, nil, pi, bi, nil)); err != nil {
			return nil, err
		}
	}
	var unmatched []int // left/full: outer rows to pad
	k, c := 0, 0
	for r, v := range visited {
		matched := r == 0 && carried
		for ; c < v.end; c++ {
			if mask != nil && !mask[c] {
				continue
			}
			matched = true
			if j.matchedBuild != nil {
				j.matchedBuild[bi[c]] = true
			}
			pi[k], bi[k] = pi[c], bi[c]
			k++
		}
		if midRow && r == len(visited)-1 {
			j.rowMatched = matched
			break
		}
		switch j.Type {
		case SemiJoin:
			if matched {
				j.solo = append(j.solo, v.phys)
			}
		case AntiJoin:
			if !matched {
				j.solo = append(j.solo, v.phys)
			}
		case LeftOuterJoin, FullOuterJoin:
			if !matched {
				unmatched = append(unmatched, v.phys)
			}
		}
	}
	done := j.pos >= len(j.hashes)
	var out *vector.Batch
	switch {
	case !semi:
		out = j.gather(j.schema, j.keep, pi[:k], bi[:k], unmatched)
	case done:
		out = &vector.Batch{Cols: in.Cols, Sel: j.solo}
	}
	if done {
		j.in = nil
	}
	return out, nil
}

// gather assembles rows of the given schema column-wise, its columns those
// of the joined row at cols (nil for all of them): the outer columns of the
// current probe batch at probeIdx beside the build columns at buildIdx, then
// the outer rows in padded beside NULLs.
func (j *HashJoin) gather(schema *types.Schema, cols, probeIdx, buildIdx, padded []int) *vector.Batch {
	out := vector.NewBatchForSchema(schema, len(probeIdx)+len(padded))
	nOuter := len(j.in.Cols)
	for i, col := range out.Cols {
		c := i
		if cols != nil {
			c = cols[i]
		}
		if c < nOuter {
			if len(probeIdx) > 0 {
				col.AppendFrom(j.in.Cols[c], probeIdx)
			}
			if len(padded) > 0 {
				col.AppendFrom(j.in.Cols[c], padded)
			}
			continue
		}
		if len(buildIdx) > 0 {
			col.AppendFrom(j.table.rows.Cols[c-nOuter], buildIdx)
		}
		col.AppendNulls(len(padded))
	}
	return out
}

// unmatchedBuild emits, once the outer input is exhausted, the build rows
// of a right/full outer join that no probe row matched, NULL-padded on the
// outer side, a batch at a time; nil when there are none (left).
func (j *HashJoin) unmatchedBuild() *vector.Batch {
	idx := j.buildIdx[:0]
	for ; j.unmatchedPos < len(j.matchedBuild) && len(idx) < vector.DefaultBatchSize; j.unmatchedPos++ {
		if !j.matchedBuild[j.unmatchedPos] {
			idx = append(idx, j.unmatchedPos)
		}
	}
	if len(idx) == 0 {
		return nil
	}
	out := vector.NewBatchForSchema(j.schema, len(idx))
	nOuter := j.outer.Schema().Len()
	for i, col := range out.Cols {
		c := i
		if j.keep != nil {
			c = j.keep[i]
		}
		if c < nOuter {
			col.AppendNulls(len(idx))
		} else {
			col.AppendFrom(j.table.rows.Cols[c-nOuter], idx)
		}
	}
	return out
}

// --- runtime switch to sort-merge ----------------------------------------

// ErrOuterJoinTooLarge is what a RIGHT or FULL OUTER hash join returns when
// its build side outgrows every budget it can be granted. The sort-merge
// switch the other flavors take cannot answer these two: the merge-join loop
// pads unmatched outer rows only and never emits an unmatched build row.
var ErrOuterJoinTooLarge = errors.New("exec: RIGHT and FULL OUTER hash joins cannot switch to sort-merge")

// sortInner abandons the hash table: the inner side is sorted by its keys
// within the budget, its runs owned by runs from the moment each file
// exists, so Close removes them however far the switch got. The sorter
// takes over the table's rows and its (possibly extended) budget — those
// bytes are granted to this query and free now that the table is
// abandoned.
func (j *HashJoin) sortInner(ctx *Ctx, budget int64, runs *runSet) (*sorter, error) {
	if j.Type == RightOuterJoin || j.Type == FullOuterJoin {
		return nil, fmt.Errorf("%w: the %s join's build side exceeded budget=%d", ErrOuterJoinTooLarge, j.Type, budget)
	}
	ctx.Spills.Add(1)
	j.prof.Spills.Add(1)
	metrics.Spills.Inc()
	ctx.Trace.Event("JOIN_SPILLED", fmt.Sprintf("switched to sort-merge at budget=%d", budget))
	inner := newSorter(ctx, j.inner.Schema(), vector.KeySpecs(j.InnerKeys), runs, &j.prof)
	inner.budget = budget
	stored := j.table.rows
	j.table = nil
	if err := inner.add(ctx, stored); err != nil {
		return nil, err
	}
	if err := inner.addAll(ctx, j.inner); err != nil {
		return nil, err
	}
	inner.finish()
	return inner, nil
}

// mergeOuter completes the switch to sort-merge: the outer side is sorted
// by its keys (starting fresh at the operator budget and renegotiating on
// its own, runs in j.runs) and joined with the sorted inner side by the
// merge-join loop MergeJoin runs over its children.
func (j *HashJoin) mergeOuter(ctx *Ctx, inner *sorter) error {
	j.spilled = true
	outer := newSorter(ctx, j.outer.Schema(), vector.KeySpecs(j.OuterKeys), &j.runs, &j.prof)
	if err := outer.addAll(ctx, j.outer); err != nil {
		return err
	}
	outer.finish()
	j.merge = &mergeWalk{
		outer: vector.NewCursor(outer.stream()), inner: vector.NewCursor(inner.stream()),
		outerKeys: j.OuterKeys, innerKeys: j.InnerKeys,
		joiner: newRowJoiner(j.Type, j.Residual, joinSchema(j.Type, j.outer.Schema(), j.inner.Schema()), j.resSchema),
	}
	return nil
}
