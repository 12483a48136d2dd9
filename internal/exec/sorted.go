package exec

import (
	"container/heap"
	"slices"
	"sort"

	"repro/internal/types"
	"repro/internal/vector"
)

// Sorted streams. The executor has one idea about order (paper §6.1:
// operators are "optimized for the sorted data that the storage system
// maintains", Sort "externaliz[es] if needed") and this file is where it is
// written down: a cursor is the current row of a stream of sorted batches, a
// merger makes one sorted stream of several, a sorter makes a sorted stream
// of an unsorted one within a memory budget. Sort, Analytic, the merge join
// (MergeJoin and the hash join's runtime switch), the group-by spill, the
// merge exchange and the merged scan are customers. Everything speaks
// *vector.Batch and compares rows in place with vector.CompareAt.

// SortSpec orders one column (NULLS FIRST ascending).
type SortSpec struct {
	Col  int
	Desc bool
}

// keySpecs orders the given columns ascending.
func keySpecs(cols []int) []SortSpec {
	out := make([]SortSpec, len(cols))
	for i, c := range cols {
		out[i] = SortSpec{Col: c}
	}
	return out
}

// compareAt orders row i of a against row j of b; both batches are flat and
// unselected.
func compareAt(a *vector.Batch, i int, b *vector.Batch, j int, specs []SortSpec) int {
	for _, s := range specs {
		if c := vector.CompareAt(a.Cols[s.Col], i, b.Cols[s.Col], j); c != 0 {
			if s.Desc {
				return -c
			}
			return c
		}
	}
	return 0
}

// batchStream yields a stream's batches in order, nil at its end: an
// operator's Next, a spill run's next, a merger's next, an exchange lane, one
// container's block stream.
type batchStream func(*Ctx) (*vector.Batch, error)

// sliceSource streams a flat batch vector.DefaultBatchSize rows at a time.
func sliceSource(b *vector.Batch) batchStream {
	lo := 0
	return func(*Ctx) (*vector.Batch, error) {
		if lo >= b.Len() {
			return nil, nil
		}
		out := b.SliceRows(lo, min(lo+vector.DefaultBatchSize, b.Len()))
		lo += out.Len()
		return out, nil
	}
}

// cursorHeld, when a test installs it (export_test.go), hears of every batch
// a cursor picks up (+1) and lets go of (-1).
var cursorHeld func(delta int)

// cursor is the current row of a stream of sorted batches. It holds one
// batch of its stream at a time, flat and unselected, so a row is compared
// and copied where it lies.
type cursor struct {
	src   batchStream
	batch *vector.Batch // nil before the first load and at the end
	pos   int
	ord   int // which of a merger's sources this is
}

// load moves to the first row of the stream's next non-empty batch and
// reports whether there is one.
func (c *cursor) load(ctx *Ctx) (bool, error) {
	if c.batch != nil && cursorHeld != nil {
		cursorHeld(-1)
	}
	c.batch, c.pos = nil, 0
	for {
		b, err := c.src(ctx)
		if err != nil || b == nil {
			return false, err
		}
		if b.Len() == 0 {
			continue
		}
		if b.Sel != nil || slices.ContainsFunc(b.Cols, (*vector.Vector).IsRLE) {
			b = b.Flatten()
		}
		if cursorHeld != nil {
			cursorHeld(1)
		}
		c.batch = b
		return true, nil
	}
}

// skip moves n rows on, into the next batch when this one is used up, and
// reports whether the stream has a current row still.
func (c *cursor) skip(ctx *Ctx, n int) (bool, error) {
	if c.pos += n; c.pos < c.batch.Len() {
		return true, nil
	}
	return c.load(ctx)
}

// merger merges sorted streams into one. Rows that compare equal come out
// in the order of their sources, so a merge of runs cut from one input in
// arrival order is as stable as sorting that input in memory, and a result
// does not depend on how often the budget made its operator spill. It is
// the package's only heap.
type merger struct {
	specs   []SortSpec
	schema  *types.Schema
	cur     []*cursor // a heap once started
	started bool
	span    []int // 0, 1, 2, …: the rows [lo, hi) as an AppendFrom selection
}

func newMerger(specs []SortSpec, schema *types.Schema, srcs ...batchStream) *merger {
	m := &merger{specs: specs, schema: schema}
	for i, src := range srcs {
		m.cur = append(m.cur, &cursor{src: src, ord: i})
	}
	return m
}

// before reports whether row i of c comes out before o's current row.
func (m *merger) before(c *cursor, i int, o *cursor) bool {
	cmp := compareAt(c.batch, i, o.batch, o.pos, m.specs)
	return cmp < 0 || (cmp == 0 && c.ord < o.ord)
}

func (m *merger) Len() int           { return len(m.cur) }
func (m *merger) Less(i, j int) bool { return m.before(m.cur[i], m.cur[i].pos, m.cur[j]) }
func (m *merger) Swap(i, j int)      { m.cur[i], m.cur[j] = m.cur[j], m.cur[i] }
func (m *merger) Push(x any)         { m.cur = append(m.cur, x.(*cursor)) }
func (m *merger) Pop() any {
	c := m.cur[len(m.cur)-1]
	m.cur = m.cur[:len(m.cur)-1]
	return c
}

// next is the merged stream's batch source. Rows leave a cursor a run at a
// time — every row that precedes the current row of the best other cursor,
// found by a galloping search — and a run that is the rest of its batch
// while nothing else is pending goes out as a view of that batch, so streams
// whose key ranges do not interleave are passed on without a copy.
func (m *merger) next(ctx *Ctx) (*vector.Batch, error) {
	if !m.started {
		m.started = true
		live := m.cur[:0]
		for _, c := range m.cur {
			ok, err := c.load(ctx)
			if err != nil {
				return nil, err
			}
			if ok {
				live = append(live, c)
			}
		}
		m.cur = live
		heap.Init(m)
	}
	var out *vector.Batch
	for len(m.cur) > 0 && (out == nil || out.Len() < vector.DefaultBatchSize) {
		c := m.cur[0]
		lo, end := c.pos, c.batch.Len()
		if out != nil {
			end = min(end, lo+vector.DefaultBatchSize-out.Len())
		}
		end = m.runEnd(c, end)
		view := c.batch
		if out == nil && end == view.Len() {
			if lo > 0 {
				view = view.SliceRows(lo, end)
			}
		} else {
			if out == nil {
				out = vector.NewBatchForSchema(m.schema, vector.DefaultBatchSize)
			}
			for len(m.span) < end {
				m.span = append(m.span, len(m.span))
			}
			for i, col := range out.Cols {
				col.AppendFrom(view.Cols[i], m.span[lo:end])
			}
			view = nil
		}
		ok, err := c.skip(ctx, end-lo)
		if err != nil {
			return nil, err
		}
		if ok {
			heap.Fix(m, 0)
		} else {
			heap.Pop(m)
		}
		if view != nil {
			return view, nil
		}
	}
	return out, nil
}

// runEnd returns the end of the rows of c, the heap's top, from its current
// one up to limit, that come out before any other cursor's current row.
func (m *merger) runEnd(c *cursor, limit int) int {
	if len(m.cur) == 1 {
		return limit
	}
	rival := m.cur[1]
	if len(m.cur) > 2 && m.Less(2, 1) {
		rival = m.cur[2]
	}
	// Rows below lo precede the rival's; row hi, when there is one, does not.
	lo, hi := c.pos+1, c.pos+1
	for step := 1; hi < limit && m.before(c, hi, rival); step *= 2 {
		lo, hi = hi+1, hi+step
	}
	hi = min(hi, limit)
	return lo + sort.Search(hi-lo, func(k int) bool { return !m.before(c, lo+k, rival) })
}

// sorter sorts a stream of any size within a memory budget: batches
// accumulate column-wise and are charged to the grant for what the columns
// hold; at the budget the sorter asks the governor for more and, when that
// is denied, sorts what it has and spills it as a run.
type sorter struct {
	specs  []SortSpec
	schema *types.Schema
	owner  *runSet // the operator's runs: files are its to remove
	prof   *OpProf // the operator's collector

	buf    *vector.Batch
	mem    int64
	budget int64       // starts at Ctx.MemBudget, grows by grant renegotiation
	runs   []*spillRun // this sorter's, in the order written
}

func newSorter(ctx *Ctx, schema *types.Schema, specs []SortSpec, owner *runSet, prof *OpProf) *sorter {
	return &sorter{specs: specs, schema: schema, owner: owner, prof: prof,
		buf: vector.NewBatchForSchema(schema, 0), budget: ctx.MemBudget}
}

// addAll feeds the sorter every remaining batch of op.
func (s *sorter) addAll(ctx *Ctx, op Operator) error {
	for {
		if err := ctx.Canceled(); err != nil {
			return err
		}
		in, err := op.Next(ctx)
		if err != nil || in == nil {
			return err
		}
		if err := s.add(ctx, in); err != nil {
			return err
		}
	}
}

func (s *sorter) add(ctx *Ctx, in *vector.Batch) error {
	from := s.buf.Len()
	s.buf.Append(in)
	s.mem += batchBytes(s.buf, from)
	ctx.noteAlloc(s.prof, s.mem)
	for s.mem > s.budget {
		// At the spill threshold, renegotiate the grant first: grow in place
		// while the pool has headroom, externalize only on denial.
		if ext := ctx.extendBudget(s.budget, s.mem); ext > 0 {
			s.budget += ext
			continue
		}
		run, err := s.owner.spill(ctx, s.prof, "SORT_SPILLED", s.schema, sortBatch(s.buf, s.specs))
		if err != nil {
			return err
		}
		s.runs = append(s.runs, run)
		s.buf, s.mem = vector.NewBatchForSchema(s.schema, 0), 0
	}
	return nil
}

// finish returns the sorted stream: the sorted buffer when nothing spilled,
// else the merge of the runs and the buffer.
func (s *sorter) finish() batchStream {
	tail := sortBatch(s.buf, s.specs)
	s.buf = nil
	if len(s.runs) == 0 {
		return sliceSource(tail)
	}
	return mergeRuns(s.specs, s.schema, s.runs, tail).next
}

// mergeRuns merges spilled runs, oldest first, with the sorted rows that
// stayed in memory, which arrived after every run's.
func mergeRuns(specs []SortSpec, schema *types.Schema, runs []*spillRun, tail *vector.Batch) *merger {
	srcs := make([]batchStream, 0, len(runs)+1)
	for _, r := range runs {
		srcs = append(srcs, r.next)
	}
	return newMerger(specs, schema, append(srcs, sliceSource(tail))...)
}

// sortBatch returns the rows of a flat batch in the order of specs, rows
// that compare equal in the order they have: a permutation is sorted, then
// every column gathered by it.
func sortBatch(b *vector.Batch, specs []SortSpec) *vector.Batch {
	perm := make([]int, b.Len())
	for i := range perm {
		perm[i] = i
	}
	slices.SortStableFunc(perm, func(i, j int) int { return compareAt(b, i, b, j, specs) })
	return (&vector.Batch{Cols: b.Cols, Sel: perm}).Flatten()
}

// batchBytes is what the rows of a flat batch from row `from` on hold: 8
// bytes per fixed-width value, header plus payload per string.
func batchBytes(b *vector.Batch, from int) int64 {
	var n int64
	for _, c := range b.Cols {
		if c.Typ != types.Varchar {
			n += 8 * int64(c.PhysLen()-from)
			continue
		}
		for _, s := range c.Strs[from:] {
			n += 16 + int64(len(s))
		}
	}
	return n
}
