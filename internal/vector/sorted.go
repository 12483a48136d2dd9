package vector

import (
	"container/heap"
	"slices"
	"sort"
)

// Sorted streams. The engine has one idea about order (paper §6.1: operators
// are "optimized for the sorted data that the storage system maintains") and
// this file is where it is written down: a cursor is the current row of a
// stream of sorted batches, a merger makes one sorted stream of several. The
// executor's sorter, Sort, the merge join, the group-by spill, the
// merge exchange and the merged scan are customers, and so is mergeout in the
// tuple mover. Everything compares rows in place with CompareAt.

// SortSpec orders one column (NULLS FIRST ascending).
type SortSpec struct {
	Col  int
	Desc bool
}

// KeySpecs orders the given columns ascending.
func KeySpecs(cols []int) []SortSpec {
	out := make([]SortSpec, len(cols))
	for i, c := range cols {
		out[i] = SortSpec{Col: c}
	}
	return out
}

// CompareRows orders row i of a against row j of b; both batches are flat
// and unselected.
func CompareRows(a *Batch, i int, b *Batch, j int, specs []SortSpec) int {
	for _, s := range specs {
		if c := CompareAt(a.Cols[s.Col], i, b.Cols[s.Col], j); c != 0 {
			if s.Desc {
				return -c
			}
			return c
		}
	}
	return 0
}

// Stream yields a stream's batches in order, nil at its end: an operator's
// Next, a spill run's frames, a merger's output, an exchange lane, one
// container's blocks.
type Stream func() (*Batch, error)

// SliceStream streams a flat batch DefaultBatchSize rows at a time.
func SliceStream(b *Batch) Stream {
	lo := 0
	return func() (*Batch, error) {
		if lo >= b.Len() {
			return nil, nil
		}
		out := b.SliceRows(lo, min(lo+DefaultBatchSize, b.Len()))
		lo += out.Len()
		return out, nil
	}
}

// CursorHeld, when a test installs it, hears of every batch a cursor picks
// up (+1) and lets go of (-1).
var CursorHeld func(delta int)

// Cursor is the current row of a stream of sorted batches: row Pos of Batch.
// It holds one batch of its stream at a time, flat and unselected, so a row
// is compared and copied where it lies.
type Cursor struct {
	src   Stream
	Batch *Batch // nil before the first Load and at the end
	Pos   int
	ord   int // which of a merger's sources this is
}

// NewCursor returns a cursor over src, before its first row.
func NewCursor(src Stream) *Cursor { return &Cursor{src: src} }

// Load moves to the first row of the stream's next non-empty batch and
// reports whether there is one.
func (c *Cursor) Load() (bool, error) {
	if c.Batch != nil && CursorHeld != nil {
		CursorHeld(-1)
	}
	c.Batch, c.Pos = nil, 0
	for {
		b, err := c.src()
		if err != nil || b == nil {
			return false, err
		}
		if b.Len() == 0 {
			continue
		}
		if b.Sel != nil || slices.ContainsFunc(b.Cols, (*Vector).IsRLE) {
			b = b.Flatten()
		}
		if CursorHeld != nil {
			CursorHeld(1)
		}
		c.Batch = b
		return true, nil
	}
}

// Skip moves n rows on, into the next batch when this one is used up, and
// reports whether the stream has a current row still.
func (c *Cursor) Skip(n int) (bool, error) {
	if c.Pos += n; c.Pos < c.Batch.Len() {
		return true, nil
	}
	return c.Load()
}

// Merger merges sorted streams into one. Rows that compare equal come out in
// the order of their sources, so a merge of runs cut from one input in
// arrival order is as stable as sorting that input in memory, and a result
// does not depend on how often a budget made its operator spill. It is the
// module's one merge heap.
type Merger struct {
	h       cursorHeap
	started bool
	span    []int // 0, 1, 2, …: the rows [lo, hi) as an AppendFrom selection
	// lent moves lentN rows on at the next Next: the last returned a view
	// of its batch, and moving may call its stream, which ends the loan.
	lent  *Cursor
	lentN int
}

// NewMerger returns the merge of srcs, each sorted on specs; a row of an
// earlier source leaves before an equal row of a later one.
func NewMerger(specs []SortSpec, srcs ...Stream) *Merger {
	m := &Merger{h: cursorHeap{specs: specs}}
	for i, src := range srcs {
		m.h.cur = append(m.h.cur, &Cursor{src: src, ord: i})
	}
	return m
}

// cursorHeap orders a merger's cursors by their current rows, best first.
type cursorHeap struct {
	specs []SortSpec
	cur   []*Cursor
}

// before reports whether row i of c comes out before o's current row.
func (h *cursorHeap) before(c *Cursor, i int, o *Cursor) bool {
	cmp := CompareRows(c.Batch, i, o.Batch, o.Pos, h.specs)
	return cmp < 0 || (cmp == 0 && c.ord < o.ord)
}

func (h *cursorHeap) Len() int           { return len(h.cur) }
func (h *cursorHeap) Less(i, j int) bool { return h.before(h.cur[i], h.cur[i].Pos, h.cur[j]) }
func (h *cursorHeap) Swap(i, j int)      { h.cur[i], h.cur[j] = h.cur[j], h.cur[i] }
func (h *cursorHeap) Push(x any)         { h.cur = append(h.cur, x.(*Cursor)) }
func (h *cursorHeap) Pop() any {
	c := h.cur[len(h.cur)-1]
	h.cur = h.cur[:len(h.cur)-1]
	return c
}

// Next is the merged stream. Rows leave a cursor a run at a time — every row
// that precedes the current row of the best other cursor, found by a
// galloping search — and a run that is the rest of its batch while nothing
// else is pending goes out as a view of that batch, so streams whose key
// ranges do not interleave are passed on without a copy.
func (m *Merger) Next() (*Batch, error) {
	if c := m.lent; c != nil {
		m.lent = nil
		if err := m.advance(c, m.lentN); err != nil {
			return nil, err
		}
	}
	if !m.started {
		m.started = true
		h := &m.h
		live := h.cur[:0]
		for _, c := range h.cur {
			ok, err := c.Load()
			if err != nil {
				return nil, err
			}
			if ok {
				live = append(live, c)
			}
		}
		h.cur = live
		heap.Init(h)
	}
	var out *Batch
	for len(m.h.cur) > 0 && (out == nil || out.Len() < DefaultBatchSize) {
		c := m.h.cur[0]
		lo, end := c.Pos, c.Batch.Len()
		if out != nil {
			end = min(end, lo+DefaultBatchSize-out.Len())
		}
		end = m.h.runEnd(c, end)
		view := c.Batch
		if out == nil && end == view.Len() {
			if lo > 0 {
				view = view.SliceRows(lo, end)
			}
		} else {
			if out == nil {
				out = &Batch{Cols: make([]*Vector, len(view.Cols))}
				for i, col := range view.Cols {
					out.Cols[i] = New(col.Typ, DefaultBatchSize)
				}
			}
			for len(m.span) < end {
				m.span = append(m.span, len(m.span))
			}
			for i, col := range out.Cols {
				col.AppendFrom(view.Cols[i], m.span[lo:end])
			}
			view = nil
		}
		if view != nil {
			m.lent, m.lentN = c, end-lo
			return view, nil
		}
		if err := m.advance(c, end-lo); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// advance moves c, the heap's top, n rows on and restores the heap.
func (m *Merger) advance(c *Cursor, n int) error {
	ok, err := c.Skip(n)
	if err != nil {
		return err
	}
	if ok {
		heap.Fix(&m.h, 0)
	} else {
		heap.Pop(&m.h)
	}
	return nil
}

// runEnd returns the end of the rows of c, the heap's top, from its current
// one up to limit, that come out before any other cursor's current row.
func (h *cursorHeap) runEnd(c *Cursor, limit int) int {
	if len(h.cur) == 1 {
		return limit
	}
	rival := h.cur[1]
	if len(h.cur) > 2 && h.Less(2, 1) {
		rival = h.cur[2]
	}
	// Rows below lo precede the rival's; row hi, when there is one, does not.
	lo, hi := c.Pos+1, c.Pos+1
	for step := 1; hi < limit && h.before(c, hi, rival); step *= 2 {
		lo, hi = hi+1, hi+step
	}
	hi = min(hi, limit)
	return lo + sort.Search(hi-lo, func(k int) bool { return !h.before(c, lo+k, rival) })
}
