package vector

import (
	"container/heap"
	"slices"
	"testing"

	"repro/internal/types"
)

// refOwner counts references the way the block cache's entry does: the
// creator holds one, and the release that reaches zero hands the storage
// back; a release past zero is a bug it refuses to hide.
type refOwner struct {
	refs     int
	returned bool
}

func (o *refOwner) Retain() { o.refs++ }
func (o *refOwner) Release() {
	if o.refs == 0 {
		panic("vector: release of a block nothing holds")
	}
	if o.refs--; o.refs == 0 {
		o.returned = true
	}
}

// owned returns a vector of vals whose storage o holds, as a decode's is.
func owned(o *refOwner, vals ...int64) *Vector {
	v := NewFromInts(types.Int64, vals)
	o.refs, v.Owner = 1, o
	return v
}

// Retain pins each cache-owned column once and copies the selection, which
// may be its producer's scratch; fresh columns need no reference.
func TestBatchRetainPinsOwnersAndCopiesSel(t *testing.T) {
	o := &refOwner{}
	scratch := []int{0, 2, 3}
	b := NewBatch(owned(o, 10, 20, 30, 40), NewFromInts(types.Int64, []int64{1, 2, 3, 4}))
	b.Sel = scratch[:2]
	held := b.Retain(nil)
	if len(held) != 1 || held[0] != Owner(o) || o.refs != 2 {
		t.Fatalf("Retain held %d owners, owner refs %d; want 1 and 2", len(held), o.refs)
	}
	scratch[0], scratch[1] = 3, 3 // the producer moves on
	if got := b.Rows(); len(got) != 2 || got[0][0].I != 10 || got[1][0].I != 30 {
		t.Errorf("retained batch reads %v after its producer reused the selection, want rows 10 and 30", got)
	}
	if cap(b.Sel) != 2 {
		t.Errorf("retained selection has capacity %d, want its own 2", cap(b.Sel))
	}
	empty := &Batch{Cols: b.Cols, Sel: scratch[:0]}
	empty.Retain(held[:0])
	if empty.Sel == nil || empty.Len() != 0 {
		t.Errorf("an empty selection retained as %v, want empty, not every row", empty.Sel)
	}
	flat := NewBatch(NewFromInts(types.Int64, []int64{1}))
	if held := flat.Retain(nil); len(held) != 0 || flat.Sel != nil {
		t.Errorf("a fresh, unselected batch retained %d owners, sel %v", len(held), flat.Sel)
	}
}

// A view made by Slice shares its block's owner, so a retained view keeps
// the block; the release that drops the last reference hands it back, and
// one more panics.
func TestReleaseHandsBackAtZero(t *testing.T) {
	o := &refOwner{}
	block := owned(o, 1, 2, 3, 4)
	view := NewBatch(block.Slice(1, 3))
	if view.Cols[0].Owner != Owner(o) {
		t.Fatal("a view of a cached block lost the block's owner")
	}
	held := view.Retain(nil)
	block.Owner.Release() // the scan drops its pin
	if o.returned {
		t.Fatal("the block was handed back while a retained view still held it")
	}
	Release(held)
	if !o.returned || o.refs != 0 {
		t.Fatalf("after the last release: returned %v, refs %d", o.returned, o.refs)
	}
	Release(nil) // nothing held, nothing to do
	defer func() {
		if recover() == nil {
			t.Error("a second release of the same pin did not panic")
		}
	}()
	Release(held)
}

func TestNumRowsAndRowsAcrossBatches(t *testing.T) {
	if NumRows(nil) != 0 || Rows(nil) != nil {
		t.Fatal("no batches should count 0 rows and yield nil")
	}
	a := NewBatch(NewFromInts(types.Int64, []int64{1, 2, 3}), NewFromStrings([]string{"a", "b", "c"}))
	a.Sel = []int{0, 2}
	b := NewBatch(NewConst(types.NewInt(7), 2), NewFromStrings([]string{"d", "e"}))
	batches := []*Batch{a, NewBatch(New(types.Int64, 0), New(types.Varchar, 0)), b}
	if n := NumRows(batches); n != 4 {
		t.Fatalf("NumRows = %d, want 4", n)
	}
	got := Rows(batches)
	want := []string{"(1, a)", "(3, c)", "(7, d)", "(7, e)"}
	if len(got) != len(want) {
		t.Fatalf("Rows gave %d rows, want %d", len(got), len(want))
	}
	for i, r := range got {
		if r.String() != want[i] {
			t.Errorf("row %d = %s, want %s", i, r, want[i])
		}
		if cap(r) != 2 {
			t.Errorf("row %d has capacity %d, want its own 2", i, cap(r))
		}
	}
}

// The merge heap takes cursors pushed after Init and still pops them best
// first, ties by stream order.
func TestCursorHeapPush(t *testing.T) {
	h := &cursorHeap{specs: KeySpecs([]int{0})}
	for ord, k := range []int64{5, 2, 9, 2} {
		c := NewCursor(SliceStream(NewBatch(NewFromInts(types.Int64, []int64{k}), NewFromInts(types.Int64, []int64{int64(ord)}))))
		c.ord = ord
		if ok, err := c.Load(); !ok || err != nil {
			t.Fatalf("cursor %d did not load: %v", ord, err)
		}
		heap.Push(h, c)
	}
	var order []int64
	for h.Len() > 0 {
		c := heap.Pop(h).(*Cursor)
		order = append(order, c.Batch.Cols[0].Ints[c.Pos]*10+c.Batch.Cols[1].Ints[c.Pos])
	}
	if want := []int64{21, 23, 50, 92}; !slices.Equal(order, want) {
		t.Errorf("popped (key*10+stream) %v, want %v", order, want)
	}
}
