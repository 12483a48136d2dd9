package vector

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/types"
)

// keyed is a flat batch of (key, source, arrival) rows: column 1 says which
// stream a row came from and column 2 its place there, so a tie that leaves
// in the wrong order shows.
func keyed(src int, keys ...int64) *Batch {
	b := NewBatch(New(types.Int64, len(keys)), New(types.Int64, len(keys)), New(types.Int64, len(keys)))
	for i, k := range keys {
		b.Cols[0].Ints = append(b.Cols[0].Ints, k)
		b.Cols[1].Ints = append(b.Cols[1].Ints, int64(src))
		b.Cols[2].Ints = append(b.Cols[2].Ints, int64(i))
	}
	return b
}

// streamOf yields the given batches in order, then nil.
func streamOf(batches ...*Batch) Stream {
	return func() (*Batch, error) {
		if len(batches) == 0 {
			return nil, nil
		}
		b := batches[0]
		batches = batches[1:]
		return b, nil
	}
}

// drain returns every row the stream yields and the batches it yielded.
func drain(t *testing.T, s Stream) (rows []types.Row, batches []*Batch) {
	t.Helper()
	for {
		b, err := s()
		if err != nil {
			t.Fatal(err)
		}
		if b == nil {
			return rows, batches
		}
		if b.Len() > DefaultBatchSize {
			t.Fatalf("a batch of %d rows", b.Len())
		}
		rows = append(rows, b.Rows()...)
		batches = append(batches, b)
	}
}

// refMerge is what a stable merge must give: every source's rows, sources
// concatenated in order, stably sorted on specs.
func refMerge(specs []SortSpec, srcs ...[]types.Row) []types.Row {
	var all []types.Row
	for _, s := range srcs {
		all = append(all, s...)
	}
	slices.SortStableFunc(all, func(a, b types.Row) int {
		for _, s := range specs {
			if c := a[s.Col].Compare(b[s.Col]); c != 0 {
				if s.Desc {
					return -c
				}
				return c
			}
		}
		return 0
	})
	return all
}

func sameRowsInOrder(t *testing.T, got, want []types.Row) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%d rows, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i].String() != want[i].String() {
			t.Fatalf("row %d = %s, want %s", i, got[i], want[i])
		}
	}
}

// TestMergerInterleavesStably: random sorted streams of low-cardinality keys
// in batches of random sizes merge to the stable sort of their
// concatenation, however the batches cut them.
func TestMergerInterleavesStably(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	specs := KeySpecs([]int{0})
	for n := 0; n < 200; n++ {
		var srcs []Stream
		var rows [][]types.Row
		for s := 0; s < 1+rng.Intn(5); s++ {
			keys := make([]int64, rng.Intn(300))
			for i := range keys {
				keys[i] = int64(rng.Intn(12))
			}
			slices.Sort(keys)
			all := keyed(s, keys...)
			rows = append(rows, all.Rows())
			var batches []*Batch
			for lo := 0; lo < len(keys); {
				hi := min(len(keys), lo+rng.Intn(70))
				batches = append(batches, all.SliceRows(lo, hi)) // empty batches too
				lo = hi
			}
			srcs = append(srcs, streamOf(batches...))
		}
		got, _ := drain(t, NewMerger(specs, srcs...).Next)
		sameRowsInOrder(t, got, refMerge(specs, rows...))
	}
}

// TestMergerTiesLeaveInSourceOrder: equal keys from three streams leave by
// stream, whichever stream was current when the tie was met.
func TestMergerTiesLeaveInSourceOrder(t *testing.T) {
	m := NewMerger(KeySpecs([]int{0}),
		streamOf(keyed(0, 1, 2, 2, 3)),
		streamOf(keyed(1, 2), keyed(1, 2, 3)),
		streamOf(keyed(2, 0, 2, 3, 3)))
	got, _ := drain(t, m.Next)
	var srcs []int64
	for _, r := range got {
		srcs = append(srcs, r[0].I*10+r[1].I)
	}
	want := []int64{2, 10, 20, 20, 21, 21, 22, 30, 31, 32, 32}
	if !slices.Equal(srcs, want) {
		t.Fatalf("key*10+source = %v, want %v", srcs, want)
	}
}

// TestMergerPassesDisjointBatchesThrough: streams whose key ranges do not
// interleave come out as views of their own batches, nothing copied — and a
// batch that only its tail is left of goes out as a view of that tail.
func TestMergerPassesDisjointBatchesThrough(t *testing.T) {
	a1, a2, b1 := keyed(0, 1, 2, 3), keyed(0, 4, 5), keyed(1, 6, 7, 8)
	_, batches := drain(t, NewMerger(KeySpecs([]int{0}), streamOf(b1), streamOf(a1, a2)).Next)
	if len(batches) != 3 {
		t.Fatalf("%d batches out of 3 disjoint ones", len(batches))
	}
	for i, in := range []*Batch{a1, a2, b1} {
		if &batches[i].Cols[0].Ints[0] != &in.Cols[0].Ints[0] {
			t.Errorf("batch %d was copied, not passed through", i)
		}
	}

	// Source 1 is ahead only for its first row, which leaves with source 0's
	// rows in a full batch; the rest of its batch follows as one view.
	b := keyed(1, 1, 7, 8, 9)
	twos := make([]int64, DefaultBatchSize-1)
	for i := range twos {
		twos[i] = 2
	}
	full := keyed(0, twos...)
	_, batches = drain(t, NewMerger(KeySpecs([]int{0}), streamOf(full), streamOf(b)).Next)
	if len(batches) != 2 || batches[0].Len() != DefaultBatchSize {
		t.Fatalf("%d batches", len(batches))
	}
	if tail := batches[1]; tail.Len() != 3 || &tail.Cols[0].Ints[0] != &b.Cols[0].Ints[1] {
		t.Errorf("the tail of an input batch was copied: %v", tail)
	}
}

// TestMergerSkipsEmptyStreamsAndBatches: streams that end at once, yield
// empty batches between rows or only empty batches add nothing and stop
// nothing.
func TestMergerSkipsEmptyStreamsAndBatches(t *testing.T) {
	empty := keyed(0)
	m := NewMerger(KeySpecs([]int{0}),
		streamOf(),
		streamOf(empty, keyed(1, 1, 3), empty, empty, keyed(1, 5)),
		streamOf(empty, empty),
		streamOf(keyed(3, 2), empty))
	got, _ := drain(t, m.Next)
	var keys []int64
	for _, r := range got {
		keys = append(keys, r[0].I)
	}
	if !slices.Equal(keys, []int64{1, 2, 3, 5}) {
		t.Fatalf("keys %v", keys)
	}
	if b, err := m.Next(); b != nil || err != nil {
		t.Fatalf("after the end: %v, %v", b, err)
	}
	if b, err := NewMerger(nil).Next(); b != nil || err != nil {
		t.Fatalf("merge of nothing: %v, %v", b, err)
	}
}

// TestMergerOrdersLikeValueCompare: NULLs first, NaN after every number, DESC
// reversing both, ties broken by the next spec — the order of Value.Compare.
func TestMergerOrdersLikeValueCompare(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	floats := []float64{-1, 0, 2.5, math.NaN(), math.Inf(1)}
	for n := 0; n < 100; n++ {
		specs := []SortSpec{{Col: 0, Desc: rng.Intn(2) == 0}, {Col: 1, Desc: rng.Intn(2) == 0}}
		var srcs []Stream
		var rows [][]types.Row
		for s := 0; s < 1+rng.Intn(4); s++ {
			b := NewBatch(New(types.Float64, 0), New(types.Varchar, 0), New(types.Int64, 0))
			for i := rng.Intn(40); i > 0; i-- {
				f, str := types.NewFloat(floats[rng.Intn(len(floats))]), types.NewString(fmt.Sprint(rng.Intn(3)))
				if rng.Intn(5) == 0 {
					f = types.NewNull(types.Float64)
				}
				if rng.Intn(5) == 0 {
					str = types.NewNull(types.Varchar)
				}
				b.AppendRow(types.Row{f, str, types.NewInt(int64(s))})
			}
			sorted := refMerge(specs, b.Rows())
			b = NewBatch(New(types.Float64, 0), New(types.Varchar, 0), New(types.Int64, 0))
			for _, r := range sorted {
				b.AppendRow(r)
			}
			rows = append(rows, sorted)
			srcs = append(srcs, SliceStream(b))
		}
		got, _ := drain(t, NewMerger(specs, srcs...).Next)
		sameRowsInOrder(t, got, refMerge(specs, rows...))
	}
}

// TestCursorFlattensWhatArrives: a batch under a selection or with a
// run-length column reaches the cursor flat, and CursorHeld hears of every
// batch taken and let go.
func TestCursorFlattensWhatArrives(t *testing.T) {
	held := 0
	CursorHeld = func(d int) { held += d }
	defer func() { CursorHeld = nil }()

	sel := &Batch{Cols: keyed(0, 1, 2, 3, 4).Cols, Sel: []int{1, 3}}
	rle := NewBatch(NewConst(types.NewInt(7), 3))
	rle.Cols = append(rle.Cols, keyed(0, 0, 0, 0).Cols[1:]...)
	c := NewCursor(streamOf(sel, rle))
	var keys []int64
	for ok, err := c.Load(); ok; ok, err = c.Skip(1) {
		if err != nil {
			t.Fatal(err)
		}
		if c.Batch.Sel != nil || c.Batch.Cols[0].IsRLE() {
			t.Fatalf("cursor holds %v", c.Batch)
		}
		if held != 1 {
			t.Fatalf("%d batches held", held)
		}
		keys = append(keys, c.Batch.Cols[0].Ints[c.Pos])
	}
	if !slices.Equal(keys, []int64{2, 4, 7, 7, 7}) || held != 0 || c.Batch != nil {
		t.Fatalf("keys %v, %d held at the end", keys, held)
	}
}
