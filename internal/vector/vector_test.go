package vector

import (
	"math"
	"testing"

	"repro/internal/types"
)

func TestVectorAppendAndValueAt(t *testing.T) {
	v := New(types.Int64, 4)
	v.AppendValue(types.NewInt(10))
	v.AppendValue(types.NewInt(20))
	v.AppendNull()
	v.AppendValue(types.NewInt(30))
	if v.Len() != 4 {
		t.Fatalf("Len = %d", v.Len())
	}
	if v.ValueAt(0).I != 10 || v.ValueAt(1).I != 20 || v.ValueAt(3).I != 30 {
		t.Error("values wrong")
	}
	if !v.ValueAt(2).Null || !v.NullAt(2) {
		t.Error("null slot wrong")
	}
	if !v.HasNulls() {
		t.Error("HasNulls should be true")
	}
}

func TestVectorNullBackfill(t *testing.T) {
	// Appending a NULL after non-nulls must backfill the bitmap.
	v := New(types.Varchar, 2)
	v.AppendValue(types.NewString("a"))
	v.AppendNull()
	if v.NullAt(0) || !v.NullAt(1) {
		t.Error("null bitmap backfill wrong")
	}
}

func TestRLEExpand(t *testing.T) {
	v := New(types.Int64, 2)
	v.AppendValue(types.NewInt(5))
	v.AppendValue(types.NewInt(9))
	v.RunLens = []int{3, 2}
	if !v.IsRLE() {
		t.Fatal("IsRLE should be true")
	}
	if v.Len() != 5 {
		t.Fatalf("logical Len = %d, want 5", v.Len())
	}
	if v.PhysLen() != 2 {
		t.Fatalf("PhysLen = %d, want 2", v.PhysLen())
	}
	e := v.Expand()
	want := []int64{5, 5, 5, 9, 9}
	for i, w := range want {
		if e.Ints[i] != w {
			t.Errorf("Expand[%d] = %d, want %d", i, e.Ints[i], w)
		}
	}
	if e.IsRLE() {
		t.Error("expanded vector should be flat")
	}
}

func TestNewConst(t *testing.T) {
	v := NewConst(types.NewFloat(1.5), 100)
	if v.Len() != 100 || v.PhysLen() != 1 {
		t.Fatalf("const vector len=%d phys=%d", v.Len(), v.PhysLen())
	}
	e := v.Expand()
	if e.Len() != 100 || e.Floats[99] != 1.5 {
		t.Error("const expand wrong")
	}
}

func TestGatherSlice(t *testing.T) {
	v := NewFromInts(types.Int64, []int64{1, 2, 3, 4, 5})
	g := v.Gather([]int{4, 0, 2})
	if g.Len() != 3 || g.Ints[0] != 5 || g.Ints[1] != 1 || g.Ints[2] != 3 {
		t.Errorf("Gather wrong: %v", g.Ints)
	}
	s := v.Slice(1, 4)
	if s.Len() != 3 || s.Ints[0] != 2 || s.Ints[2] != 4 {
		t.Errorf("Slice wrong: %v", s.Ints)
	}
}

func TestMinMax(t *testing.T) {
	v := New(types.Int64, 4)
	v.AppendNull()
	v.AppendValue(types.NewInt(7))
	v.AppendValue(types.NewInt(-3))
	v.AppendValue(types.NewInt(4))
	mn, mx, ok := v.MinMax()
	if !ok || mn.I != -3 || mx.I != 7 {
		t.Errorf("MinMax = %v, %v, %v", mn, mx, ok)
	}
	allNull := New(types.Int64, 1)
	allNull.AppendNull()
	if _, _, ok := allNull.MinMax(); ok {
		t.Error("all-null MinMax should report !ok")
	}
}

func TestBatchBasics(t *testing.T) {
	a := NewFromInts(types.Int64, []int64{1, 2, 3})
	b := NewFromStrings([]string{"x", "y", "z"})
	batch := NewBatch(a, b)
	if batch.Len() != 3 || batch.NumCols() != 2 {
		t.Fatal("batch shape wrong")
	}
	r := batch.Row(1)
	if r[0].I != 2 || r[1].S != "y" {
		t.Errorf("Row(1) = %v", r)
	}
}

func TestBatchSelection(t *testing.T) {
	a := NewFromInts(types.Int64, []int64{10, 20, 30, 40})
	batch := NewBatch(a)
	batch.Sel = []int{1, 3}
	if batch.Len() != 2 || batch.FullLen() != 4 {
		t.Fatal("selected batch lengths wrong")
	}
	if batch.Row(0)[0].I != 20 || batch.Row(1)[0].I != 40 {
		t.Error("selected Row access wrong")
	}
	flat := batch.Flatten()
	if flat.Len() != 2 || flat.Sel != nil || flat.Cols[0].Ints[1] != 40 {
		t.Error("Flatten wrong")
	}
}

func TestBatchFlattenRLE(t *testing.T) {
	rle := New(types.Varchar, 1)
	rle.AppendValue(types.NewString("cpu"))
	rle.RunLens = []int{3}
	flat := NewFromInts(types.Int64, []int64{1, 2, 3})
	batch := NewBatch(rle, flat)
	fb := batch.Flatten()
	if fb.Cols[0].Len() != 3 || fb.Cols[0].Strs[2] != "cpu" {
		t.Error("RLE flatten wrong")
	}
	rows := batch.Rows()
	if len(rows) != 3 || rows[2][0].S != "cpu" || rows[2][1].I != 3 {
		t.Errorf("Rows() = %v", rows)
	}
}

func TestBatchAppendRow(t *testing.T) {
	s := types.NewSchema(
		types.Column{Name: "a", Typ: types.Int64},
		types.Column{Name: "b", Typ: types.Float64},
	)
	b := NewBatchForSchema(s, 4)
	b.AppendRow(types.Row{types.NewInt(1), types.NewFloat(0.5)})
	b.AppendRow(types.Row{types.NewInt(2), types.NewNull(types.Float64)})
	if b.Len() != 2 {
		t.Fatal("AppendRow length wrong")
	}
	if !b.Row(1)[1].Null {
		t.Error("null not preserved through AppendRow")
	}
}

func TestGatherPanicsOnRLE(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Gather on RLE should panic")
		}
	}()
	v := NewConst(types.NewInt(1), 5)
	v.Gather([]int{0})
}

func TestAppendFrom(t *testing.T) {
	src := NewFromInts(types.Int64, []int64{10, 20, 30, 40})
	dst := New(types.Int64, 8)
	dst.AppendValue(types.NewInt(1))
	dst.AppendFrom(src, nil)
	if dst.Len() != 5 || dst.Ints[4] != 40 {
		t.Fatalf("AppendFrom all: %v", dst.Ints)
	}
	dst.AppendFrom(src, []int{3, 1})
	if dst.Len() != 7 || dst.Ints[5] != 40 || dst.Ints[6] != 20 {
		t.Fatalf("AppendFrom sel: %v", dst.Ints)
	}
	// Null propagation: source nulls materialize the destination bitmap.
	ns := New(types.Int64, 2)
	ns.AppendValue(types.NewInt(7))
	ns.AppendNull()
	dst.AppendFrom(ns, nil)
	if dst.Len() != 9 || !dst.NullAt(8) || dst.NullAt(7) {
		t.Fatalf("AppendFrom nulls: nulls=%v", dst.Nulls)
	}
	// Appending a null-free source to a null-bearing destination backfills.
	dst.AppendFrom(src, []int{0})
	if dst.NullAt(9) {
		t.Error("null-free append marked null")
	}
}

func TestBatchHashesMatchHashRow(t *testing.T) {
	b := NewBatch(
		NewFromInts(types.Int64, []int64{1, 2, 1}),
		NewFromStrings([]string{"x", "y", "x"}),
	)
	hs := b.Hashes(nil, []int{0, 1})
	for i, r := range b.Rows() {
		if want := types.HashRow(r, []int{0, 1}); hs[i] != want {
			t.Errorf("row %d: hash %x want %x", i, hs[i], want)
		}
	}
	if hs[0] != hs[2] || hs[0] == hs[1] {
		t.Error("equal keys must hash equal, different keys should differ")
	}
	// RLE key column: per-run hashing must agree with expanded hashing.
	rle := NewConst(types.NewString("cpu"), 3)
	rb := NewBatch(NewFromInts(types.Int64, []int64{5, 5, 6}), rle)
	rhs := rb.Hashes(nil, []int{0, 1})
	for i, r := range rb.Rows() {
		if want := types.HashRow(r, []int{0, 1}); rhs[i] != want {
			t.Errorf("rle row %d: hash %x want %x", i, rhs[i], want)
		}
	}
	// A destination is appended to, and reused once it has room.
	both := rb.Hashes(b.Hashes(nil, []int{0, 1}), []int{0, 1})
	if len(both) != 6 || both[0] != hs[0] || both[3] != rhs[0] {
		t.Errorf("appended hashes = %x", both)
	}
	if allocs := testing.AllocsPerRun(10, func() { both = b.Hashes(both[:0], []int{0, 1}) }); allocs != 0 {
		t.Errorf("hashing into a buffer with room allocated %.0f times", allocs)
	}
}

func TestBatchPartition(t *testing.T) {
	n := 1000
	keys := make([]int64, n)
	vals := make([]float64, n)
	for i := range keys {
		keys[i] = int64(i % 37)
		vals[i] = float64(i)
	}
	b := NewBatch(NewFromInts(types.Int64, keys), NewFromFloats(vals))
	parts := b.Partition([]int{0}, 4)
	if len(parts) != 4 {
		t.Fatalf("ways = %d", len(parts))
	}
	seen := map[int64]int{} // key -> port
	total := 0
	for p, part := range parts {
		if part == nil {
			continue
		}
		total += part.Len()
		for _, r := range part.Rows() {
			if prev, ok := seen[r[0].I]; ok && prev != p {
				t.Fatalf("key %d split across ports %d and %d", r[0].I, prev, p)
			}
			seen[r[0].I] = p
		}
	}
	if total != n {
		t.Fatalf("partition lost rows: %d != %d", total, n)
	}
	// Row integrity: every (k, v) pair must satisfy v % 37 == k.
	for _, part := range parts {
		if part == nil {
			continue
		}
		for _, r := range part.Rows() {
			if int64(r[1].F)%37 != r[0].I {
				t.Fatalf("row integrity lost: %v", r)
			}
		}
	}
	// ways=1 short-circuits to the batch itself.
	one := b.Partition([]int{0}, 1)
	if one[0].Len() != n {
		t.Error("ways=1 should pass the batch through")
	}
}

func TestBatchAppendAndSliceRows(t *testing.T) {
	s := types.NewSchema(
		types.Column{Name: "a", Typ: types.Int64},
		types.Column{Name: "b", Typ: types.Varchar},
	)
	acc := NewBatchForSchema(s, 8)
	src := NewBatch(
		NewFromInts(types.Int64, []int64{1, 2, 3, 4}),
		NewFromStrings([]string{"w", "x", "y", "z"}),
	)
	src.Sel = []int{1, 3} // only x and z are live
	acc.Append(src)
	if acc.Len() != 2 || acc.Cols[1].Strs[1] != "z" {
		t.Fatalf("Append with selection: %v", acc.Cols[1].Strs)
	}
	rle := NewBatch(NewConst(types.NewInt(9), 3), NewConst(types.NewString("r"), 3))
	acc.Append(rle)
	if acc.Len() != 5 || acc.Cols[0].Ints[4] != 9 {
		t.Fatalf("Append with RLE: %v", acc.Cols[0].Ints)
	}
	sl := acc.SliceRows(1, 4)
	if sl.Len() != 3 || sl.Cols[1].Strs[0] != "z" {
		t.Fatalf("SliceRows: %v", sl.Cols[1].Strs)
	}
	cp := acc.ShallowCopy()
	cp.Cols[0] = NewFromInts(types.Int64, []int64{0})
	if acc.Cols[0].Ints[0] == 0 {
		t.Error("ShallowCopy must not alias the column slice header")
	}
}

// nullable builds a vector of the values' type; NULL values become NULLs.
func nullable(t types.Type, vals ...types.Value) *Vector {
	v := New(t, len(vals))
	for _, val := range vals {
		v.AppendValue(val)
	}
	return v
}

func TestTypedKernelsKeepNulls(t *testing.T) {
	null := types.NewNull(types.Varchar)
	strs := nullable(types.Varchar, types.NewString("a"), null, types.NewString("c"))

	rle := nullable(types.Varchar, types.NewString("a"), null)
	rle.RunLens = []int{2, 3}
	e := rle.Expand()
	if e.IsRLE() || e.Len() != 5 || e.Strs[1] != "a" || e.NullAt(1) || !e.NullAt(2) || !e.NullAt(4) {
		t.Errorf("Expand lost values or NULLs: %v %v", e.Strs, e.Nulls)
	}
	if rv := rle.RunValues(); rv.IsRLE() || rv.Len() != 2 || !rv.NullAt(1) {
		t.Errorf("RunValues = %v", rv)
	}

	g := strs.Gather([]int{2, 1, 1, 0})
	if g.Len() != 4 || g.Strs[0] != "c" || !g.NullAt(1) || !g.NullAt(2) || g.Strs[3] != "a" {
		t.Errorf("Gather lost values or NULLs: %v %v", g.Strs, g.Nulls)
	}
	if strs.Gather(nil).Len() != 0 {
		t.Error("Gather of no indexes must be empty")
	}

	dst := New(types.Varchar, 0)
	dst.AppendEntry(strs, 0)
	dst.AppendNulls(2)
	dst.AppendEntry(strs, 1)
	dst.AppendEntry(strs, 2)
	if dst.Len() != 5 || dst.Strs[0] != "a" || !dst.NullAt(1) || !dst.NullAt(2) || !dst.NullAt(3) || dst.NullAt(4) || dst.Strs[4] != "c" {
		t.Errorf("AppendEntry/AppendNulls: %v %v", dst.Strs, dst.Nulls)
	}
}

func TestEqualAtAndCompareAt(t *testing.T) {
	ints := nullable(types.Int64, types.NewInt(3), types.NewNull(types.Int64), types.NewInt(-1))
	flts := NewFromFloats([]float64{1.5, math.NaN(), math.NaN()})
	strs := NewFromStrings([]string{"b", "a", "b"})
	if !EqualAt(ints, 0, ints, 0, false) || EqualAt(ints, 0, ints, 2, false) {
		t.Error("integer equality wrong")
	}
	if EqualAt(ints, 1, ints, 1, false) {
		t.Error("a NULL join key must equal nothing, itself included")
	}
	if !EqualAt(ints, 1, ints, 1, true) || EqualAt(ints, 1, ints, 0, true) {
		t.Error("NULL groups with NULL and with nothing else")
	}
	if !EqualAt(flts, 1, flts, 2, true) || EqualAt(flts, 0, flts, 1, true) {
		t.Error("NaNs must group together and with nothing else")
	}
	if !EqualAt(strs, 0, strs, 2, false) || EqualAt(strs, 0, strs, 1, false) {
		t.Error("string equality wrong")
	}
	// CompareAt agrees with Value.Compare, NULLS FIRST.
	for _, v := range []*Vector{ints, strs} {
		for i := 0; i < v.Len(); i++ {
			for j := 0; j < v.Len(); j++ {
				if got, want := CompareAt(v, i, v, j), v.ValueAt(i).Compare(v.ValueAt(j)); got != want {
					t.Errorf("CompareAt(%s, %d, %d) = %d, Value.Compare = %d", v.Typ, i, j, got, want)
				}
			}
		}
	}
}

func TestRowsShareOneBackingArrayButNotCapacity(t *testing.T) {
	b := NewBatch(NewFromInts(types.Int64, []int64{1, 2, 3}), NewFromStrings([]string{"x", "y", "z"}))
	b.Sel = []int{0, 2}
	rows := b.Rows()
	if len(rows) != 2 || rows[1][0].I != 3 || rows[1][1].S != "z" {
		t.Fatalf("Rows = %v", rows)
	}
	// Appending to a row (a caller extending a row does this) must not
	// write into the next row's values.
	_ = append(rows[0], types.NewInt(99))
	if rows[1][0].I != 3 {
		t.Errorf("append to row 0 clobbered row 1: %v", rows[1])
	}
	if allocs := testing.AllocsPerRun(10, func() { b.Rows() }); allocs > 2 {
		t.Errorf("Rows allocated %.0f times for 2 rows; want one value array and one row slice", allocs)
	}
}

// TestDropFrontAndReset: DropFront keeps the later entries, NULLs with them,
// in the same arrays; Reset empties a vector without giving its arrays up.
func TestDropFrontAndReset(t *testing.T) {
	v := New(types.Varchar, 8)
	v.AppendValue(types.NewString("a"))
	v.AppendNull()
	v.AppendValue(types.NewString("c"))
	v.AppendValue(types.NewString("d"))
	v.DropFront(1)
	if v.Len() != 3 || !v.NullAt(0) || v.ValueAt(1).S != "c" || v.ValueAt(2).S != "d" || v.Cap() != 8 {
		t.Fatalf("after DropFront(1): %v, cap %d", v, v.Cap())
	}
	v.Reset()
	if v.Len() != 0 || v.Nulls != nil || v.Cap() != 8 || v.Strs[:3][1] != "" {
		t.Fatalf("after Reset: len %d, nulls %v, cap %d, old strings %q", v.Len(), v.Nulls, v.Cap(), v.Strs[:3])
	}
	f := NewFromFloats([]float64{1, 2, 3})
	f.DropFront(2)
	if f.Len() != 1 || f.Floats[0] != 3 {
		t.Fatalf("float DropFront(2) = %v", f)
	}
}
