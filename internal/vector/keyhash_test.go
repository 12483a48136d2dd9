package vector

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/types"
)

var keyTypes = [...]types.Type{types.Int64, types.Timestamp, types.Bool, types.Float64, types.Varchar}

// fuzzEntry makes one entry of type typ: NULL, or the value that x (bits
// for a float, 0/1 for a bool) or s (a string, copied so no two entries
// share a backing array) gives.
func fuzzEntry(typ types.Type, null bool, x uint64, s string) types.Value {
	switch {
	case null:
		return types.NewNull(typ)
	case typ == types.Float64:
		return types.NewFloat(math.Float64frombits(x))
	case typ == types.Varchar:
		return types.NewString(strings.Clone(s))
	case typ == types.Bool:
		return types.Value{Typ: typ, I: int64(x & 1)}
	}
	return types.Value{Typ: typ, I: int64(x)}
}

// keyHashLayouts returns the key hash of v laid out three ways — flat among
// decoys, under a selection that hides the decoys, and inside a run of an
// RLE vector — and KeyHash's for the flat entry. It also returns the flat
// vector and v's index in it.
func keyHashLayouts(v types.Value, decoy types.Value) (hs [4]uint64, flat *Vector, at int) {
	flat = New(v.Typ, 3)
	flat.AppendValue(decoy)
	flat.AppendValue(v)
	flat.AppendValue(decoy)
	hs[0] = NewBatch(flat).KeyHashes(nil, []int{0})[1]
	hs[1] = (&Batch{Cols: []*Vector{flat}, Sel: []int{1}}).KeyHashes(nil, []int{0})[0]
	rle := New(v.Typ, 2)
	rle.AppendValue(decoy)
	rle.AppendValue(v)
	rle.RunLens = []int{2, 3}
	hs[2] = NewBatch(rle).KeyHashes(nil, []int{0})[3]
	hs[3] = KeyHash(flat, 1)
	return hs, flat, 1
}

// FuzzKeyHashes: entries EqualAt calls equal (NULLs of a type, ±0, NaNs of
// any bit pattern, equal strings in different backing arrays) have equal
// key hashes, whether flat, selected or run-length encoded, and KeyHash
// agrees with KeyHashes.
func FuzzKeyHashes(f *testing.F) {
	negZero, nan1, nan2 := uint64(1)<<63, uint64(0x7ff8000000000001), uint64(0xfff0000000000abc)
	f.Add(uint8(0), false, false, uint64(7), uint64(7), "", "")
	f.Add(uint8(0), true, true, uint64(0), uint64(9), "", "")
	f.Add(uint8(0), true, false, uint64(0), uint64(0), "", "") // NULL beside 0
	f.Add(uint8(1), false, false, uint64(1<<40), uint64(1<<40), "", "")
	f.Add(uint8(2), false, false, uint64(3), uint64(1), "", "")
	f.Add(uint8(3), false, false, uint64(0), negZero, "", "")
	f.Add(uint8(3), false, false, nan1, nan2, "", "")
	f.Add(uint8(3), true, true, nan1, uint64(0), "", "")
	f.Add(uint8(4), false, false, uint64(0), uint64(0), "same string, longer than a word", "same string, longer than a word")
	f.Add(uint8(4), false, false, uint64(0), uint64(0), "short", "short")
	f.Add(uint8(4), true, false, uint64(0), uint64(0), "", "")
	f.Fuzz(func(t *testing.T, typ uint8, nullA, nullB bool, x, y uint64, s1, s2 string) {
		tp := keyTypes[int(typ)%len(keyTypes)]
		a, b := fuzzEntry(tp, nullA, x, s1), fuzzEntry(tp, nullB, y, s2)
		decoy := fuzzEntry(tp, false, x^1, s1+"~")
		ha, va, i := keyHashLayouts(a, decoy)
		hb, vb, j := keyHashLayouts(b, decoy)
		for l := 1; l < len(ha); l++ {
			if ha[l] != ha[0] || hb[l] != hb[0] {
				t.Fatalf("%v / %v: layouts hash differently: %x, %x", a, b, ha, hb)
			}
		}
		if EqualAt(va, i, vb, j, true) && ha[0] != hb[0] {
			t.Fatalf("%v and %v are equal keys with key hashes %x and %x", a, b, ha[0], hb[0])
		}
		// As the second of two key columns, behind one equal first key.
		pair := func(v *Vector) uint64 {
			return NewBatch(NewFromInts(types.Int64, []int64{5, 5, 5}), v).KeyHashes(nil, []int{0, 1})[1]
		}
		if EqualAt(va, i, vb, j, true) && pair(va) != pair(vb) {
			t.Fatalf("%v and %v: equal two-column keys hash differently", a, b)
		}
	})
}

// Sequential INT keys — ids, dates — spread evenly over exchange ways and
// over hash-table buckets, and the keys one way receives spread over its
// own table's buckets: the way takes the hash's high bits, the bucket its
// low ones.
func TestKeyHashesSpread(t *testing.T) {
	const n, tolerance = 1 << 16, 0.05
	ids := make([]int64, n)
	for i := range ids {
		ids[i] = int64(i)
	}
	b := NewBatch(NewFromInts(types.Int64, ids))
	hs := b.KeyHashes(nil, []int{0})
	// occupied checks the buckets keys fill under mask against what a
	// uniform hash fills: m(1 − (1 − 1/m)^k) for k keys in m buckets.
	occupied := func(what string, hs []uint64, mask uint64) {
		t.Helper()
		seen := make(map[uint64]bool, len(hs))
		for _, h := range hs {
			seen[h&mask] = true
		}
		m, k := float64(mask+1), float64(len(hs))
		want := m * (1 - math.Pow(1-1/m, k))
		if got := float64(len(seen)); math.Abs(got-want) > tolerance*want {
			t.Errorf("%s: %d keys fill %.0f of %.0f buckets, a uniform hash %.0f", what, len(hs), got, m, want)
		}
	}
	occupied("all keys", hs, 1<<17-1)
	for _, ways := range []int{2, 4} {
		for p, part := range b.ShallowCopy().Partition([]int{0}, ways) {
			want := float64(n) / float64(ways)
			if got := float64(part.Len()); math.Abs(got-want) > tolerance*want {
				t.Errorf("%d ways: way %d holds %.0f keys, want %.0f ± %.0f%%", ways, p, got, want, 100*tolerance)
			}
			mine := make([]uint64, 0, part.Len())
			for _, phys := range part.Sel {
				mine = append(mine, hs[phys])
			}
			occupied(fmt.Sprintf("%d ways: way %d's keys", ways, p), mine, uint64(2*n/ways-1))
		}
	}
}

// KeyHashes appends to its destination, hashes an RLE column once per run
// as the expanded column hashes, honours a selection, and allocates nothing
// into a buffer with room.
func TestKeyHashes(t *testing.T) {
	flat := NewBatch(
		NewFromInts(types.Int64, []int64{5, 5, 6}),
		NewFromStrings([]string{"cpu", "cpu", "cpu"}),
	)
	rle := NewBatch(NewFromInts(types.Int64, []int64{5, 5, 6}), NewConst(types.NewString("cpu"), 3))
	hs := flat.KeyHashes(nil, []int{0, 1})
	both := rle.KeyHashes(hs, []int{0, 1})
	if len(both) != 6 {
		t.Fatalf("appended hashes = %x", both)
	}
	for i := range 3 {
		if both[3+i] != hs[i] {
			t.Errorf("row %d: RLE hash %x, flat %x", i, both[3+i], hs[i])
		}
	}
	if hs[0] != hs[1] || hs[0] == hs[2] {
		t.Error("equal keys must hash equal, different keys should differ")
	}
	if rev := flat.KeyHashes(nil, []int{1, 0}); rev[0] == hs[0] {
		t.Error("column order does not change the hash")
	}
	sel := &Batch{Cols: flat.Cols, Sel: []int{2}}
	if got := sel.KeyHashes(nil, []int{0, 1}); len(got) != 1 || got[0] != hs[2] {
		t.Errorf("selected row hashes %x, want %x", got, hs[2])
	}
	if allocs := testing.AllocsPerRun(10, func() { both = flat.KeyHashes(both[:0], []int{0, 1}) }); allocs != 0 {
		t.Errorf("hashing into a buffer with room allocated %.0f times", allocs)
	}
}
