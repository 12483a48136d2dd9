package encoding

import (
	"bytes"
	"slices"
	"strings"
	"testing"

	"repro/internal/types"
	"repro/internal/vector"
)

// FuzzDecode feeds arbitrary bytes to the block decoder under every type and
// both run-preservation modes: malformed blocks must produce errors, never
// panics or runaway allocations. Valid seed blocks come from round-tripping
// each encoder so the fuzzer starts inside the format.
func FuzzDecode(f *testing.F) {
	ints := make([]int64, 300)
	for i := range ints {
		ints[i] = int64(i / 10)
	}
	intVec := vector.NewFromInts(types.Int64, ints)
	strs := make([]string, 100)
	for i := range strs {
		strs[i] = []string{"ny", "sf", "la"}[i%3]
	}
	strVec := vector.NewFromStrings(strs)
	floats := make([]float64, 100)
	for i := range floats {
		floats[i] = float64(i) * 1.5
	}
	floatVec := vector.NewFromFloats(floats)

	kinds := []Kind{None, RLE, DeltaValue, BlockDict, CompressedDeltaRange, CompressedCommonDelta, Scaled}
	for _, kind := range kinds {
		for _, v := range []*vector.Vector{intVec, strVec, floatVec} {
			if !kind.Applicable(v.Typ) {
				continue
			}
			if b, err := EncodeBlock(kind, v); err == nil {
				f.Add(b, uint8(v.Typ), false)
				f.Add(b, uint8(v.Typ), true)
			}
		}
	}
	f.Add([]byte{}, uint8(types.Int64), false)
	f.Add([]byte{0xff, 0x00, 0x01}, uint8(types.Varchar), true)
	// SCALED blocks the encoder never writes: an exponent above 15, an inner
	// row count off by one, a nested SCALED (the FLOAT-only kind), integers
	// with a null bitmap, a truncated inner block.
	for _, c := range scaledCorruptions() {
		f.Add(c.block, uint8(types.Float64), false)
	}

	f.Fuzz(func(t *testing.T, data []byte, typ uint8, preserveRuns bool) {
		tt := types.Type(typ)
		switch tt {
		case types.Int64, types.Float64, types.Varchar, types.Bool, types.Timestamp:
		default:
			tt = types.Int64
		}
		v, err := DecodeBlock(data, tt, preserveRuns)
		if err != nil {
			return
		}
		// A successful decode must yield a self-consistent vector (ValueAt
		// indexes physical entries: runs count once in RLE form).
		for i := 0; i < v.PhysLen(); i++ {
			_ = v.ValueAt(i)
		}
		_ = v.Len()
	})
}

// FuzzEncodeAuto builds a block from arbitrary bytes — its type from the
// first byte, then one (control, value) pair per entry, where the control
// byte marks NULLs and, for a run-length vector, the run's length, and
// picks a float's shape (quarters, hundredths, thousandths by multiplying,
// or one of oddFloats) — and holds Auto to two things: its block decodes
// back to the input, floats bit for bit, and it is the block of the kind
// Choose names.
func FuzzEncodeAuto(f *testing.F) {
	f.Add([]byte{0, 0, 1, 0, 2, 0, 3, 0, 4})
	f.Add([]byte{8 | 0, 14, 1, 14, 1, 0, 200, 3, 7})
	f.Add([]byte{3, 1, 0, 0, 9, 0, 9, 0, 9, 0, 250})
	f.Add([]byte{8 | 4, 4, 1, 4, 2, 1, 0, 4, 3})
	f.Add([]byte{2, 0, 5, 0, 5, 0, 6, 0, 255, 0, 0})
	f.Add([]byte{1, 0x60, 7, 0x60, 250, 0x80, 3, 0xe0, 0, 0x60, 9})
	f.Add([]byte{1, 0xe0, 0, 0xe0, 1, 0xe0, 1, 0xe0, 2, 0xe0, 3, 0xe0, 12, 0xe0, 13, 0xe0, 16})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		typ := []types.Type{types.Int64, types.Float64, types.Varchar, types.Bool, types.Timestamp}[data[0]%8%5]
		v := &vector.Vector{Typ: typ}
		if data[0]&8 != 0 {
			v.RunLens = []int{}
		}
		var nulls []bool
		for i := 1; i+1 < len(data); i += 2 {
			ctl, x := data[i], data[i+1]
			nulls = append(nulls, ctl&1 != 0)
			switch typ {
			case types.Float64:
				v.Floats = append(v.Floats, []float64{
					float64(int8(x)) / 4, float64(int8(x)) / 4, float64(int8(x)) / 4,
					float64(int8(x)) / 100, float64(int8(x)) / 100, float64(int8(x)) * 1e-3,
					float64(x) * 1e13, oddFloats[int(x)%len(oddFloats)],
				}[ctl>>5])
			case types.Varchar:
				v.Strs = append(v.Strs, strings.Repeat("ab", int(x%4))+string(rune('a'+x%26)))
			case types.Bool:
				v.Ints = append(v.Ints, int64(x&1))
			default:
				v.Ints = append(v.Ints, int64(int8(x))<<(ctl>>5))
			}
			if v.RunLens != nil {
				v.RunLens = append(v.RunLens, 1+int(ctl>>1&15))
			}
		}
		if slices.Contains(nulls, true) {
			v.Nulls = nulls
		}
		auto, err := EncodeBlock(Auto, v)
		if err != nil {
			t.Fatal(err)
		}
		chosen, err := EncodeBlock(Choose(v), v)
		if err != nil || !bytes.Equal(auto, chosen) {
			t.Fatalf("Choose = %s: %d bytes (%v), Auto stored %d", Choose(v), len(chosen), err, len(auto))
		}
		want := v.Expand()
		got, err := DecodeBlock(auto, typ, false)
		if err != nil || got.Len() != want.Len() {
			t.Fatalf("decode: %v, %d rows of %d", err, got.Len(), want.Len())
		}
		for i := range want.Len() {
			if w, g := want.ValueAt(i), got.ValueAt(i); !sameValue(w, g) {
				t.Fatalf("row %d = %v, want %v", i, g, w)
			}
		}
	})
}
