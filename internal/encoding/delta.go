package encoding

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/types"
	"repro/internal/vector"
)

// DeltaValue payload (integral only): varint blockMin, then per value
// uvarint(v - blockMin). "Data is recorded as a difference from the smallest
// value in a data block" (paper §3.4.1).

func encodeDeltaValue(buf []byte, v *vector.Vector) []byte {
	mn := int64(math.MaxInt64)
	for _, x := range v.Ints {
		if x < mn {
			mn = x
		}
	}
	if len(v.Ints) == 0 {
		mn = 0
	}
	buf = appendVarint(buf, mn)
	for _, x := range v.Ints {
		buf = appendUvarint(buf, uint64(x-mn))
	}
	return buf
}

func decodeDeltaValue(b []byte, out *vector.Vector, n int) error {
	mn, sz := varint(b)
	if sz <= 0 {
		return fmt.Errorf("encoding: corrupt DELTAVAL base")
	}
	if n > len(b) { // every delta costs at least one payload byte
		return fmt.Errorf("encoding: DELTAVAL payload too short for %d rows", n)
	}
	pos := sz
	out.Ints = grow(out.Ints, n)
	for i := range out.Ints {
		d, sz := uvarint(b[pos:])
		if sz <= 0 {
			return fmt.Errorf("encoding: corrupt DELTAVAL delta at %d", i)
		}
		pos += sz
		out.Ints[i] = mn + int64(d)
	}
	return nil
}

// CompressedDeltaRange payload: "stores each value as a delta from the
// previous one" (paper §3.4.1).
//
//	integral: varint first value, then varint(v[i] - v[i-1]) per value.
//	float:    8-byte first value, then uvarint(bits(v[i]) XOR bits(v[i-1]))
//	          per value — the XOR of similar floats has mostly-zero high
//	          bits after byte reversal, so we reverse bytes before varint.
func encodeDeltaRange(buf []byte, v *vector.Vector) []byte {
	if v.Typ == types.Float64 {
		if len(v.Floats) == 0 {
			return buf
		}
		buf = appendUint64(buf, math.Float64bits(v.Floats[0]))
		prev := math.Float64bits(v.Floats[0])
		for _, f := range v.Floats[1:] {
			cur := math.Float64bits(f)
			buf = appendUvarint(buf, bits.ReverseBytes64(cur^prev))
			prev = cur
		}
		return buf
	}
	if len(v.Ints) == 0 {
		return buf
	}
	buf = appendVarint(buf, v.Ints[0])
	prev := v.Ints[0]
	for _, x := range v.Ints[1:] {
		buf = appendVarint(buf, x-prev)
		prev = x
	}
	return buf
}

func decodeDeltaRange(b []byte, out *vector.Vector, n int) error {
	if n == 0 {
		return nil
	}
	if n > len(b) { // first value plus ≥1 byte per delta
		return fmt.Errorf("encoding: DELTARANGE_COMP payload too short for %d rows", n)
	}
	if out.Typ == types.Float64 {
		if len(b) < 8 {
			return fmt.Errorf("encoding: corrupt DELTARANGE_COMP first value")
		}
		f := grow(out.Floats, n)
		prev := getUint64(b)
		f[0] = math.Float64frombits(prev)
		pos := 8
		for i := 1; i < n; i++ {
			x, sz := uvarint(b[pos:])
			if sz <= 0 {
				return fmt.Errorf("encoding: corrupt DELTARANGE_COMP xor at %d", i)
			}
			pos += sz
			prev ^= bits.ReverseBytes64(x)
			f[i] = math.Float64frombits(prev)
		}
		out.Floats = f
		return nil
	}
	first, sz := varint(b)
	if sz <= 0 {
		return fmt.Errorf("encoding: corrupt DELTARANGE_COMP first value")
	}
	v := grow(out.Ints, n)
	v[0] = first
	pos := sz
	for i := 1; i < n; i++ {
		d, sz := varint(b[pos:])
		if sz <= 0 {
			return fmt.Errorf("encoding: corrupt DELTARANGE_COMP delta at %d", i)
		}
		pos += sz
		v[i] = v[i-1] + d
	}
	out.Ints = v
	return nil
}
