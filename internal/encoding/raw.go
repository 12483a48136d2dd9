package encoding

import (
	"fmt"
	"math"

	"repro/internal/types"
	"repro/internal/vector"
)

// None payload: ints/timestamps/bools as fixed 8-byte little-endian words,
// floats as 8-byte IEEE bits, strings as uvarint length + bytes. This is the
// "uncompressed" baseline the paper's Table 4 compares against.

func encodeNone(buf []byte, v *vector.Vector) []byte {
	switch v.Typ {
	case types.Float64:
		for _, f := range v.Floats {
			buf = appendUint64(buf, math.Float64bits(f))
		}
	case types.Varchar:
		for _, s := range v.Strs {
			buf = appendUvarint(buf, uint64(len(s)))
			buf = append(buf, s...)
		}
	default:
		for _, i := range v.Ints {
			buf = appendUint64(buf, uint64(i))
		}
	}
	return buf
}

func decodeNone(b []byte, out *vector.Vector, n int) error {
	switch out.Typ {
	case types.Float64:
		if len(b) < 8*n {
			return fmt.Errorf("encoding: raw float payload too short")
		}
		out.Floats = grow(out.Floats, n)
		for i := range out.Floats {
			out.Floats[i] = math.Float64frombits(getUint64(b[8*i:]))
		}
	case types.Varchar:
		if n > len(b) { // every string needs at least its length byte
			return fmt.Errorf("encoding: raw string payload too short")
		}
		out.Strs = grow(out.Strs, n)
		pos := 0
		for i := range out.Strs {
			l, sz := uvarint(b[pos:])
			if sz <= 0 || int(l) < 0 || pos+sz+int(l) > len(b) {
				return fmt.Errorf("encoding: raw string payload corrupt")
			}
			pos += sz
			out.Strs[i] = string(b[pos : pos+int(l)])
			pos += int(l)
		}
	default:
		if len(b) < 8*n {
			return fmt.Errorf("encoding: raw int payload too short")
		}
		out.Ints = grow(out.Ints, n)
		for i := range out.Ints {
			out.Ints[i] = int64(getUint64(b[8*i:]))
		}
	}
	return nil
}

// rawValueAppend encodes a single value in the None per-value format
// (shared by the RLE and dictionary encoders).
func rawValueAppend(buf []byte, t types.Type, v *vector.Vector, i int) []byte {
	switch t {
	case types.Float64:
		return appendUint64(buf, math.Float64bits(v.Floats[i]))
	case types.Varchar:
		s := v.Strs[i]
		buf = appendUvarint(buf, uint64(len(s)))
		return append(buf, s...)
	default:
		return appendUint64(buf, uint64(v.Ints[i]))
	}
}

// rawValueDecode decodes a single value in the None per-value format,
// appending it to out and returning the bytes consumed.
func rawValueDecode(b []byte, t types.Type, out *vector.Vector) (int, error) {
	switch t {
	case types.Float64:
		if len(b) < 8 {
			return 0, fmt.Errorf("encoding: truncated float value")
		}
		out.Floats = append(out.Floats, math.Float64frombits(getUint64(b)))
		return 8, nil
	case types.Varchar:
		l, sz := uvarint(b)
		if sz <= 0 || sz+int(l) > len(b) {
			return 0, fmt.Errorf("encoding: truncated string value")
		}
		out.Strs = append(out.Strs, string(b[sz:sz+int(l)]))
		return sz + int(l), nil
	default:
		if len(b) < 8 {
			return 0, fmt.Errorf("encoding: truncated int value")
		}
		out.Ints = append(out.Ints, int64(getUint64(b)))
		return 8, nil
	}
}
