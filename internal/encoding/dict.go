package encoding

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/types"
	"repro/internal/vector"
)

// BlockDict payload: uvarint dictSize, dict entries in raw per-value format
// (sorted, so dictionary order is value order), then bit-packed indexes with
// width = ceil(log2(dictSize)). "Within a data block, distinct column values
// are stored in a dictionary and actual values are replaced with references"
// (paper §3.4.1).

func encodeBlockDict(buf []byte, v *vector.Vector) ([]byte, error) {
	n := v.PhysLen()
	switch v.Typ {
	case types.Float64:
		dict := map[float64]int{}
		for _, f := range v.Floats {
			if _, ok := dict[f]; !ok {
				dict[f] = 0
			}
		}
		keys := make([]float64, 0, len(dict))
		for k := range dict {
			keys = append(keys, k)
		}
		sort.Float64s(keys)
		for i, k := range keys {
			dict[k] = i
		}
		buf = appendUvarint(buf, uint64(len(keys)))
		for _, k := range keys {
			buf = appendUint64(buf, math.Float64bits(k))
		}
		idx := make([]int, n)
		for i, f := range v.Floats {
			idx[i] = dict[f]
		}
		return packBits(buf, idx, bitWidth(len(keys))), nil
	case types.Varchar:
		dict := map[string]int{}
		for _, s := range v.Strs {
			if _, ok := dict[s]; !ok {
				dict[s] = 0
			}
		}
		keys := make([]string, 0, len(dict))
		for k := range dict {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for i, k := range keys {
			dict[k] = i
		}
		buf = appendUvarint(buf, uint64(len(keys)))
		for _, k := range keys {
			buf = appendUvarint(buf, uint64(len(k)))
			buf = append(buf, k...)
		}
		idx := make([]int, n)
		for i, s := range v.Strs {
			idx[i] = dict[s]
		}
		return packBits(buf, idx, bitWidth(len(keys))), nil
	default:
		dict := map[int64]int{}
		for _, x := range v.Ints {
			if _, ok := dict[x]; !ok {
				dict[x] = 0
			}
		}
		keys := make([]int64, 0, len(dict))
		for k := range dict {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
		for i, k := range keys {
			dict[k] = i
		}
		buf = appendUvarint(buf, uint64(len(keys)))
		for _, k := range keys {
			buf = appendVarint(buf, k)
		}
		idx := make([]int, n)
		for i, x := range v.Ints {
			idx[i] = dict[x]
		}
		return packBits(buf, idx, bitWidth(len(keys))), nil
	}
}

func decodeBlockDict(b []byte, out *vector.Vector, n int, scratch *vector.Vector) error {
	ds64, sz := uvarint(b)
	if sz <= 0 {
		return fmt.Errorf("encoding: corrupt BLOCK_DICT size")
	}
	if ds64 > uint64(len(b)) { // every dictionary entry costs ≥ 1 byte
		return fmt.Errorf("encoding: BLOCK_DICT size %d exceeds payload", ds64)
	}
	ds := int(ds64)
	pos := sz
	var err error
	switch out.Typ {
	case types.Float64:
		dict := grow(scratch.Floats, ds)
		scratch.Floats = dict
		for i := range dict {
			if pos+8 > len(b) {
				return fmt.Errorf("encoding: truncated BLOCK_DICT entries")
			}
			dict[i] = math.Float64frombits(getUint64(b[pos:]))
			pos += 8
		}
		out.Floats, err = gatherDict(out.Floats, dict, b[pos:], n)
	case types.Varchar:
		dict := grow(scratch.Strs, ds)
		scratch.Strs = dict
		for i := range dict {
			l, sz := uvarint(b[pos:])
			if sz <= 0 || int(l) < 0 || pos+sz+int(l) > len(b) {
				return fmt.Errorf("encoding: truncated BLOCK_DICT entries")
			}
			pos += sz
			dict[i] = string(b[pos : pos+int(l)])
			pos += int(l)
		}
		out.Strs, err = gatherDict(out.Strs, dict, b[pos:], n)
	default:
		dict := grow(scratch.Ints, ds)
		scratch.Ints = dict
		for i := range dict {
			x, sz := varint(b[pos:])
			if sz <= 0 {
				return fmt.Errorf("encoding: truncated BLOCK_DICT entries")
			}
			dict[i] = x
			pos += sz
		}
		out.Ints, err = gatherDict(out.Ints, dict, b[pos:], n)
	}
	return err
}

// gatherDict decodes n bit-packed dictionary indexes from b straight into
// the output values, in dst's storage when it has the capacity: one
// little-endian word read per index, no index slice.
func gatherDict[T int64 | float64 | string](dst, dict []T, b []byte, n int) ([]T, error) {
	w := bitWidth(len(dict))
	if (n*w+7)/8 > len(b) {
		return nil, fmt.Errorf("encoding: truncated BLOCK_DICT indexes")
	}
	mask := uint64(1)<<w - 1
	out := grow(dst, n)
	for i := range out {
		bit := i * w
		ix := packedWord(b, bit>>3) >> (bit & 7) & mask
		if ix >= uint64(len(dict)) {
			return nil, fmt.Errorf("encoding: BLOCK_DICT index out of range")
		}
		out[i] = dict[ix]
	}
	return out, nil
}
