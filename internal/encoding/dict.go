package encoding

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"repro/internal/types"
	"repro/internal/vector"
)

// BlockDict payload: uvarint dictSize, dict entries in raw per-value format
// (sorted, so dictionary order is value order), then bit-packed indexes with
// width = ceil(log2(dictSize)). "Within a data block, distinct column values
// are stored in a dictionary and actual values are replaced with references"
// (paper §3.4.1).

func (e *Encoder) encodeBlockDict(buf []byte, v *vector.Vector) []byte {
	var width int
	switch v.Typ {
	case types.Float64:
		e.floatKeys = dictKeys(&e.floats, e.floatKeys, v.Floats)
		buf = appendUvarint(buf, uint64(len(e.floatKeys)))
		for _, k := range e.floatKeys {
			buf = appendUint64(buf, math.Float64bits(k))
		}
		e.idx, width = dictIndexes(e.idx, e.floats, v.Floats), bitWidth(len(e.floatKeys))
	case types.Varchar:
		e.strKeys = dictKeys(&e.strs, e.strKeys, v.Strs)
		buf = appendUvarint(buf, uint64(len(e.strKeys)))
		for _, k := range e.strKeys {
			buf = appendUvarint(buf, uint64(len(k)))
			buf = append(buf, k...)
		}
		e.idx, width = dictIndexes(e.idx, e.strs, v.Strs), bitWidth(len(e.strKeys))
	default:
		e.intKeys = dictKeys(&e.ints, e.intKeys, v.Ints)
		buf = appendUvarint(buf, uint64(len(e.intKeys)))
		for _, k := range e.intKeys {
			buf = appendVarint(buf, k)
		}
		e.idx, width = dictIndexes(e.idx, e.ints, v.Ints), bitWidth(len(e.intKeys))
	}
	return packBits(buf, e.idx, width)
}

// dictKeys resets *m, making it on first use, to the distinct values of vals
// each mapped to its rank, and returns them sorted, in keys' storage.
func dictKeys[T cmp.Ordered](m *map[T]int, keys, vals []T) []T {
	if *m == nil {
		*m = make(map[T]int)
	}
	clear(*m)
	keys = keys[:0]
	for _, x := range vals {
		if _, ok := (*m)[x]; !ok {
			(*m)[x] = 0
			keys = append(keys, x)
		}
	}
	slices.Sort(keys)
	for i, k := range keys {
		(*m)[k] = i
	}
	return keys
}

// dictIndexes returns the rank m gives each of vals, in idx's storage.
func dictIndexes[T cmp.Ordered](idx []int, m map[T]int, vals []T) []int {
	idx = grow(idx, len(vals))
	for i, x := range vals {
		idx[i] = m[x]
	}
	return idx
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
