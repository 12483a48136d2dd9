package encoding

import (
	"cmp"
	"fmt"
	"hash/maphash"
	"math"
	"math/bits"
	"slices"

	"repro/internal/types"
	"repro/internal/vector"
)

// BlockDict payload: uvarint dictSize, dict entries in raw per-value format
// (sorted, so dictionary order is value order; floats are distinct by their
// bits, so -0 is not 0, and equal values sort by bits), then bit-packed
// indexes with width = ceil(log2(dictSize)). "Within a data block, distinct
// column values are stored in a dictionary and actual values are replaced
// with references" (paper §3.4.1).

func (e *Encoder) encodeBlockDict(buf []byte, v *vector.Vector) []byte {
	var width int
	switch v.Typ {
	case types.Float64:
		e.bits = grow(e.bits, len(v.Floats))
		for i, f := range v.Floats {
			e.bits[i] = math.Float64bits(f)
		}
		e.floatKeys, e.idx = dictionary(&e.floatDict, e.floatKeys, e.idx, e.bits, hashUint64, sortFloatBits)
		buf = appendUvarint(buf, uint64(len(e.floatKeys)))
		for _, k := range e.floatKeys {
			buf = appendUint64(buf, k)
		}
		width = bitWidth(len(e.floatKeys))
	case types.Varchar:
		e.strKeys, e.idx = dictionary(&e.strDict, e.strKeys, e.idx, v.Strs, hashString, slices.Sort)
		buf = appendUvarint(buf, uint64(len(e.strKeys)))
		for _, k := range e.strKeys {
			buf = appendUvarint(buf, uint64(len(k)))
			buf = append(buf, k...)
		}
		width = bitWidth(len(e.strKeys))
	default:
		e.intKeys, e.idx = dictionary(&e.intDict, e.intKeys, e.idx, v.Ints, hashInt64, slices.Sort)
		buf = appendUvarint(buf, uint64(len(e.intKeys)))
		for _, k := range e.intKeys {
			buf = appendVarint(buf, k)
		}
		width = bitWidth(len(e.intKeys))
	}
	return packBits(buf, e.idx, width)
}

// dictionary returns the distinct values of vals, ordered by sortKeys, in
// keys' storage, and the rank among them of each of vals, in idx's storage.
func dictionary[K comparable](t *dictTable[K], keys []K, idx []int, vals []K, hash func(K) uint64, sortKeys func([]K)) ([]K, []int) {
	t.reset(hash)
	keys, idx = keys[:0], grow(idx, len(vals))
	for i, x := range vals {
		h := hash(x)
		s := t.find(x, h)
		if t.slots[s].mark != t.mark {
			if 2*(len(keys)+1) > len(t.slots) {
				t.grow(hash)
				s = t.find(x, h)
			}
			t.slots[s] = dictSlot[K]{key: x, seen: int32(len(keys)), mark: t.mark}
			keys = append(keys, x)
		}
		idx[i] = int(t.slots[s].seen)
	}
	sortKeys(keys)
	t.ranks = grow(t.ranks, len(keys))
	for r, k := range keys {
		t.ranks[t.slots[t.find(k, hash(k))].seen] = r
	}
	for i, seen := range idx {
		idx[i] = t.ranks[seen]
	}
	return keys, idx
}

// dictTable is the set of a block's distinct values: open addressing over a
// power-of-two slice of slots, at most half of them taken, that the Encoder
// keeps from block to block. A slot is taken when it carries the block's
// mark, so a new block clears nothing, and a table grown to a block's
// dictionary allocates nothing for the next. (A Go map is reseeded when it
// is cleared, so it may grow again however often it has grown before.)
type dictTable[K comparable] struct {
	slots []dictSlot[K]
	shift uint // 64 - log2(len(slots)): a hash's top bits pick the slot
	mark  uint32
	ranks []int // the sorted rank of each key, by first-seen order
}

type dictSlot[K comparable] struct {
	key  K
	seen int32 // the key's first-seen order in its block
	mark uint32
}

// reset empties t for the next block.
func (t *dictTable[K]) reset(hash func(K) uint64) {
	if len(t.slots) == 0 {
		t.grow(hash)
	}
	if t.mark++; t.mark == 0 { // the marks wrapped: clear the old ones
		clear(t.slots)
		t.mark = 1
	}
}

// grow doubles t, to 16 slots at least, keeping the block's keys.
func (t *dictTable[K]) grow(hash func(K) uint64) {
	old := t.slots
	b := max(4, bits.Len(uint(len(old))))
	t.slots, t.shift = make([]dictSlot[K], 1<<b), uint(64-b)
	for _, sl := range old {
		if sl.mark == t.mark {
			t.slots[t.find(sl.key, hash(sl.key))] = sl
		}
	}
}

// find returns the slot that holds key, or the free slot that would.
func (t *dictTable[K]) find(key K, h uint64) int {
	mask := len(t.slots) - 1
	for s := int(h >> t.shift); ; s = (s + 1) & mask {
		if t.slots[s].mark != t.mark || t.slots[s].key == key {
			return s
		}
	}
}

func hashUint64(x uint64) uint64 { return x * 0x9e3779b97f4a7c15 } // Fibonacci hashing
func hashInt64(x int64) uint64   { return hashUint64(uint64(x)) }

var stringSeed = maphash.MakeSeed()

func hashString(s string) uint64 { return maphash.String(stringSeed, s) }

// sortFloatBits orders float bits by value, then by bits: -0 after 0, and
// NaNs first.
func sortFloatBits(keys []uint64) {
	slices.SortFunc(keys, func(a, b uint64) int {
		return cmp.Or(cmp.Compare(math.Float64frombits(a), math.Float64frombits(b)), cmp.Compare(a, b))
	})
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
