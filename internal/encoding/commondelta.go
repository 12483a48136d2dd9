package encoding

import (
	"fmt"
	"slices"

	"repro/internal/vector"
)

// CompressedCommonDelta payload (integral only): "builds a dictionary of all
// the deltas in the block and then stores indexes into the dictionary using
// entropy coding. Best for sorted data with predictable sequences and
// occasional sequence breaks, e.g. timestamps recorded at periodic intervals
// or primary keys" (paper §3.4.1).
//
// Layout: varint firstValue, uvarint dictSize, varint dict entries, then a
// canonical-Huffman-coded stream of n-1 dictionary indexes (see huffman.go).

// maxCommonDeltaDict bounds the delta dictionary; blocks with more distinct
// deltas than this are a poor fit and encoding fails over to another scheme
// via Auto (direct encode requests get an error).
const maxCommonDeltaDict = 4096

func (e *Encoder) encodeCommonDelta(buf []byte, v *vector.Vector) ([]byte, error) {
	n := len(v.Ints)
	if n == 0 {
		return buf, nil
	}
	buf = appendVarint(buf, v.Ints[0])
	e.deltas = grow(e.deltas, n-1)
	for i := range e.deltas {
		e.deltas[i] = v.Ints[i+1] - v.Ints[i]
	}
	e.intKeys, e.idx = dictionary(&e.intDict, e.intKeys, e.idx, e.deltas, hashInt64, slices.Sort)
	dict := e.intKeys
	if len(dict) > maxCommonDeltaDict {
		return buf, fmt.Errorf("encoding: COMMONDELTA_COMP delta dictionary exceeds %d entries", maxCommonDeltaDict)
	}
	buf = appendUvarint(buf, uint64(len(dict)))
	for _, d := range dict {
		buf = appendVarint(buf, d)
	}
	if len(dict) == 0 {
		return buf, nil
	}
	e.freq = grow(e.freq, len(dict))
	clear(e.freq)
	for _, s := range e.idx {
		e.freq[s]++
	}
	lengths, err := e.huff.codeLengths(e.freq)
	if err != nil {
		return buf, err
	}
	return e.huff.encode(buf, len(dict), lengths, e.idx), nil
}

func decodeCommonDelta(b []byte, out *vector.Vector, n int, scratch *vector.Vector) error {
	if n == 0 {
		return nil
	}
	first, sz := varint(b)
	if sz <= 0 {
		return fmt.Errorf("encoding: corrupt COMMONDELTA_COMP first value")
	}
	pos := sz
	ds64, sz := uvarint(b[pos:])
	if sz <= 0 {
		return fmt.Errorf("encoding: corrupt COMMONDELTA_COMP dict size")
	}
	pos += sz
	if ds64 > uint64(len(b)) { // every dictionary entry costs ≥ 1 byte
		return fmt.Errorf("encoding: COMMONDELTA_COMP dict size %d exceeds payload", ds64)
	}
	ds := int(ds64)
	// The scratch holds the dictionary, then the Huffman decoder's table of
	// symbols by rank: one per dictionary entry in a well-formed block.
	scratch.Ints = grow(scratch.Ints, 2*ds)
	dict := scratch.Ints[:ds]
	for i := range dict {
		d, sz := varint(b[pos:])
		if sz <= 0 {
			return fmt.Errorf("encoding: corrupt COMMONDELTA_COMP dict entry")
		}
		dict[i] = d
		pos += sz
	}
	// The symbols land in the output itself and are prefix-summed in place.
	// A one-row block has no stream.
	v := grow(out.Ints, n)
	if n > 1 {
		if _, err := huffmanDecode(b[pos:], v[1:], scratch.Ints[ds:]); err != nil {
			return err
		}
	}
	v[0] = first
	for i := 1; i < n; i++ {
		s := v[i]
		if uint64(s) >= uint64(ds) {
			return fmt.Errorf("encoding: COMMONDELTA_COMP symbol out of range")
		}
		v[i] = v[i-1] + dict[s]
	}
	out.Ints = v
	return nil
}
