// Package encoding implements Vertica's column encoding schemes (paper
// §3.4.1): Auto, RLE, Delta Value, Block Dictionary, Compressed Delta Range
// and Compressed Common Delta, plus an uncompressed None baseline and
// Scaled, Auto's store for a FLOAT block of decimals.
//
// Encoding operates block-at-a-time: the storage layer hands each block of a
// column (a flat vector) to EncodeBlock and stores the resulting bytes; reads
// go through DecodeBlock. RLE blocks can be decoded directly into run-length
// form so the execution engine can operate on encoded data (paper §6.1).
package encoding

import (
	"fmt"
	"slices"

	"repro/internal/types"
	"repro/internal/vector"
)

// Kind identifies an encoding scheme.
type Kind uint8

// The encoding schemes of paper §3.4.1.
const (
	// None stores values uncompressed (fixed-width ints/floats, raw strings).
	None Kind = iota
	// Auto picks the most advantageous encoding per block from the data
	// itself; this is the default (paper: "used when insufficient usage
	// examples are known").
	Auto
	// RLE replaces sequences of identical values with (value, count) pairs.
	// Best for low-cardinality sorted columns.
	RLE
	// DeltaValue records each value as a difference from the smallest value
	// in the block. Best for many-valued unsorted integer columns.
	DeltaValue
	// BlockDict stores distinct values in a per-block dictionary and replaces
	// values with bit-packed dictionary references. Best for few-valued
	// unsorted columns such as stock prices.
	BlockDict
	// CompressedDeltaRange stores each value as a delta from the previous
	// one. Ideal for many-valued float columns that are sorted or confined
	// to a range (floats use an XOR-of-bits delta).
	CompressedDeltaRange
	// CompressedCommonDelta builds a dictionary of all deltas in the block
	// and entropy-codes (canonical Huffman) indexes into it. Best for sorted
	// data with predictable sequences and occasional breaks, e.g. periodic
	// timestamps or primary keys.
	CompressedCommonDelta
	// Scaled stores a FLOAT block whose values are all decimals k/10^e as
	// the integers k, in a block of their own that Auto's experiment picks,
	// behind one byte of e. Only Auto stores it: no ENCODING clause names it.
	Scaled
)

// String returns the encoding's name as the ENCODING clause spells it.
func (k Kind) String() string {
	switch k {
	case None:
		return "NONE"
	case Auto:
		return "AUTO"
	case RLE:
		return "RLE"
	case DeltaValue:
		return "DELTAVAL"
	case BlockDict:
		return "BLOCK_DICT"
	case CompressedDeltaRange:
		return "DELTARANGE_COMP"
	case CompressedCommonDelta:
		return "COMMONDELTA_COMP"
	case Scaled:
		return "SCALED"
	default:
		return fmt.Sprintf("KIND(%d)", k)
	}
}

// ParseKind parses an encoding name, as the ENCODING clause spells it.
func ParseKind(s string) (Kind, error) {
	switch s {
	case "NONE", "RAW":
		return None, nil
	case "AUTO":
		return Auto, nil
	case "RLE":
		return RLE, nil
	case "DELTAVAL", "DELTA":
		return DeltaValue, nil
	case "BLOCK_DICT", "DICT":
		return BlockDict, nil
	case "DELTARANGE_COMP", "DELTARANGE":
		return CompressedDeltaRange, nil
	case "COMMONDELTA_COMP", "COMMONDELTA":
		return CompressedCommonDelta, nil
	default:
		return None, fmt.Errorf("encoding: unknown encoding %q", s)
	}
}

// Applicable reports whether kind can encode columns of type t.
func (k Kind) Applicable(t types.Type) bool {
	switch k {
	case None, Auto, RLE, BlockDict:
		return true
	case DeltaValue, CompressedCommonDelta:
		return t.IsIntegral()
	case CompressedDeltaRange:
		return t.IsIntegral() || t == types.Float64
	case Scaled:
		return t == types.Float64
	default:
		return false
	}
}

// blockHeader layout: [kind u8][uvarint rowCount][nullFlag u8][nullBitmap?].
// The payload that follows is kind-specific and always encodes rowCount
// logical slots (null slots carry zero values).

// EncodeBlock encodes a vector as one block of the given kind, which must be
// applicable to v's type. Auto runs the storage experiment (see Choose) and
// returns the bytes it keeps. It is AppendBlock on a throwaway Encoder.
func EncodeBlock(kind Kind, v *vector.Vector) ([]byte, error) {
	var e Encoder
	return e.AppendBlock(nil, kind, v)
}

// Encoder encodes blocks, keeping the scratch its encoders build from one
// block to the next: the Auto experiment's two buffers and the scaled
// block's two for its integer experiment, the dictionary tables and their
// key, index, delta and Huffman slices. The zero value is ready to use; an
// Encoder is not safe for concurrent use.
type Encoder struct {
	kept, trial       []byte // Auto: the smallest block so far, the candidate being tried
	keptInt, trialInt []byte // the same for a scaled block's integers
	scaled            []int64

	intDict   dictTable[int64]
	floatDict dictTable[uint64] // keyed on the bits, so that -0 is not 0
	strDict   dictTable[string]
	intKeys   []int64
	floatKeys []uint64
	strKeys   []string
	bits      []uint64 // a block's floats as bits
	deltas    []int64
	idx       []int // dictionary indexes, Huffman symbols
	freq      []int
	huff      huffScratch
}

// AppendBlock appends v encoded as one block of the given kind to dst; a
// run-length vector is expanded first. On error it returns dst unchanged.
func (e *Encoder) AppendBlock(dst []byte, kind Kind, v *vector.Vector) ([]byte, error) {
	if v.IsRLE() {
		v = v.Expand()
	}
	if kind == Auto {
		e.experiment(v)
		return append(dst, e.kept...), nil
	}
	buf, err := e.appendBlock(dst, kind, v)
	if err != nil {
		return dst, err
	}
	return buf, nil
}

// appendBlock is AppendBlock for a concrete kind and a flat vector. On error
// it still returns the buffer, holding a partial block, for its capacity.
func (e *Encoder) appendBlock(buf []byte, kind Kind, v *vector.Vector) ([]byte, error) {
	if !kind.Applicable(v.Typ) {
		return buf, fmt.Errorf("encoding: %s not applicable to %s", kind, v.Typ)
	}
	n := v.PhysLen()
	buf = append(buf, byte(kind))
	buf = appendUvarint(buf, uint64(n))
	if v.HasNulls() {
		buf = append(buf, 1)
		bm := len(buf)
		buf = slices.Grow(buf, (n+7)/8)[:bm+(n+7)/8]
		clear(buf[bm:])
		for i := 0; i < n; i++ {
			if v.Nulls[i] {
				buf[bm+i/8] |= 1 << (i % 8)
			}
		}
	} else {
		buf = append(buf, 0)
	}
	switch kind {
	case None:
		return encodeNone(buf, v), nil
	case RLE:
		return encodeRLE(buf, v), nil
	case DeltaValue:
		return encodeDeltaValue(buf, v), nil
	case BlockDict:
		return e.encodeBlockDict(buf, v), nil
	case CompressedDeltaRange:
		return encodeDeltaRange(buf, v), nil
	case CompressedCommonDelta:
		return e.encodeCommonDelta(buf, v)
	case Scaled:
		return e.encodeScaled(buf, v)
	default:
		return buf, fmt.Errorf("encoding: cannot encode with kind %s", kind)
	}
}

// DecodeBlock decodes one block into a flat vector of type t.
// RLE blocks decode into run-length form when preserveRuns is true.
func DecodeBlock(data []byte, t types.Type, preserveRuns bool) (*vector.Vector, error) {
	v := &vector.Vector{Typ: t}
	if err := DecodeInto(v, data, preserveRuns, nil); err != nil {
		return nil, err
	}
	return v, nil
}

// DecodeInto is DecodeBlock into dst, of the column's type, reusing its
// slices where their capacity allows. dict, when not nil, is scratch of the
// same type for a BLOCK_DICT or COMMONDELTA_COMP block's dictionary, or a
// SCALED block's.
func DecodeInto(dst *vector.Vector, data []byte, preserveRuns bool, dict *vector.Vector) error {
	t := dst.Typ
	kind, n, nullFlag, pos, err := decodeHeader(data, t)
	if err != nil {
		return err
	}
	var nulls []bool
	if nullFlag == 1 {
		bmLen := (n + 7) / 8
		if pos+bmLen > len(data) {
			return fmt.Errorf("encoding: truncated null bitmap")
		}
		nulls = grow(dst.Nulls, n)
		for i := 0; i < n; i++ {
			nulls[i] = data[pos+i/8]&(1<<(i%8)) != 0
		}
		pos += bmLen
	}
	// Emptied, keeping the capacity of its value slices but not their values.
	*dst = vector.Vector{Typ: t, Ints: dst.Ints[:0], Floats: dst.Floats[:0], Strs: dst.Strs[:0], Owner: dst.Owner}
	var spare vector.Vector
	if dict == nil {
		dict = &spare
	}
	if err := decodePayload(kind, data[pos:], dst, n, preserveRuns && nulls == nil, dict); err != nil {
		return err
	}
	dst.Nulls = nulls
	return nil
}

// decodeHeader reads a block header up to its null bitmap: the kind, which
// must be a stored one applicable to t, the row count, the null flag and
// the offset of what follows it.
func decodeHeader(data []byte, t types.Type) (kind Kind, n int, nullFlag byte, pos int, err error) {
	if len(data) < 2 {
		return 0, 0, 0, 0, fmt.Errorf("encoding: short block (%d bytes)", len(data))
	}
	kind = Kind(data[0])
	if kind == Auto || kind > Scaled {
		return 0, 0, 0, 0, fmt.Errorf("encoding: unknown block kind %d", kind)
	}
	if !kind.Applicable(t) {
		return 0, 0, 0, 0, fmt.Errorf("encoding: block kind %s not applicable to %s", kind, t)
	}
	n64, sz := uvarint(data[1:])
	if sz <= 0 {
		return 0, 0, 0, 0, fmt.Errorf("encoding: corrupt row count")
	}
	// Harden against corrupt headers: a row count beyond anything the writer
	// produces is a malformed block, not a request to allocate.
	if n64 > maxBlockRows {
		return 0, 0, 0, 0, fmt.Errorf("encoding: block row count %d exceeds limit %d", n64, maxBlockRows)
	}
	pos = 1 + sz
	if pos >= len(data) {
		return 0, 0, 0, 0, fmt.Errorf("encoding: truncated block header")
	}
	return kind, int(n64), data[pos], pos + 1, nil
}

// decodePayload decodes the payload of a block of kind and n rows into
// out, which is empty.
func decodePayload(kind Kind, payload []byte, out *vector.Vector, n int, preserveRuns bool, dict *vector.Vector) error {
	switch kind {
	case None:
		return decodeNone(payload, out, n)
	case RLE:
		return decodeRLE(payload, out, n, preserveRuns)
	case DeltaValue:
		return decodeDeltaValue(payload, out, n)
	case BlockDict:
		return decodeBlockDict(payload, out, n, dict)
	case CompressedDeltaRange:
		return decodeDeltaRange(payload, out, n)
	case CompressedCommonDelta:
		return decodeCommonDelta(payload, out, n, dict)
	default:
		return decodeScaled(payload, out, n, dict)
	}
}

// grow returns s resized to n, in its own storage when the capacity allows.
// The values are not cleared: the caller overwrites every one.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// maxBlockRows bounds the row count a decoder will honor from a block
// header. Storage blocks hold at most one batch of a column, far below this;
// anything larger is corruption (or an attack) and must not drive
// allocations.
const maxBlockRows = 1 << 22

// BlockKind returns the encoding kind stored in an encoded block.
func BlockKind(data []byte) (Kind, error) {
	if len(data) == 0 {
		return None, fmt.Errorf("encoding: empty block")
	}
	return Kind(data[0]), nil
}

// BlockRows returns the row count an encoded block's header declares,
// without decoding it: a reader that knows how many rows a block may hold
// can refuse a larger one before DecodeBlock allocates for it.
func BlockRows(data []byte) (int, error) {
	if len(data) < 2 {
		return 0, fmt.Errorf("encoding: short block (%d bytes)", len(data))
	}
	n, sz := uvarint(data[1:])
	if sz <= 0 || n > maxBlockRows {
		return 0, fmt.Errorf("encoding: corrupt row count")
	}
	return int(n), nil
}
