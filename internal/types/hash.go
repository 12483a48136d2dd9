package types

import "math"

// Hash support for segmentation expressions. The paper (§3.6) segments
// projections by an integral expression, most commonly HASH(col1..coln) of a
// high-cardinality column; nodes own contiguous ranges of the unsigned hash
// space. We use FNV-1a over the value's canonical byte representation so the
// hash is stable across processes and nodes.

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// HashSeed is the initial accumulator for multi-column hashing: combining
// per-column HashValue results into it with HashCombine reproduces HashRow,
// letting vectorized kernels hash column-at-a-time.
const HashSeed uint64 = fnvOffset64

// HashValue returns a stable 64-bit hash of the value. NULL hashes to a
// fixed constant per type so that NULLs co-locate.
func HashValue(v Value) uint64 {
	h := uint64(fnvOffset64)
	h = fnvByte(h, byte(v.Typ))
	if v.Null {
		return fnvByte(h, 0xff)
	}
	switch v.Typ {
	case Int64, Timestamp, Bool:
		h = fnvUint64(h, uint64(v.I))
	case Float64:
		h = fnvUint64(h, float64Bits(v.F))
	case Varchar:
		for i := 0; i < len(v.S); i++ {
			h = fnvByte(h, v.S[i])
		}
	}
	return h
}

// HashCombine folds a new hash into an accumulated multi-column hash.
func HashCombine(acc, h uint64) uint64 {
	acc ^= h
	acc *= fnvPrime64
	return acc
}

// HashRow hashes the given key columns of a row.
func HashRow(r Row, keyIdx []int) uint64 {
	acc := uint64(fnvOffset64)
	for _, k := range keyIdx {
		acc = HashCombine(acc, HashValue(r[k]))
	}
	return acc
}

// HashInt64 hashes a raw int64 with the same function used by HashValue for
// Int64 values, letting vectorized kernels avoid constructing Values.
func HashInt64(v int64) uint64 {
	h := uint64(fnvOffset64)
	h = fnvByte(h, byte(Int64))
	return fnvUint64(h, uint64(v))
}

// HashString hashes a raw string consistently with HashValue for Varchar.
func HashString(s string) uint64 {
	h := uint64(fnvOffset64)
	h = fnvByte(h, byte(Varchar))
	for i := 0; i < len(s); i++ {
		h = fnvByte(h, s[i])
	}
	return h
}

func fnvByte(h uint64, b byte) uint64 {
	h ^= uint64(b)
	h *= fnvPrime64
	return h
}

func fnvUint64(h uint64, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h = fnvByte(h, byte(v))
		v >>= 8
	}
	return h
}

func float64Bits(f float64) uint64 {
	// Normalise -0 to +0 so they hash identically.
	if f == 0 {
		f = 0
	}
	return math.Float64bits(f)
}

// Ring maps a segmentation value v onto one of n ≥ 1 contiguous ranges,
// span/n+1 wide, and returns the range, v's offset in it and the width
// (paper §3.6): nodes split the hash space (span 2^64−1), local segments a
// node's range (span its width). One range over the whole space is 2^64−1
// wide, so 2^64−1 itself takes offset 0.
func Ring(v, span uint64, n int) (idx int, off, width uint64) {
	width = span/uint64(n) + 1
	if width == 0 {
		width = span
	}
	return int(min(v/width, uint64(n-1))), v % width, width
}
