package vector

import (
	"math"
	"slices"

	"repro/internal/types"
)

// KeyHashes appends one key hash per live row over the key columns to dst
// and returns the extended slice; a caller that passes its buffer back
// allocates nothing once it has grown. It is the hash of the in-memory hash
// tables (join, prepass, group-by and SIP) and of exchange routing, and it
// is not Hashes: that one is the stable segmentation hash, which decides
// where rows are stored, while this one is process-local — nothing may
// store it, and it may change in any release. It is deterministic, so
// routing and first-seen group order repeat from run to run.
//
// Each value becomes one word — its bits, or for a string a mix of its
// bytes taken 8 at a time — that is XORed into the row's accumulator, which
// a 64-bit finaliser (murmur3's fmix64) then mixes. Entries EqualAt calls
// equal hash alike: a NULL takes the word 0, as its type's zero value does
// (the tables tell the two apart by the NULL flag), −0 hashes as +0 and
// every NaN as one NaN. RLE key columns take their word once per run.
func (b *Batch) KeyHashes(dst []uint64, keys []int) []uint64 {
	from, n := len(dst), b.Len()
	dst = slices.Grow(dst, n)[:from+n]
	out := dst[from:]
	for i := range out {
		out[i] = keySeed
	}
	for _, k := range keys {
		keyHashCol(b.Cols[k], b.Sel, out)
	}
	return dst
}

// KeyHash is KeyHashes for one entry of a one-column key: the hash of flat
// entry i of v, equal to what KeyHashes gives that row over key column v.
// A table that resolves a row without hashing its batch (the group-by's
// dense index) hashes only the rows it stores.
func KeyHash(v *Vector, i int) uint64 { return fmix64(keySeed ^ keyWord(v, i)) }

// keySeed starts every accumulator, so a row of zero words does not hash
// to 0.
const keySeed = 0x9e3779b97f4a7c15

func keyHashCol(v *Vector, sel []int, acc []uint64) {
	if v.IsRLE() {
		// Sel implies flat columns, so sel == nil here.
		pos := 0
		for r, run := range v.RunLens {
			w := keyWord(v, r)
			for end := min(pos+run, len(acc)); pos < end; pos++ {
				acc[pos] = fmix64(acc[pos] ^ w)
			}
		}
		return
	}
	// The typed loops keep the hot flat path a load, an XOR and a mix.
	switch {
	case v.Nulls != nil:
		for i := range acc {
			acc[i] = fmix64(acc[i] ^ keyWord(v, physAt(sel, i)))
		}
	case v.Typ == types.Float64:
		for i := range acc {
			acc[i] = fmix64(acc[i] ^ FloatWord(v.Floats[physAt(sel, i)]))
		}
	case v.Typ == types.Varchar:
		for i := range acc {
			acc[i] = fmix64(acc[i] ^ strWord(v.Strs[physAt(sel, i)]))
		}
	default:
		for i := range acc {
			acc[i] = fmix64(acc[i] ^ uint64(v.Ints[physAt(sel, i)]))
		}
	}
}

func physAt(sel []int, i int) int {
	if sel != nil {
		return sel[i]
	}
	return i
}

// keyWord is the word physical entry i of v contributes to a key hash.
func keyWord(v *Vector, i int) uint64 {
	if v.NullAt(i) {
		return 0
	}
	switch v.Typ {
	case types.Float64:
		return FloatWord(v.Floats[i])
	case types.Varchar:
		return strWord(v.Strs[i])
	default:
		return uint64(v.Ints[i])
	}
}

// FloatWord is the word a float key contributes: its bits, with −0 as +0
// and every NaN as one NaN, so floats EqualAt calls equal map to one word.
func FloatWord(f float64) uint64 {
	switch {
	case f == 0:
		return 0 // −0 as +0
	case f != f:
		return 0x7ff8000000000001 // every NaN as one
	}
	return math.Float64bits(f)
}

const strMul = 0x9fb21c651e98df25

// strWord mixes a string's bytes 8 at a time, its length first; "" is 0.
// A string of fewer than 8 bytes maps to a distinct word.
func strWord(s string) uint64 {
	h := uint64(len(s)) << 56
	for ; len(s) >= 8; s = s[8:] {
		h = (h ^ le64(s)) * strMul
		h ^= h >> 32
	}
	var tail uint64
	for i := len(s) - 1; i >= 0; i-- {
		tail = tail<<8 | uint64(s[i])
	}
	return (h ^ tail) * strMul
}

// le64 reads the first 8 bytes of s as a little-endian word; the compiler
// merges the loads into one.
func le64(s string) uint64 {
	_ = s[7]
	return uint64(s[0]) | uint64(s[1])<<8 | uint64(s[2])<<16 | uint64(s[3])<<24 |
		uint64(s[4])<<32 | uint64(s[5])<<40 | uint64(s[6])<<48 | uint64(s[7])<<56
}

// fmix64 is murmur3's 64-bit finaliser: every input bit reaches every
// output bit, and it is a bijection.
func fmix64(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}
