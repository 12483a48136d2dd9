package encoding

import (
	"repro/internal/types"
	"repro/internal/vector"
)

// Auto encoding selection (paper §3.4.1: "the system automatically picks the
// most advantageous encoding type based on properties of the data itself").
//
// The choice is empirical, as in the storage-optimization phase of paper §6.3
// ("empirical encoding experiments on the sample data"), but run on every
// block in its real sort order: encode the block with every applicable
// candidate and keep the smallest. Ties favour the cheaper-to-decode scheme
// (declaration order below).

// candidateKinds returns the encodings worth trying for a column type, in
// decode-cost order (cheapest first, used to break size ties).
func candidateKinds(t types.Type) []Kind {
	switch {
	case t == types.Float64:
		return []Kind{RLE, CompressedDeltaRange, BlockDict, None}
	case t == types.Varchar:
		return []Kind{RLE, BlockDict, None}
	default:
		return []Kind{RLE, DeltaValue, CompressedCommonDelta, BlockDict, CompressedDeltaRange, None}
	}
}

// Choose picks the most advantageous concrete encoding for the block by
// trial encoding. It never returns Auto.
func Choose(v *vector.Vector) Kind {
	if v.IsRLE() {
		return RLE
	}
	best := None
	bestSize := -1
	for _, k := range candidateKinds(v.Typ) {
		enc, err := EncodeBlock(k, v)
		if err != nil {
			continue
		}
		if bestSize < 0 || len(enc) < bestSize {
			best, bestSize = k, len(enc)
		}
	}
	return best
}

// TrialSizes encodes the block with every applicable scheme and returns the
// encoded size per kind: the reference the tests hold Choose to.
func TrialSizes(v *vector.Vector) map[Kind]int {
	out := make(map[Kind]int)
	for _, k := range candidateKinds(v.Typ) {
		enc, err := EncodeBlock(k, v)
		if err != nil {
			continue
		}
		out[k] = len(enc)
	}
	return out
}
