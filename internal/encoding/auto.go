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
		return []Kind{RLE, CompressedDeltaRange, BlockDict, Scaled, None}
	case t == types.Varchar:
		return []Kind{RLE, BlockDict, None}
	default:
		return []Kind{RLE, DeltaValue, CompressedCommonDelta, BlockDict, CompressedDeltaRange, None}
	}
}

// Choose picks the most advantageous concrete encoding for the block by
// trial encoding: the kind AppendBlock(Auto) stores. It never returns Auto.
func Choose(v *vector.Vector) Kind {
	var e Encoder
	return e.experiment(v.Expand())
}

// experiment encodes the flat vector v with every candidate kind, keeps the
// smallest block in e.kept, the earlier candidate on a tie, and returns its
// kind.
func (e *Encoder) experiment(v *vector.Vector) Kind {
	var best Kind
	e.kept, e.trial, best = e.trialLoop(v, e.kept, e.trial)
	return best
}

// trialLoop is the experiment on a pair of buffers: it returns the one that
// holds the smallest block, the other, and the smallest block's kind. The
// loser's buffer takes the next candidate, so nothing is encoded twice and,
// once the buffers have grown, nothing is allocated.
func (e *Encoder) trialLoop(v *vector.Vector, kept, trial []byte) ([]byte, []byte, Kind) {
	best := Auto
	for _, k := range candidateKinds(v.Typ) {
		var err error
		trial, err = e.appendBlock(trial[:0], k, v)
		if err == nil && (best == Auto || len(trial) < len(kept)) {
			kept, trial = trial, kept
			best = k
		}
	}
	return kept, trial, best
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
