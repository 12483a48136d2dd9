package exec

import (
	"fmt"
	"sync"

	"repro/internal/vector"
)

// SIPFilter implements Sideways Information Passing (paper §6.1): "special
// SIP filters are built during optimizer planning and placed in the Scan
// operator. At run time, the Scan has access to the Join's hash table and
// the SIP filters are used to evaluate whether the outer key values exist in
// the hash table" — an advanced form of predicate pushdown that stops rows
// that a downstream join would discard from ever flowing up the plan.
//
// The hash join publishes its build-side key set here once the build phase
// finishes; until then the filter passes everything through (the scan may
// start before the build completes in a parallel plan).
type SIPFilter struct {
	// KeyCols are scan-output column indexes forming the probe key, aligned
	// with the join's build key order.
	KeyCols []int
	// JoinDesc labels the owning join for plan display.
	JoinDesc string

	mu   sync.RWMutex
	keys map[uint64]bool // nil until published
}

// NewSIPFilter creates a filter for the given scan-output key columns.
func NewSIPFilter(keyCols []int, joinDesc string) *SIPFilter {
	return &SIPFilter{KeyCols: keyCols, JoinDesc: joinDesc}
}

// Publish installs the build side's key-hash set, arming the filter.
func (f *SIPFilter) Publish(keys map[uint64]bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.keys = keys
}

// Describe renders the filter for plan display.
func (f *SIPFilter) Describe() string {
	return fmt.Sprintf("SIP(%s cols=%v)", f.JoinDesc, f.KeyCols)
}

// Apply narrows the batch's selection to rows whose key hash appears in the
// build-side set. It is a pure filter: false positives are possible (hash
// collisions), false negatives are not, so the join above stays correct.
func (f *SIPFilter) Apply(b *vector.Batch) error {
	f.mu.RLock()
	keys := f.keys
	f.mu.RUnlock()
	if keys == nil {
		return nil
	}
	for _, kc := range f.KeyCols {
		if kc >= len(b.Cols) {
			return fmt.Errorf("exec: SIP key column %d out of range", kc)
		}
	}
	hashes := b.Hashes(f.KeyCols) // one hash per run for RLE key columns
	b.ExpandRLE()                 // a selection requires flat columns
	out := make([]int, 0, len(hashes))
	for i, h := range hashes {
		if keys[h] {
			phys := i
			if b.Sel != nil {
				phys = b.Sel[i]
			}
			out = append(out, phys)
		}
	}
	b.Sel = out
	return nil
}
