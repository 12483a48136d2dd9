package exec

import (
	"fmt"
	"sync/atomic"

	"repro/internal/vector"
)

// SIPFilter implements Sideways Information Passing (paper §6.1): "special
// SIP filters are built during optimizer planning and placed in the Scan
// operator. At run time, the Scan has access to the Join's hash table and
// the SIP filters are used to evaluate whether the outer key values exist in
// the hash table" — an advanced form of predicate pushdown that stops rows
// that a downstream join would discard from ever flowing up the plan.
//
// The hash join hands the filter its table once the table is built and
// linked (a fan's shared build does so once), and takes it back when the
// build closes; until then, and after a build that switched to sort-merge,
// the filter passes everything through.
type SIPFilter struct {
	// KeyCols are scan-output column indexes forming the probe key, aligned
	// with the join's build key order.
	KeyCols []int
	// JoinDesc labels the owning join for plan display.
	JoinDesc string

	table atomic.Pointer[hashTable] // the join's built table, read-only; nil when there is none
}

// NewSIPFilter creates a filter for the given scan-output key columns.
func NewSIPFilter(keyCols []int, joinDesc string) *SIPFilter {
	return &SIPFilter{KeyCols: keyCols, JoinDesc: joinDesc}
}

// Describe renders the filter for plan display.
func (f *SIPFilter) Describe() string {
	return fmt.Sprintf("SIP(%s cols=%v)", f.JoinDesc, f.KeyCols)
}

// Apply narrows the batch's selection to rows whose key hash is in the
// join's table. It is a pure filter: false positives are possible (hash
// collisions), false negatives are not, so the join above stays correct. A
// NULL key never passes: the joins that get SIP — INNER, SEMI and RIGHT
// OUTER — drop such probe rows.
//
// The caller owns the scratch: hashes is reused for the key hashes and
// returned, sel holds the selection when the batch has none (at least its
// length); a batch's own selection is narrowed in place.
func (f *SIPFilter) Apply(b *vector.Batch, hashes []uint64, sel []int) ([]uint64, error) {
	t := f.table.Load()
	if t == nil {
		return hashes, nil
	}
	for _, kc := range f.KeyCols {
		if kc >= len(b.Cols) {
			return hashes, fmt.Errorf("exec: SIP key column %d out of range", kc)
		}
	}
	hashes = b.Hashes(hashes[:0], f.KeyCols) // one hash per run for RLE key columns
	b.ExpandRLE()                            // a selection requires flat columns
	if b.Sel != nil {
		sel = b.Sel
	} else if sel == nil {
		sel = make([]int, 0, len(hashes))
	}
	out := sel[:0]
	for i, h := range hashes {
		phys := i
		if b.Sel != nil {
			phys = b.Sel[i]
		}
		if t.hasHash(h) && !nullKey(b, f.KeyCols, phys) {
			out = append(out, phys)
		}
	}
	b.Sel = out
	return hashes, nil
}

// nullKey reports whether row phys has a NULL in any of the key columns.
func nullKey(b *vector.Batch, keys []int, phys int) bool {
	for _, k := range keys {
		if b.Cols[k].NullAt(phys) {
			return true
		}
	}
	return false
}
