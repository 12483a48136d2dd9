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

// Apply narrows sel — live rows of cols, in increasing order — to the rows
// whose key hash is in the join's table, in place, and returns what is
// left. It is a pure filter: false positives are possible (hash
// collisions), false negatives are not, so the join above stays correct. A
// NULL key never passes: the joins that get SIP — INNER, SEMI and RIGHT
// OUTER — drop such probe rows. Only the key columns of cols are read, and
// they must be flat.
//
// The caller owns the scratch: hashes is reused for the key hashes and
// returned.
func (f *SIPFilter) Apply(cols []*vector.Vector, sel []int, hashes []uint64) ([]int, []uint64) {
	t := f.table.Load()
	if t == nil {
		return sel, hashes
	}
	keys := vector.Batch{Cols: cols, Sel: sel}
	hashes = keys.Hashes(hashes[:0], f.KeyCols)
	out := sel[:0]
	for i, h := range hashes {
		if phys := sel[i]; t.hasHash(h) && !nullKey(cols, f.KeyCols, phys) {
			out = append(out, phys)
		}
	}
	return out, hashes
}

// nullKey reports whether row phys has a NULL in any of the key columns.
func nullKey(cols []*vector.Vector, keys []int, phys int) bool {
	for _, k := range keys {
		if cols[k].NullAt(phys) {
			return true
		}
	}
	return false
}
