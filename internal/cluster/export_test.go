package cluster

import (
	"repro/internal/storage"
	"repro/internal/types"
	"repro/internal/vector"
)

// Rejoin marks a failed node up again without a recovery pass. The recovery
// oracle uses it to let each buddy serve reads in turn: the node missed
// nothing, and its WOS must survive for the next moveout to see.
func (n *Node) Rejoin() { n.setUp(true) }

// TestRow is one row of a projection's local storage as the tests read
// it: where it is, its user columns and its commit and delete epochs.
type TestRow struct {
	Target         string
	Pos            int64
	Row            types.Row
	Epoch, Deleted types.Epoch
}

// ReadRows reads everything mgr stores through ForEachStored and pivots each
// batch's selected rows with Batch.Rows: the tests' row view of the
// stored-batch form.
func ReadRows(mgr *storage.Manager) ([]TestRow, error) {
	var out []TestRow
	err := mgr.ForEachStored(0, types.MaxEpoch, func(target string, first int64, b *vector.Batch) error {
		for k, r := range b.Rows() {
			n := len(r) - 2
			out = append(out, TestRow{target, first + int64(b.Sel[k]), r[:n:n], types.Epoch(r[n].I), types.Epoch(r[n+1].I)})
		}
		return nil
	})
	return out, err
}
