package exec

import (
	"sort"

	"repro/internal/expr"
	"repro/internal/storage"
	"repro/internal/vector"
)

// WOS and merge-sorted scan paths.

// wosBatch returns the rows of the WOS chunk view c that the scan keeps —
// not deleted at the snapshot (deleted is the sorted deleted positions,
// storage.WOSView), passing the predicate and every SIP filter — as the
// view's columns with a selection in the scan's scratch, nil when every row
// is kept; nil when no row is. The view already ends at the snapshot.
func (s *Scan) wosBatch(ctx *Ctx, c *storage.WOSChunk, deleted []int64) (*vector.Batch, error) {
	s.dropBlocks(nil) // the consumer has come back for more
	n := c.Len()
	var sel []int
	// Deletes: the positions inside the view, walked with the rows. A
	// position may be listed twice (a transaction deleting a row twice).
	d := sort.Search(len(deleted), func(i int) bool { return deleted[i] >= c.First })
	if d < len(deleted) && deleted[d] < c.First+int64(n) {
		sel = s.scratch(n)[:0]
		for i := range n {
			pos := c.First + int64(i)
			for d < len(deleted) && deleted[d] < pos {
				d++
			}
			if d == len(deleted) || deleted[d] != pos {
				sel = append(sel, i)
			}
		}
	}
	cols := make([]*vector.Vector, len(s.Columns))
	for i, pc := range s.Columns {
		cols[i] = c.Cols[pc]
	}
	// The WOS is not sorted: every conjunct selects, key bounds included.
	if s.wosSelector == nil && len(s.keyBounds) > 0 {
		var err error
		if s.wosSelector, err = expr.NewSelector(expr.Conjuncts(s.Predicate)); err != nil {
			return nil, err
		}
	}
	if s.wosSelector != nil && (sel == nil || len(sel) > 0) {
		var err error
		if sel, err = s.wosSelector.Narrow(cols, sel, 0, n, s.scratch(n)); err != nil {
			return nil, err
		}
	}
	if s.sipLive() && (sel == nil || len(sel) > 0) {
		if sel == nil {
			sel = s.scratch(n)[:n]
			for i := range sel {
				sel[i] = i
			}
		}
		if sel = s.applySIPs(ctx, cols, sel); len(sel) == 0 {
			ctx.BlocksSpared.Add(1)
		}
	}
	switch {
	case sel == nil || len(sel) == n:
		sel = nil
	case len(sel) == 0:
		return nil, nil
	}
	batch := &vector.Batch{Cols: cols, Sel: sel}
	ctx.RowsScanned.Add(int64(batch.Len()))
	return batch, nil
}

// nextWOS produces the WOS's rows a chunk view at a time, then ends the
// stream.
func (s *Scan) nextWOS(ctx *Ctx) (*vector.Batch, error) {
	if s.wos == nil {
		return nil, nil
	}
	for s.wosNext < len(s.wos.Chunks) {
		c := &s.wos.Chunks[s.wosNext]
		s.wosNext++
		if b, err := s.wosBatch(ctx, c, s.wos.Deleted); err != nil || b != nil {
			return b, err
		}
	}
	return nil, nil
}

// openMerged makes the scan emit rows globally ordered by the projection
// sort key — used under merge joins and one-pass aggregation (paper §6.1:
// "Vertica's operators are optimized for the sorted data that the storage
// system maintains"): every container's block stream is in that order
// already, the WOS rows are sorted once, and the one merger (vector.Merger)
// merges them, holding a decoded block per container at a time.
func (s *Scan) openMerged(ctx *Ctx) error {
	specs := vector.KeySpecs(s.SortKey)
	var srcs []vector.Stream
	s.mergePins = make([][]vector.Owner, len(s.containers))
	for i, r := range s.containers {
		st := &containerScan{}
		if err := s.openContainer(ctx, r, st); err != nil {
			return err
		}
		srcs = append(srcs, func() (*vector.Batch, error) {
			// Each stream's batch is on loan until that stream is read again.
			vector.Release(s.mergePins[i])
			s.mergePins[i] = s.mergePins[i][:0]
			b, err := st.nextBlock(ctx, s)
			s.dropBlocks(&s.mergePins[i])
			return b, err
		})
	}
	wos, err := s.wosSorted(ctx, specs)
	if err != nil {
		return err
	}
	if wos != nil {
		srcs = append(srcs, vector.SliceStream(wos))
	}
	s.merged = vector.NewMerger(specs, srcs...)
	return nil
}

// wosSorted returns the WOS rows the scan keeps as one flat batch sorted on
// specs, nil when it keeps none: the kept rows of every view are gathered,
// then sorted once by permutation.
func (s *Scan) wosSorted(ctx *Ctx, specs []vector.SortSpec) (*vector.Batch, error) {
	if s.wos == nil {
		return nil, nil
	}
	var all *vector.Batch
	for i := range s.wos.Chunks {
		b, err := s.wosBatch(ctx, &s.wos.Chunks[i], s.wos.Deleted)
		if err != nil {
			return nil, err
		}
		if b == nil {
			continue
		}
		if all == nil {
			all = vector.NewBatchForSchema(s.schema, b.Len())
		}
		all.Append(b)
	}
	if all == nil {
		return nil, nil
	}
	return sortBatch(all, specs), nil
}
