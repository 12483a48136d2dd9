package exec

import (
	"repro/internal/expr"
	"repro/internal/storage"
	"repro/internal/vector"
)

// WOS and merge-sorted scan paths.

// wosBatch returns the WOS's visible rows (already epoch- and DV-filtered:
// they are captured once at Open as part of the atomic storage ScanView)
// projected onto the scan's columns, less those the predicate or a SIP
// filter drops; nil when none is left.
func (s *Scan) wosBatch(ctx *Ctx, rows []storage.WOSRow) (*vector.Batch, error) {
	if len(rows) == 0 {
		return nil, nil
	}
	batch := vector.NewBatchForSchema(s.schema, len(rows))
	for i, c := range s.Columns {
		for _, r := range rows {
			batch.Cols[i].AppendValue(r.Row[c])
		}
	}
	sel, err := expr.SelectWhere(batch, s.Predicate)
	if err != nil {
		return nil, err
	}
	batch.Sel = sel
	for _, sip := range s.SIPs {
		before := batch.Len()
		if err := sip.Apply(batch); err != nil {
			return nil, err
		}
		ctx.SIPFiltered.Add(int64(before - batch.Len()))
	}
	if batch.Len() == 0 {
		return nil, nil
	}
	ctx.RowsScanned.Add(int64(batch.Len()))
	return batch.Flatten(), nil
}

// nextWOS produces the WOS's rows (once), then ends the stream.
func (s *Scan) nextWOS(ctx *Ctx) (*vector.Batch, error) {
	if s.wosDone {
		return nil, nil
	}
	s.wosDone = true
	return s.wosBatch(ctx, s.wosRows)
}

// openMerged makes the scan emit rows globally ordered by the projection
// sort key — used under merge joins and one-pass aggregation (paper §6.1:
// "Vertica's operators are optimized for the sorted data that the storage
// system maintains"): every container's block stream is in that order
// already, the WOS rows are sorted once, and the one merger (sorted.go)
// merges them, holding a decoded block per container at a time.
func (s *Scan) openMerged(ctx *Ctx) error {
	specs := keySpecs(s.SortKey)
	var srcs []batchStream
	for _, r := range s.containers {
		st := &containerScan{}
		if err := s.openContainer(ctx, r, st); err != nil {
			return err
		}
		srcs = append(srcs, func(ctx *Ctx) (*vector.Batch, error) { return st.nextBlock(ctx, s) })
	}
	wos, err := s.wosBatch(ctx, s.wosRows)
	if err != nil {
		return err
	}
	if wos != nil {
		srcs = append(srcs, sliceSource(sortBatch(wos, specs)))
	}
	s.merged = newMerger(specs, s.schema, srcs...)
	return nil
}
