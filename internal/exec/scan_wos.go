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
	batch.Sel = s.applySIPs(ctx, batch.Cols, sel)
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
	wos, err := s.wosBatch(ctx, s.wosRows)
	if err != nil {
		return err
	}
	if wos != nil {
		srcs = append(srcs, vector.SliceStream(sortBatch(wos, specs)))
	}
	s.merged = vector.NewMerger(specs, srcs...)
	return nil
}
