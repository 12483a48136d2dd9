package exec

import (
	"repro/internal/types"
	"repro/internal/vector"
)

// NewValues builds a source over rows, pivoted into batches up front.
func NewValues(schema *types.Schema, rows []types.Row) *Values {
	var batches []*vector.Batch
	for lo := 0; lo < len(rows); lo += vector.DefaultBatchSize {
		hi := min(lo+vector.DefaultBatchSize, len(rows))
		batch := vector.NewBatchForSchema(schema, hi-lo)
		for _, r := range rows[lo:hi] {
			batch.AppendRow(r)
		}
		batches = append(batches, batch)
	}
	return NewBatchValues(schema, batches)
}
