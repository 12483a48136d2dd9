package exec

import (
	"fmt"

	"repro/internal/types"
	"repro/internal/vector"
)

// Values is an in-memory batch source: the initiator merge reads the node
// plans' results through it, and tests feed operators from it.
type Values struct {
	schema  *types.Schema
	batches []*vector.Batch
	pos     int
	prof    OpProf
}

// NewBatchValues builds a source that replays batches as they are.
func NewBatchValues(schema *types.Schema, batches []*vector.Batch) *Values {
	return &Values{schema: schema, batches: batches}
}

// Schema implements Operator.
func (v *Values) Schema() *types.Schema { return v.schema }

// Children implements the plan walker (leaf).
func (v *Values) Children() []Operator { return nil }

// Describe implements Operator.
func (v *Values) Describe() string {
	return fmt.Sprintf("Values rows=%d", vector.NumRows(v.batches))
}

// Open implements Operator.
func (v *Values) Open(*Ctx) error {
	v.pos = 0
	return nil
}

// Close implements Operator.
func (v *Values) Close(*Ctx) error { return nil }

// next is the operator body behind the profiled Next (profile.go). Consumers
// may edit a batch's headers in place (Filter sets Sel, Limit expands RLE),
// so each call hands out a copy of them: the source replays unchanged.
func (v *Values) next(*Ctx) (*vector.Batch, error) {
	if v.pos >= len(v.batches) {
		return nil, nil
	}
	b := v.batches[v.pos]
	v.pos++
	return b.ShallowCopy(), nil
}
