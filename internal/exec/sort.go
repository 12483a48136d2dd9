package exec

import (
	"fmt"

	"repro/internal/types"
	"repro/internal/vector"
)

// Sort sorts its input (paper §6.1 operator 5: "sorts incoming data,
// externalizing if needed"): it feeds the one sorter (sorted.go) and emits
// the stream it finishes with.
type Sort struct {
	single
	Specs []SortSpec

	runs runSet
	out  batchStream // the sorted stream, once the input is consumed
	prof OpProf
}

// NewSort builds a sort node.
func NewSort(child Operator, specs []SortSpec) *Sort {
	return &Sort{single: single{child: child}, Specs: specs}
}

// Schema implements Operator.
func (s *Sort) Schema() *types.Schema { return s.child.Schema() }

// Describe implements Operator.
func (s *Sort) Describe() string {
	parts := make([]string, len(s.Specs))
	for i, sp := range s.Specs {
		dir := "asc"
		if sp.Desc {
			dir = "desc"
		}
		parts[i] = fmt.Sprintf("$%d %s", sp.Col, dir)
	}
	return fmt.Sprintf("Sort %v", parts)
}

// Open implements Operator.
func (s *Sort) Open(ctx *Ctx) error {
	s.runs.close()
	s.out = nil
	return s.openChild(ctx)
}

// Close implements Operator.
func (s *Sort) Close(ctx *Ctx) error {
	s.runs.close()
	s.out = nil
	return s.closeChild(ctx)
}

// next is the operator body behind the profiled Next (profile.go).
func (s *Sort) next(ctx *Ctx) (*vector.Batch, error) {
	if s.out == nil {
		sorter := newSorter(ctx, s.Schema(), s.Specs, &s.runs, &s.prof)
		if err := sorter.addAll(ctx, s.child); err != nil {
			return nil, err
		}
		sorter.finish()
		s.out = sorter.stream()
	}
	return s.out(ctx)
}
