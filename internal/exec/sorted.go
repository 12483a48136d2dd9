package exec

import (
	"slices"

	"repro/internal/types"
	"repro/internal/vector"
)

// The sorter: what the executor adds to the sorted-stream spine of
// internal/vector (cursor, merger) — a memory budget, a grant to renegotiate
// and spill runs.

// sorter sorts a stream of any size within a memory budget: batches
// accumulate column-wise and are charged to the grant for what the columns
// hold; at the budget the sorter asks the governor for more and, when that
// is denied, sorts what it has and spills it as a run.
type sorter struct {
	specs  []vector.SortSpec
	schema *types.Schema
	owner  *runSet // the operator's runs: files are its to remove
	prof   *OpProf // the operator's collector

	buf    *vector.Batch
	mem    int64
	budget int64         // starts at Ctx.MemBudget, grows by grant renegotiation
	runs   []*spillRun   // this sorter's, in the order written
	tail   *vector.Batch // the sorted rows that stayed in memory, once finished
}

func newSorter(ctx *Ctx, schema *types.Schema, specs []vector.SortSpec, owner *runSet, prof *OpProf) *sorter {
	return &sorter{specs: specs, schema: schema, owner: owner, prof: prof,
		buf: vector.NewBatchForSchema(schema, 0), budget: ctx.MemBudget}
}

// addAll feeds the sorter every remaining batch of op.
func (s *sorter) addAll(ctx *Ctx, op Operator) error {
	for {
		if err := ctx.Canceled(); err != nil {
			return err
		}
		in, err := op.Next(ctx)
		if err != nil || in == nil {
			return err
		}
		if err := s.add(ctx, in); err != nil {
			return err
		}
	}
}

func (s *sorter) add(ctx *Ctx, in *vector.Batch) error {
	from := s.buf.Len()
	s.buf.Append(in)
	s.mem += batchBytes(s.buf, from)
	ctx.noteAlloc(s.prof, s.mem)
	for s.mem > s.budget {
		// At the spill threshold, renegotiate the grant first: grow in place
		// while the pool has headroom, externalize only on denial.
		if ext := ctx.extendBudget(s.budget, s.mem); ext > 0 {
			s.budget += ext
			continue
		}
		run, err := s.owner.spill(ctx, s.prof, "SORT_SPILLED", s.schema, sortBatch(s.buf, s.specs))
		if err != nil {
			return err
		}
		s.runs = append(s.runs, run)
		s.buf, s.mem = vector.NewBatchForSchema(s.schema, 0), 0
	}
	return nil
}

// finish ends the input: the rows that stayed in memory are sorted.
func (s *sorter) finish() {
	s.tail = sortBatch(s.buf, s.specs)
	s.buf = nil
}

// stream returns the finished sorter's sorted stream from its start: the
// sorted buffer when nothing spilled, else the merge of the runs and the
// buffer. Each stream is read on its own (the buffer is shared read-only,
// the runs are read afresh), so the workers of a fan can each walk one
// sorted inner side.
func (s *sorter) stream() vector.Stream {
	if len(s.runs) == 0 {
		return vector.SliceStream(s.tail)
	}
	return mergeRuns(s.specs, s.runs, s.tail).Next
}

// mergeRuns merges spilled runs, oldest first, with the sorted rows that
// stayed in memory, which arrived after every run's.
func mergeRuns(specs []vector.SortSpec, runs []*spillRun, tail *vector.Batch) *vector.Merger {
	srcs := make([]vector.Stream, 0, len(runs)+1)
	for _, r := range runs {
		srcs = append(srcs, r.stream())
	}
	return vector.NewMerger(specs, append(srcs, vector.SliceStream(tail))...)
}

// sortBatch returns the rows of a flat batch in the order of specs, rows
// that compare equal in the order they have: a permutation is sorted, then
// every column gathered by it.
func sortBatch(b *vector.Batch, specs []vector.SortSpec) *vector.Batch {
	perm := make([]int, b.Len())
	for i := range perm {
		perm[i] = i
	}
	slices.SortStableFunc(perm, func(i, j int) int { return vector.CompareRows(b, i, b, j, specs) })
	return (&vector.Batch{Cols: b.Cols, Sel: perm}).Flatten()
}

// batchBytes is what the rows of a flat batch from row `from` on hold: 8
// bytes per fixed-width value, header plus payload per string.
func batchBytes(b *vector.Batch, from int) int64 {
	var n int64
	for _, c := range b.Cols {
		if c.Typ != types.Varchar {
			n += 8 * int64(c.PhysLen()-from)
			continue
		}
		for _, s := range c.Strs[from:] {
			n += 16 + int64(len(s))
		}
	}
	return n
}
