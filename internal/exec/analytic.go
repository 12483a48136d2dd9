package exec

import (
	"fmt"

	"repro/internal/types"
	"repro/internal/vector"
)

// AnalyticKind identifies a windowed (SQL-99 analytic) function
// (paper §6.1 operator 6).
type AnalyticKind uint8

// Analytic functions.
const (
	AnRowNumber AnalyticKind = iota
	AnRank
	AnDenseRank
	AnSum
	AnAvg
	AnCount
	AnMin
	AnMax
	AnLag
	AnLead
)

func (k AnalyticKind) String() string {
	switch k {
	case AnRowNumber:
		return "ROW_NUMBER"
	case AnRank:
		return "RANK"
	case AnDenseRank:
		return "DENSE_RANK"
	case AnSum:
		return "SUM"
	case AnAvg:
		return "AVG"
	case AnCount:
		return "COUNT"
	case AnMin:
		return "MIN"
	case AnMax:
		return "MAX"
	case AnLag:
		return "LAG"
	case AnLead:
		return "LEAD"
	default:
		return fmt.Sprintf("ANALYTIC(%d)", k)
	}
}

// AnalyticSpec is one windowed computation: fn(ArgCol) OVER (PARTITION BY
// PartitionCols ORDER BY OrderBy). With an ORDER BY, aggregates are running
// (rows unbounded preceding .. current row); without, they span the whole
// partition.
type AnalyticSpec struct {
	Kind          AnalyticKind
	ArgCol        int // -1 when no argument (ROW_NUMBER, RANK, COUNT(*))
	PartitionCols []int
	OrderBy       []vector.SortSpec
	Name          string
	Offset        int // LAG/LEAD distance (default 1)
}

// ResultType returns the analytic output type given the input schema.
func (a *AnalyticSpec) ResultType(in *types.Schema) types.Type {
	switch a.Kind {
	case AnRowNumber, AnRank, AnDenseRank, AnCount:
		return types.Int64
	case AnAvg:
		return types.Float64
	default:
		return in.Col(a.ArgCol).Typ
	}
}

// Analytic computes windowed aggregates: it sorts its input by (partition,
// order) with the one sorter (sorted.go) — within the operator's budget,
// spilling under SORT_SPILLED like any sort — and walks the sorted stream a
// partition at a time, appending one column per spec. It holds one
// partition, not its input.
type Analytic struct {
	single
	Specs []AnalyticSpec

	schema *types.Schema
	runs   runSet
	in     *vector.Cursor // the sorted input, once the child is consumed
	out    vector.Stream  // the partition last computed, a batch at a time
	prof   OpProf
}

// NewAnalytic builds an analytic node. All specs must share PartitionCols
// and OrderBy (the planner splits differing windows into separate nodes).
func NewAnalytic(child Operator, specs []AnalyticSpec) (*Analytic, error) {
	if len(specs) == 0 {
		return nil, fmt.Errorf("exec: analytic requires at least one spec")
	}
	in := child.Schema()
	cols := append([]types.Column{}, in.Cols...)
	for i := range specs {
		name := specs[i].Name
		if name == "" {
			name = specs[i].Kind.String()
		}
		cols = append(cols, types.Column{Name: name, Typ: specs[i].ResultType(in), Nullable: true})
	}
	return &Analytic{single: single{child: child}, Specs: specs, schema: types.NewSchema(cols...)}, nil
}

// Schema implements Operator.
func (a *Analytic) Schema() *types.Schema { return a.schema }

// Describe implements Operator.
func (a *Analytic) Describe() string {
	parts := make([]string, len(a.Specs))
	for i := range a.Specs {
		parts[i] = a.Specs[i].Kind.String()
	}
	return fmt.Sprintf("Analytic %v partition=%v", parts, a.Specs[0].PartitionCols)
}

// Open implements Operator.
func (a *Analytic) Open(ctx *Ctx) error {
	a.runs.close()
	a.in, a.out = nil, nil
	return a.openChild(ctx)
}

// Close implements Operator.
func (a *Analytic) Close(ctx *Ctx) error {
	a.runs.close()
	a.in, a.out = nil, nil
	return a.closeChild(ctx)
}

// next is the operator body behind the profiled Next (profile.go).
func (a *Analytic) next(ctx *Ctx) (*vector.Batch, error) {
	if a.in == nil {
		spec0 := &a.Specs[0]
		specs := append(vector.KeySpecs(spec0.PartitionCols), spec0.OrderBy...)
		sorter := newSorter(ctx, a.child.Schema(), specs, &a.runs, &a.prof)
		if err := sorter.addAll(ctx, a.child); err != nil {
			return nil, err
		}
		sorter.finish()
		a.in = vector.NewCursor(sorter.stream())
		if _, err := a.in.Load(); err != nil {
			return nil, err
		}
	}
	for {
		if a.out != nil {
			if b, err := a.out(); b != nil || err != nil {
				return b, err
			}
		}
		if a.in.Batch == nil {
			return nil, nil
		}
		part, err := a.nextPartition(ctx)
		if err != nil {
			return nil, err
		}
		out, err := a.computePartition(part)
		if err != nil {
			return nil, err
		}
		a.out = vector.SliceStream(out)
	}
}

// nextPartition collects the rows of the sorted input, from the cursor's
// row on, that share its partition key.
func (a *Analytic) nextPartition(ctx *Ctx) (*vector.Batch, error) {
	c, key := a.in, vector.KeySpecs(a.Specs[0].PartitionCols)
	first, part := c.Batch.SliceRows(c.Pos, c.Pos+1), vector.NewBatchForSchema(a.child.Schema(), 0)
	for c.Batch != nil {
		end := c.Pos
		for end < c.Batch.Len() && vector.CompareRows(first, 0, c.Batch, end, key) == 0 {
			end++
		}
		if end == c.Pos {
			break
		}
		part.AppendRows(c.Batch, c.Pos, end)
		if _, err := c.Skip(end - c.Pos); err != nil {
			return nil, err
		}
	}
	ctx.noteAlloc(&a.prof, batchBytes(part, 0))
	return part, nil
}

// computePartition returns the partition (already window-ordered) with each
// spec's column appended.
func (a *Analytic) computePartition(part *vector.Batch) (*vector.Batch, error) {
	n := part.Len()
	out := &vector.Batch{Cols: append([]*vector.Vector{}, part.Cols...)}
	for si := range a.Specs {
		spec := &a.Specs[si]
		col := vector.New(a.schema.Col(len(out.Cols)).Typ, n)
		switch spec.Kind {
		case AnRowNumber:
			for i := range n {
				col.Ints = append(col.Ints, int64(i+1))
			}
		case AnRank, AnDenseRank:
			rank, dense := int64(1), int64(1)
			for i := range n {
				if i > 0 && vector.CompareRows(part, i-1, part, i, spec.OrderBy) != 0 {
					rank = int64(i + 1)
					dense++
				}
				if spec.Kind == AnRank {
					col.Ints = append(col.Ints, rank)
				} else {
					col.Ints = append(col.Ints, dense)
				}
			}
		case AnLag, AnLead:
			off := spec.Offset
			if off == 0 {
				off = 1
			}
			if spec.Kind == AnLag {
				off = -off
			}
			for i := range n {
				if src := i + off; src < 0 || src >= n {
					col.AppendNull()
				} else {
					col.AppendEntry(part.Cols[spec.ArgCol], src)
				}
			}
		default:
			if err := runningAgg(part, spec, col); err != nil {
				return nil, err
			}
		}
		out.Cols = append(out.Cols, col)
	}
	return out, nil
}

// runningAgg appends spec's aggregate over the partition to col.
func runningAgg(part *vector.Batch, spec *AnalyticSpec, col *vector.Vector) error {
	kindMap := map[AnalyticKind]AggKind{
		AnSum: AggSum, AnAvg: AggAvg, AnCount: AggCount, AnMin: AggMin, AnMax: AggMax,
	}
	aggKind, ok := kindMap[spec.Kind]
	if !ok {
		return fmt.Errorf("exec: unsupported analytic %s", spec.Kind)
	}
	acc := &aggAcc{kind: aggKind, typ: types.Int64}
	update := func(i int) { acc.update(types.Value{}) }
	if spec.ArgCol >= 0 {
		arg := part.Cols[spec.ArgCol]
		acc.typ = arg.Typ
		update = func(i int) { acc.update(arg.ValueAt(i)) }
	}
	// With an ORDER BY the aggregate is running, with peer-row semantics:
	// rows tied in the window order share the frame end (RANGE UNBOUNDED
	// PRECEDING .. CURRENT ROW). Without one every row is a peer of every
	// other: one value for the whole partition.
	n := part.Len()
	for i := 0; i < n; {
		j := i
		for j < n && vector.CompareRows(part, i, part, j, spec.OrderBy) == 0 {
			update(j)
			j++
		}
		v := acc.final()
		for ; i < j; i++ {
			col.AppendValue(v)
		}
	}
	return nil
}
