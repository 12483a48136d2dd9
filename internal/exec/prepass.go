package exec

import (
	"fmt"

	"repro/internal/expr"
	"repro/internal/types"
	"repro/internal/vector"
)

// Prepass computes partial aggregates close to the scan with a small,
// cache-sized hash table (paper §6.1): "it attempts to aggregate immediately
// after fetching columns off the disk using an L1 cache sized hash table.
// When the hash table fills up, the operator outputs its current contents,
// clears the hash table, and starts aggregating afresh ... Since there is
// still a small, but non-zero cost to run the prepass operator, the EE will
// decide at runtime to stop if it is not actually reducing the number of
// rows which pass."
//
// Output rows are key columns followed by each aggregate's partial columns;
// a final GroupBy in MergePartials mode combines them.
type Prepass struct {
	single
	Keys     []expr.Expr
	KeyNames []string
	Aggs     []AggSpec
	// MaxGroups bounds the hash table (the "L1 cache sized" table).
	MaxGroups int

	schema   *types.Schema
	groups   *groupSet
	inRows   int64
	outRows  int64
	bypassed bool
	ready    []*vector.Batch // output batches not yet returned
	done     bool
	prof     OpProf
}

// DefaultPrepassGroups approximates a cache-sized table: 4096 groups of an
// 8-byte key, its hash, its chain links and one or two accumulators come to
// a few hundred KiB, so the table targets L2 rather than the paper's L1.
const DefaultPrepassGroups = 4096

// NewPrepass builds a prepass partial-aggregation node.
func NewPrepass(child Operator, keys []expr.Expr, keyNames []string, aggs []AggSpec) (*Prepass, error) {
	for i := range aggs {
		if !aggs[i].SupportsPartial() {
			return nil, fmt.Errorf("exec: %s cannot be computed by a prepass", aggs[i].String())
		}
	}
	return &Prepass{
		single: single{child: child}, Keys: keys, KeyNames: keyNames,
		Aggs: aggs, MaxGroups: DefaultPrepassGroups,
		schema: partialSchema(keyColumns(keys, keyNames), aggs),
	}, nil
}

// partialSchema lays out partial rows: the key columns, then each
// aggregate's partial-state columns.
func partialSchema(keyCols []types.Column, aggs []AggSpec) *types.Schema {
	cols := append([]types.Column{}, keyCols...)
	for i := range aggs {
		cols = append(cols, aggs[i].PartialCols()...)
	}
	return types.NewSchema(cols...)
}

// Schema implements Operator.
func (p *Prepass) Schema() *types.Schema { return p.schema }

// Describe implements Operator.
func (p *Prepass) Describe() string {
	return fmt.Sprintf("GroupByPrepass keys=%d aggs=[%s] maxGroups=%d", len(p.Keys), describeAggs(p.Aggs), p.MaxGroups)
}

// Open implements Operator.
func (p *Prepass) Open(ctx *Ctx) error {
	p.groups = newGroupSet(p.Keys, p.schema.Cols[:len(p.Keys)], p.Aggs)
	p.inRows, p.outRows = 0, 0
	p.bypassed, p.done = false, false
	p.ready = nil
	return p.openChild(ctx)
}

// Close implements Operator.
func (p *Prepass) Close(ctx *Ctx) error { return p.closeChild(ctx) }

// next is the operator body behind the profiled Next (profile.go).
func (p *Prepass) next(ctx *Ctx) (*vector.Batch, error) {
	for {
		if len(p.ready) > 0 {
			b := p.ready[0]
			p.ready = p.ready[1:]
			return b, nil
		}
		if p.done {
			return nil, nil
		}
		in, err := p.child.Next(ctx)
		if err != nil {
			return nil, err
		}
		if in == nil {
			p.done = true
			p.flushTable()
			continue
		}
		if err := p.consume(ctx, in); err != nil {
			return nil, err
		}
	}
}

func (p *Prepass) consume(ctx *Ctx, batch *vector.Batch) error {
	s := p.groups
	in, err := s.input(batch, false)
	if err != nil {
		return err
	}
	p.inRows += int64(in.n)
	if p.bypassed {
		// Not reducing rows: every row becomes a group of its own, whose
		// partial state goes out beside the evaluated key vectors as is.
		s.accs.reset()
		s.accs.addGroups(in.n)
		s.gids = s.gids[:0]
		for i := 0; i < in.n; i++ {
			s.gids = append(s.gids, int32(i))
		}
		s.accs.update(s.gids, in.args, 0)
		p.emit(in.keys, in.n)
		return nil
	}
	for lo := 0; lo < in.n; {
		// Rows fold in until one needs a group the full table has no room
		// for; the table is flushed and the batch continues from that row.
		end := s.resolveHashed(&in, lo, p.MaxGroups)
		s.accs.update(s.gids, in.args, lo)
		if lo = end; lo < in.n {
			p.flushTable()
		}
	}
	// Adaptivity: if after a meaningful sample the prepass is reducing rows
	// by less than ~1.5x, its per-row cost is not paying off — stop
	// aggregating and pass rows through as trivial partials ("the EE will
	// decide at runtime to stop if it is not actually reducing the number
	// of rows which pass", §6.1).
	if p.inRows >= int64(p.MaxGroups)*4 && p.outRows*3 > p.inRows*2 {
		p.bypassed = true
		ctx.PrepassBypassed.Store(true)
		p.flushTable()
	}
	return nil
}

// flushTable outputs the table's groups as partial rows — the stored key
// columns go out as they are — and starts aggregating afresh.
func (p *Prepass) flushTable() {
	if n := p.groups.table.len(); n > 0 {
		p.emit(p.groups.table.release().Cols, n)
		p.groups.accs.reset()
	}
}

// emit queues n partial rows: the given key columns beside the partial
// state of accumulator groups 0..n-1, a batch at a time.
func (p *Prepass) emit(keyCols []*vector.Vector, n int) {
	cols := append([]*vector.Vector{}, keyCols...)
	for _, c := range p.schema.Cols[len(keyCols):] {
		cols = append(cols, vector.New(c.Typ, n))
	}
	p.groups.accs.appendPartials(cols[len(keyCols):])
	b := vector.NewBatch(cols...)
	for lo := 0; lo < n; lo += vector.DefaultBatchSize {
		p.ready = append(p.ready, b.SliceRows(lo, min(lo+vector.DefaultBatchSize, n)))
	}
	p.outRows += int64(n)
}
