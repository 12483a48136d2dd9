package exec

import (
	"fmt"

	"repro/internal/expr"
	"repro/internal/types"
	"repro/internal/vector"
)

// MergeJoin joins two inputs already sorted by their join keys (paper §6.1:
// Vertica chooses merge join when projections' sort orders line up with the
// join keys; the Send/Recv operators even retain sortedness to keep this
// possible after an exchange). Supports INNER, LEFT OUTER, SEMI and ANTI;
// the optimizer plans the other flavors as hash joins.
type MergeJoin struct {
	Type      JoinType
	outer     Operator
	inner     Operator
	OuterKeys []int
	InnerKeys []int
	Residual  expr.Expr

	schema    *types.Schema
	resSchema *types.Schema // outer+inner, for vectorized residual eval

	walk *mergeWalk
	prof OpProf
}

// NewMergeJoin builds a merge join over key-sorted inputs.
func NewMergeJoin(t JoinType, outer, inner Operator, outerKeys, innerKeys []int) (*MergeJoin, error) {
	switch t {
	case InnerJoin, LeftOuterJoin, SemiJoin, AntiJoin:
	default:
		return nil, fmt.Errorf("exec: merge join does not support %s", t)
	}
	if len(outerKeys) != len(innerKeys) || len(outerKeys) == 0 {
		return nil, fmt.Errorf("exec: join requires aligned, non-empty key lists")
	}
	return &MergeJoin{
		Type: t, outer: outer, inner: inner,
		OuterKeys: outerKeys, InnerKeys: innerKeys,
		schema:    joinSchema(t, outer.Schema(), inner.Schema()),
		resSchema: combinedSchema(outer.Schema(), inner.Schema()),
	}, nil
}

// Schema implements Operator.
func (j *MergeJoin) Schema() *types.Schema { return j.schema }

// Children implements the plan walker.
func (j *MergeJoin) Children() []Operator { return []Operator{j.outer, j.inner} }

// Describe implements Operator.
func (j *MergeJoin) Describe() string {
	return fmt.Sprintf("MergeJoin %s outerKeys=%v innerKeys=%v", j.Type, j.OuterKeys, j.InnerKeys)
}

// Open implements Operator.
func (j *MergeJoin) Open(ctx *Ctx) error {
	j.walk = &mergeWalk{
		outer: cursor{src: j.outer.Next}, inner: cursor{src: j.inner.Next},
		outerKeys: j.OuterKeys, innerKeys: j.InnerKeys,
		joiner: newRowJoiner(j.Type, j.Residual, j.schema, j.resSchema),
	}
	if err := j.outer.Open(ctx); err != nil {
		return err
	}
	return j.inner.Open(ctx)
}

// Close implements Operator.
func (j *MergeJoin) Close(ctx *Ctx) error {
	j.walk = nil
	if err := j.outer.Close(ctx); err != nil {
		j.inner.Close(ctx)
		return err
	}
	return j.inner.Close(ctx)
}

// next is the operator body behind the profiled Next (profile.go).
func (j *MergeJoin) next(ctx *Ctx) (*vector.Batch, error) { return j.walk.next(ctx) }

// mergeWalk is the merge-join loop: it walks two key-sorted streams on
// cursors, buffering the inner rows of one key at a time, and hands every
// outer row and its key group to a rowJoiner. MergeJoin runs it over its
// children, HashJoin over two sorters after its runtime switch. It joins
// the INNER, LEFT OUTER, SEMI and ANTI flavors; a RIGHT or FULL OUTER hash
// join that would need the switch fails with ErrOuterJoinTooLarge instead.
type mergeWalk struct {
	outer, inner         cursor
	outerKeys, innerKeys []int
	joiner               *rowJoiner
	started              bool
	group                *vector.Batch // the inner rows of one key, nil when it has none
}

// cmpInner orders the inner cursor's row against row oi of ob by the aligned
// join keys.
func (m *mergeWalk) cmpInner(ob *vector.Batch, oi int) int {
	for k, ik := range m.innerKeys {
		if c := vector.CompareAt(m.inner.batch.Cols[ik], m.inner.pos, ob.Cols[m.outerKeys[k]], oi); c != 0 {
			return c
		}
	}
	return 0
}

func (m *mergeWalk) next(ctx *Ctx) (*vector.Batch, error) {
	if !m.started {
		m.started = true
		if _, err := m.outer.load(ctx); err != nil {
			return nil, err
		}
		if _, err := m.inner.load(ctx); err != nil {
			return nil, err
		}
	}
	for m.joiner.pending() == 0 && m.outer.batch != nil {
		if err := m.joinOne(ctx); err != nil {
			return nil, err
		}
		if _, err := m.outer.skip(ctx, 1); err != nil {
			return nil, err
		}
	}
	return m.joiner.take(), nil
}

// joinOne joins the outer cursor's row: with nothing when a key is NULL,
// else with the inner rows of its key — the group buffered for the row
// before it when that has the same key, else read off the inner stream,
// which is first moved past every smaller key.
func (m *mergeWalk) joinOne(ctx *Ctx) error {
	ob, oi := m.outer.batch, m.outer.pos
	for _, k := range m.outerKeys {
		if ob.Cols[k].NullAt(oi) {
			return m.joiner.join(ob, oi, nil)
		}
	}
	same := m.group != nil
	for k, ok := range m.outerKeys {
		same = same && vector.EqualAt(ob.Cols[ok], oi, m.group.Cols[m.innerKeys[k]], 0, false)
	}
	if !same {
		m.group = nil
		for m.inner.batch != nil {
			c := m.cmpInner(ob, oi)
			if c > 0 {
				break
			}
			if c == 0 {
				if m.group == nil {
					m.group = vector.NewBatch()
					for _, col := range m.inner.batch.Cols {
						m.group.Cols = append(m.group.Cols, vector.New(col.Typ, 1))
					}
				}
				for i, col := range m.group.Cols {
					col.AppendEntry(m.inner.batch.Cols[i], m.inner.pos)
				}
			}
			if _, err := m.inner.skip(ctx, 1); err != nil {
				return err
			}
		}
	}
	return m.joiner.join(ob, oi, m.group)
}

// rowJoiner joins one outer row with its key-equal inner group for the
// merge-join loop and collects the output column-wise.
type rowJoiner struct {
	typ       JoinType
	residual  expr.Expr
	schema    *types.Schema // output
	resSchema *types.Schema // outer then inner columns
	out       *vector.Batch
	taken     int // rows of out already handed on
}

func newRowJoiner(t JoinType, residual expr.Expr, schema, resSchema *types.Schema) *rowJoiner {
	return &rowJoiner{typ: t, residual: residual, schema: schema, resSchema: resSchema,
		out: vector.NewBatchForSchema(schema, vector.DefaultBatchSize)}
}

// join emits what row oi of the outer batch ob contributes given its
// key-equal inner group (nil for a NULL or partnerless key). The combined
// rows are appended column-wise: straight to the output, or, under a
// residual, to a candidate batch the residual is evaluated over once,
// vectorized. Without a residual a semi/anti row is decided by the group
// being there and nothing is assembled.
func (e *rowJoiner) join(ob *vector.Batch, oi int, group *vector.Batch) error {
	semi := e.typ == SemiJoin || e.typ == AntiJoin
	matched := group != nil
	if matched && (!semi || e.residual != nil) {
		dst, n := e.out, group.Len()
		if e.residual != nil {
			dst = vector.NewBatchForSchema(e.resSchema, n)
		}
		for c, col := range ob.Cols {
			for range n {
				dst.Cols[c].AppendEntry(col, oi)
			}
		}
		for c, col := range group.Cols {
			dst.Cols[len(ob.Cols)+c].AppendFrom(col, nil)
		}
		if e.residual != nil {
			mask, err := residualMask(e.residual, dst)
			if err != nil {
				return err
			}
			dst.Sel = make([]int, 0, n)
			for i, ok := range mask {
				if ok {
					dst.Sel = append(dst.Sel, i)
				}
			}
			matched = dst.Len() > 0
			if !semi {
				e.out.Append(dst)
			}
		}
	}
	if e.typ == InnerJoin || matched != (e.typ == SemiJoin) {
		return nil
	}
	// A semi join's match, an anti join's miss, or an outer join's miss,
	// NULL-padded on the inner side.
	for c, col := range e.out.Cols {
		if c < len(ob.Cols) {
			col.AppendEntry(ob.Cols[c], oi)
		} else {
			col.AppendNull()
		}
	}
	return nil
}

// pending is the number of joined rows not yet taken.
func (e *rowJoiner) pending() int { return e.out.Len() - e.taken }

// take hands on up to vector.DefaultBatchSize pending rows, nil when there
// are none.
func (e *rowJoiner) take() *vector.Batch {
	n := e.pending()
	if n == 0 {
		return nil
	}
	if n > vector.DefaultBatchSize {
		n = vector.DefaultBatchSize
	}
	b := e.out.SliceRows(e.taken, e.taken+n)
	e.taken += n
	if e.pending() == 0 {
		e.out = vector.NewBatchForSchema(e.schema, vector.DefaultBatchSize)
		e.taken = 0
	}
	return b
}
