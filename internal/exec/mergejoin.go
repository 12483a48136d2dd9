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

	outerRows []types.Row
	outerPos  int
	innerRows []types.Row
	innerPos  int
	outerDone bool
	innerDone bool
	joiner    *rowJoiner
	innerBuf  []types.Row
	prof      OpProf
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
	j.outerRows, j.innerRows = nil, nil
	j.outerPos, j.innerPos = 0, 0
	j.outerDone, j.innerDone = false, false
	j.innerBuf = nil
	j.joiner = newRowJoiner(j.Type, j.Residual, j.schema, j.resSchema)
	if err := j.outer.Open(ctx); err != nil {
		return err
	}
	return j.inner.Open(ctx)
}

// Close implements Operator.
func (j *MergeJoin) Close(ctx *Ctx) error {
	if err := j.outer.Close(ctx); err != nil {
		j.inner.Close(ctx)
		return err
	}
	return j.inner.Close(ctx)
}

func (j *MergeJoin) nextOuterRow(ctx *Ctx) (types.Row, error) {
	for j.outerPos >= len(j.outerRows) && !j.outerDone {
		b, err := j.outer.Next(ctx)
		if err != nil {
			return nil, err
		}
		if b == nil {
			j.outerDone = true
			break
		}
		j.outerRows = b.Rows()
		j.outerPos = 0
	}
	if j.outerPos < len(j.outerRows) {
		r := j.outerRows[j.outerPos]
		j.outerPos++
		return r, nil
	}
	return nil, nil
}

func (j *MergeJoin) peekInnerRow(ctx *Ctx) (types.Row, error) {
	for j.innerPos >= len(j.innerRows) && !j.innerDone {
		b, err := j.inner.Next(ctx)
		if err != nil {
			return nil, err
		}
		if b == nil {
			j.innerDone = true
			break
		}
		j.innerRows = b.Rows()
		j.innerPos = 0
	}
	if j.innerPos < len(j.innerRows) {
		return j.innerRows[j.innerPos], nil
	}
	return nil, nil
}

// next is the operator body behind the profiled Next (profile.go).
func (j *MergeJoin) next(ctx *Ctx) (*vector.Batch, error) {
	for j.joiner.pending() == 0 {
		or, err := j.nextOuterRow(ctx)
		if err != nil {
			return nil, err
		}
		if or == nil {
			break
		}
		if err := j.joinOne(ctx, or); err != nil {
			return nil, err
		}
	}
	return j.joiner.take(), nil
}

func (j *MergeJoin) joinOne(ctx *Ctx, or types.Row) error {
	cmpKey := func(inner types.Row) int { return compareJoinKeys(inner, or, j.InnerKeys, j.OuterKeys) }
	if hasNullKey(or, j.OuterKeys) {
		return j.joiner.join(or, nil)
	}
	// Refresh the buffered inner group if it no longer matches.
	if len(j.innerBuf) == 0 || cmpKey(j.innerBuf[0]) != 0 {
		j.innerBuf = j.innerBuf[:0]
		for {
			ir, err := j.peekInnerRow(ctx)
			if err != nil {
				return err
			}
			if ir == nil || cmpKey(ir) > 0 {
				break
			}
			if cmpKey(ir) == 0 {
				j.innerBuf = append(j.innerBuf, ir)
			}
			j.innerPos++
		}
	}
	return j.joiner.join(or, j.innerBuf)
}

// compareJoinKeys orders an inner row against an outer row by their aligned
// join key columns.
func compareJoinKeys(inner, outer types.Row, innerKeys, outerKeys []int) int {
	for i := range outerKeys {
		if c := inner[innerKeys[i]].Compare(outer[outerKeys[i]]); c != 0 {
			return c
		}
	}
	return 0
}

func hasNullKey(r types.Row, keys []int) bool {
	for _, k := range keys {
		if r[k].Null {
			return true
		}
	}
	return false
}

// rowJoiner joins one outer row with its key-equal inner group for the
// joins that walk sorted rows (MergeJoin, and HashJoin after its switch to
// sort-merge) and collects the output column-wise.
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

// join emits what one outer row contributes given its key-equal inner group
// (empty for a NULL or partnerless key). A residual is evaluated once,
// vectorized, over the group's combined rows; without one a semi/anti row
// is decided by the group being non-empty and nothing is assembled.
func (e *rowJoiner) join(or types.Row, group []types.Row) error {
	semi := e.typ == SemiJoin || e.typ == AntiJoin
	matched := false
	switch {
	case len(group) == 0:
	case semi && e.residual == nil:
		matched = true
	default:
		cands := vector.NewBatchForSchema(e.resSchema, len(group))
		for _, ir := range group {
			for c, col := range cands.Cols {
				if c < len(or) {
					col.AppendValue(or[c])
				} else {
					col.AppendValue(ir[c-len(or)])
				}
			}
		}
		if e.residual != nil {
			mask, err := residualMask(e.residual, cands)
			if err != nil {
				return err
			}
			cands.Sel = make([]int, 0, len(mask))
			for i, ok := range mask {
				if ok {
					cands.Sel = append(cands.Sel, i)
				}
			}
		}
		matched = cands.Len() > 0
		if !semi {
			e.out.Append(cands)
		}
	}
	switch {
	case e.typ == SemiJoin && matched, e.typ == AntiJoin && !matched:
		e.out.AppendRow(or)
	case (e.typ == LeftOuterJoin || e.typ == FullOuterJoin) && !matched:
		for c, col := range e.out.Cols {
			if c < len(or) {
				col.AppendValue(or[c])
			} else {
				col.AppendNull()
			}
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
