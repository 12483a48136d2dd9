package optimizer

import (
	"fmt"

	"repro/internal/expr"
	"repro/internal/types"
)

// Cardinality estimation from conjunct shapes alone: a table's estimate is
// its stored row count (ROS containers plus WOS) times the product of its
// local conjuncts' shape selectivities. Joins assume the star schema's N:1
// shape (the output keeps the outer's rows) and a GROUP BY keeps its input's
// rows; only a global aggregate is known to return one. EXPLAIN marks every
// estimate "heuristic".

// shapeSelectivity is the heuristic for one conjunct (the crude classifier
// StarOpt shipped before histograms existed).
func shapeSelectivity(c expr.Expr) float64 {
	switch e := c.(type) {
	case *expr.Cmp:
		if e.Op == expr.Eq {
			return 0.05
		}
		return 0.4
	case *expr.InList:
		return 0.1
	default:
		return 0.5
	}
}

// selectivityScore estimates the fraction of rows surviving a table's local
// predicates: the product of their shape selectivities.
func selectivityScore(conjuncts []expr.Expr) float64 {
	s := 1.0
	for _, c := range conjuncts {
		s *= shapeSelectivity(c)
	}
	return s
}

// rowWidthOf approximates the in-memory bytes of one row of a schema.
func rowWidthOf(schema *types.Schema) int64 {
	var w int64
	for i := 0; i < schema.Len(); i++ {
		if schema.Col(i).Typ == types.Varchar {
			w += 24
		} else {
			w += 8
		}
	}
	if w < 8 {
		w = 8
	}
	return w
}

// fmtEst renders a row estimate for EXPLAIN notes.
func fmtEst(rows float64) string {
	if rows < 0 {
		rows = 0
	}
	return fmt.Sprintf("%d", int64(rows+0.5))
}
