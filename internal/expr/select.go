package expr

import (
	"repro/internal/vector"
)

// SelectWhere returns the selection vector of the rows where a boolean
// predicate is true (intersected with any existing selection on the batch).
// A nil predicate keeps all live rows. The batch's own selection is left
// untouched.
func SelectWhere(b *vector.Batch, pred Expr) ([]int, error) {
	if pred == nil {
		if b.Sel != nil {
			return b.Sel, nil
		}
		sel := make([]int, b.FullLen())
		for i := range sel {
			sel[i] = i
		}
		return sel, nil
	}
	b.ExpandRLE()
	s, err := NewSelector(Conjuncts(pred))
	if err != nil {
		return nil, err
	}
	// The result is never nil on success: callers distinguish "no predicate"
	// (nil) from "predicate matched zero rows" (empty).
	return s.Narrow(b.Cols, b.Sel, 0, b.FullLen(), nil)
}

// Conjuncts splits a predicate into its top-level AND terms.
func Conjuncts(e Expr) []Expr {
	if e == nil {
		return nil
	}
	if l, ok := e.(*Logic); ok && l.Op == And {
		var out []Expr
		for _, a := range l.Args {
			out = append(out, Conjuncts(a)...)
		}
		return out
	}
	return []Expr{e}
}
