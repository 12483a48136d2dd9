package expr

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
