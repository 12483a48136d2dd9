package sql

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/types"
)

// Plan-cache support: a canonical fingerprint of a SELECT with literals
// normalized out, parameter substitution for PREPARE/EXECUTE, and
// parser-driven statement classification for the wire protocol.

// Fingerprint renders a canonical form of the SELECT with every literal
// replaced by a positional placeholder, and returns the literal values in
// placeholder order. Two statements with the same fingerprint differ at
// most in literal values, so a plan cached under the fingerprint can serve
// both — reusing the bound query only when the literals match exactly, and
// reusing probe metadata otherwise.
func Fingerprint(s *SelectStmt) (string, []types.Value) {
	fp := &fingerprinter{}
	var sb strings.Builder
	if s.Explain {
		sb.WriteString("EXPLAIN ")
	}
	if s.Profile {
		sb.WriteString("PROFILE ")
	}
	sb.WriteString("SELECT ")
	if s.Distinct {
		sb.WriteString("DISTINCT ")
	}
	for i, item := range s.Items {
		if i > 0 {
			sb.WriteString(", ")
		}
		if item.Star {
			sb.WriteString("*")
		} else {
			sb.WriteString(fp.expr(item.Expr))
		}
		if item.Name != "" {
			sb.WriteString(" AS " + item.Name)
		}
	}
	sb.WriteString(" FROM ")
	for i, te := range s.From {
		if i > 0 {
			if te.JoinType != "" {
				sb.WriteString(" " + te.JoinType + " JOIN ")
			} else {
				sb.WriteString(", ")
			}
		}
		sb.WriteString(te.Table)
		if te.Alias != "" {
			sb.WriteString(" " + te.Alias)
		}
		if te.On != nil {
			sb.WriteString(" ON " + fp.expr(te.On))
		}
	}
	if s.Where != nil {
		sb.WriteString(" WHERE " + fp.expr(s.Where))
	}
	if len(s.GroupBy) > 0 {
		sb.WriteString(" GROUP BY ")
		for i, g := range s.GroupBy {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(fp.expr(g))
		}
	}
	if s.Having != nil {
		sb.WriteString(" HAVING " + fp.expr(s.Having))
	}
	if len(s.OrderBy) > 0 {
		sb.WriteString(" ORDER BY ")
		for i, o := range s.OrderBy {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(fp.expr(o.Expr))
			if o.Desc {
				sb.WriteString(" DESC")
			}
		}
	}
	// LIMIT/OFFSET stay literal: they change the plan shape cheaply and
	// rarely vary per-execution, so they key distinct cache entries.
	if s.Limit >= 0 {
		sb.WriteString(" LIMIT " + strconv.FormatInt(s.Limit, 10))
	}
	if s.Offset > 0 {
		sb.WriteString(" OFFSET " + strconv.FormatInt(s.Offset, 10))
	}
	return sb.String(), fp.lits
}

type fingerprinter struct {
	lits []types.Value
}

func (fp *fingerprinter) expr(a AstExpr) string {
	switch e := a.(type) {
	case *ALit:
		fp.lits = append(fp.lits, e.Val)
		return "?"
	case *ACol:
		return displayName(e)
	case *ABin:
		return "(" + fp.expr(e.L) + " " + e.Op + " " + fp.expr(e.R) + ")"
	case *ANot:
		return "NOT " + fp.expr(e.Arg)
	case *AIsNull:
		if e.Negate {
			return fp.expr(e.Arg) + " IS NOT NULL"
		}
		return fp.expr(e.Arg) + " IS NULL"
	case *AIn:
		var sb strings.Builder
		sb.WriteString(fp.expr(e.Arg))
		if e.Negate {
			sb.WriteString(" NOT")
		}
		sb.WriteString(" IN (")
		for i, v := range e.Vals {
			if i > 0 {
				sb.WriteString(",")
			}
			fp.lits = append(fp.lits, v)
			sb.WriteString("?")
		}
		sb.WriteString(")")
		return sb.String()
	case *AFunc:
		parts := make([]string, len(e.Args))
		for i, x := range e.Args {
			parts[i] = fp.expr(x)
		}
		return e.Name + "(" + strings.Join(parts, ", ") + ")"
	case *ACase:
		var sb strings.Builder
		sb.WriteString("CASE")
		for _, w := range e.Whens {
			sb.WriteString(" WHEN " + fp.expr(w.Cond) + " THEN " + fp.expr(w.Then))
		}
		if e.Else != nil {
			sb.WriteString(" ELSE " + fp.expr(e.Else))
		}
		sb.WriteString(" END")
		return sb.String()
	case *AAgg:
		switch {
		case e.Star:
			return "COUNT(*)"
		case e.Distinct:
			return e.Func + "(DISTINCT " + fp.expr(e.Arg) + ")"
		default:
			return e.Func + "(" + fp.expr(e.Arg) + ")"
		}
	case *AParam:
		// A parameter is a literal-to-be: same placeholder as a literal so
		// EXECUTE of a prepared body and the equivalent ad-hoc statement
		// share one cache entry.
		return "?"
	default:
		return "?"
	}
}

// LiteralsEqual reports whether two literal vectors extracted by
// Fingerprint match exactly (type and value). A cached logical query embeds
// its bound constants, so it may only be reused verbatim when this holds.
func LiteralsEqual(a, b []types.Value) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Typ != b[i].Typ || a[i].Null != b[i].Null || a[i].String() != b[i].String() {
			return false
		}
	}
	return true
}

// CountParams returns the number of $n placeholders a statement references,
// verifying the set is contiguous from $1.
func CountParams(st Statement) (int, error) {
	seen := map[int]bool{}
	walkStatementExprs(st, func(a AstExpr) {
		if p, ok := a.(*AParam); ok {
			seen[p.N] = true
		}
	})
	max := 0
	for n := range seen {
		if n > max {
			max = n
		}
	}
	for n := 1; n <= max; n++ {
		if !seen[n] {
			return 0, fmt.Errorf("sql: prepared statement references $%d but not $%d", max, n)
		}
	}
	return max, nil
}

// SubstituteParams returns a deep copy of the statement with every $n
// placeholder replaced by the n-th argument as a literal. The input AST is
// never mutated, so a stored prepared statement can be executed repeatedly.
func SubstituteParams(st Statement, args []types.Value) (Statement, error) {
	var substErr error
	subst := func(a AstExpr) AstExpr {
		p, ok := a.(*AParam)
		if !ok {
			return nil
		}
		if p.N < 1 || p.N > len(args) {
			substErr = fmt.Errorf("sql: no value for parameter $%d", p.N)
			return nil
		}
		return &ALit{Val: args[p.N-1]}
	}
	out := copyStatement(st, subst)
	if substErr != nil {
		return nil, substErr
	}
	return out, nil
}

// walkStatementExprs visits every expression embedded in a statement.
func walkStatementExprs(st Statement, visit func(AstExpr)) {
	var walk func(a AstExpr)
	walk = func(a AstExpr) {
		if a == nil {
			return
		}
		visit(a)
		switch e := a.(type) {
		case *ABin:
			walk(e.L)
			walk(e.R)
		case *ANot:
			walk(e.Arg)
		case *AIsNull:
			walk(e.Arg)
		case *AIn:
			walk(e.Arg)
		case *AFunc:
			for _, x := range e.Args {
				walk(x)
			}
		case *ACase:
			for _, w := range e.Whens {
				walk(w.Cond)
				walk(w.Then)
			}
			walk(e.Else)
		case *AAgg:
			walk(e.Arg)
		}
	}
	switch s := st.(type) {
	case *SelectStmt:
		for _, it := range s.Items {
			walk(it.Expr)
		}
		for _, te := range s.From {
			walk(te.On)
		}
		walk(s.Where)
		for _, g := range s.GroupBy {
			walk(g)
		}
		walk(s.Having)
		for _, o := range s.OrderBy {
			walk(o.Expr)
		}
	case *InsertStmt:
		for _, row := range s.Rows {
			for _, e := range row {
				walk(e)
			}
		}
	case *DeleteStmt:
		walk(s.Where)
	case *UpdateStmt:
		for _, c := range s.Cols {
			walk(s.Set[c])
		}
		walk(s.Where)
	}
}

// copyStatement deep-copies the prepare-able statements (SELECT, INSERT,
// DELETE, UPDATE), applying subst at every expression node: a non-nil
// return replaces the node. Other statement kinds carry no parameters and
// are returned as-is.
func copyStatement(st Statement, subst func(AstExpr) AstExpr) Statement {
	var cp func(a AstExpr) AstExpr
	cp = func(a AstExpr) AstExpr {
		if a == nil {
			return nil
		}
		if r := subst(a); r != nil {
			return r
		}
		switch e := a.(type) {
		case *ALit:
			c := *e
			return &c
		case *ACol:
			c := *e
			return &c
		case *ABin:
			return &ABin{Op: e.Op, L: cp(e.L), R: cp(e.R)}
		case *ANot:
			return &ANot{Arg: cp(e.Arg)}
		case *AIsNull:
			return &AIsNull{Arg: cp(e.Arg), Negate: e.Negate}
		case *AIn:
			c := &AIn{Arg: cp(e.Arg), Negate: e.Negate}
			c.Vals = append([]types.Value{}, e.Vals...)
			return c
		case *AFunc:
			c := &AFunc{Name: e.Name}
			for _, x := range e.Args {
				c.Args = append(c.Args, cp(x))
			}
			return c
		case *ACase:
			c := &ACase{Else: cp(e.Else)}
			for _, w := range e.Whens {
				c.Whens = append(c.Whens, AWhen{Cond: cp(w.Cond), Then: cp(w.Then)})
			}
			return c
		case *AAgg:
			return &AAgg{Func: e.Func, Star: e.Star, Distinct: e.Distinct, Arg: cp(e.Arg)}
		case *AParam:
			c := *e
			return &c
		default:
			return a
		}
	}
	switch s := st.(type) {
	case *SelectStmt:
		c := *s
		c.Items = make([]SelectItem, len(s.Items))
		for i, it := range s.Items {
			c.Items[i] = SelectItem{Expr: cp(it.Expr), Name: it.Name, Star: it.Star}
		}
		c.From = make([]TableExpr, len(s.From))
		for i, te := range s.From {
			c.From[i] = TableExpr{Table: te.Table, Alias: te.Alias, JoinType: te.JoinType, On: cp(te.On)}
		}
		c.Where = cp(s.Where)
		c.GroupBy = make([]AstExpr, len(s.GroupBy))
		for i, g := range s.GroupBy {
			c.GroupBy[i] = cp(g)
		}
		c.Having = cp(s.Having)
		c.OrderBy = make([]OrderItem, len(s.OrderBy))
		for i, o := range s.OrderBy {
			c.OrderBy[i] = OrderItem{Expr: cp(o.Expr), Desc: o.Desc}
		}
		return &c
	case *InsertStmt:
		c := *s
		c.Rows = make([][]AstExpr, len(s.Rows))
		for i, row := range s.Rows {
			c.Rows[i] = make([]AstExpr, len(row))
			for j, e := range row {
				c.Rows[i][j] = cp(e)
			}
		}
		return &c
	case *DeleteStmt:
		c := *s
		c.Where = cp(s.Where)
		return &c
	case *UpdateStmt:
		c := *s
		c.Set = make(map[string]AstExpr, len(s.Set))
		for k, v := range s.Set {
			c.Set[k] = cp(v)
		}
		c.Where = cp(s.Where)
		return &c
	default:
		return st
	}
}
