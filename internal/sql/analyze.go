package sql

import (
	"fmt"
	"strings"

	"repro/internal/catalog"
	"repro/internal/exec"
	"repro/internal/expr"
	"repro/internal/optimizer"
	"repro/internal/types"
	"repro/internal/vector"
)

// The analyzer binds parsed statements against the catalog, producing
// logical queries (for SELECT) and bound DML descriptions (for the engine).

// scope resolves column names to flat-schema indexes.
type scope struct {
	tables []scopeTable
}

type scopeTable struct {
	alias   string
	table   *catalog.Table
	flatOff int
}

func (s *scope) resolve(qualifier, name string) (int, types.Type, error) {
	if qualifier != "" {
		for _, t := range s.tables {
			if t.alias == qualifier || t.table.Name == qualifier {
				if i := t.table.Schema.ColIndex(name); i >= 0 {
					return t.flatOff + i, t.table.Schema.Col(i).Typ, nil
				}
				return 0, 0, fmt.Errorf("sql: column %q not found in %q", name, qualifier)
			}
		}
		return 0, 0, fmt.Errorf("sql: unknown table or alias %q", qualifier)
	}
	found := -1
	var typ types.Type
	for _, t := range s.tables {
		if i := t.table.Schema.ColIndex(name); i >= 0 {
			if found >= 0 {
				return 0, 0, fmt.Errorf("sql: column %q is ambiguous", name)
			}
			found = t.flatOff + i
			typ = t.table.Schema.Col(i).Typ
		}
	}
	if found < 0 {
		return 0, 0, fmt.Errorf("sql: column %q not found", name)
	}
	return found, typ, nil
}

// bindExpr converts an AST expression to a bound expr.Expr over the scope's
// flat schema. Aggregates are rejected here (handled by the select binder).
func bindExpr(a AstExpr, sc *scope) (expr.Expr, error) {
	switch e := a.(type) {
	case *ALit:
		return expr.NewConst(e.Val), nil
	case *ACol:
		idx, typ, err := sc.resolve(e.Qualifier, e.Name)
		if err != nil {
			return nil, err
		}
		return expr.NewColRef(idx, typ, displayName(e)), nil
	case *ABin:
		return bindBin(e, sc)
	case *ANot:
		arg, err := bindExpr(e.Arg, sc)
		if err != nil {
			return nil, err
		}
		return expr.NewLogic(expr.Not, arg)
	case *AIsNull:
		arg, err := bindExpr(e.Arg, sc)
		if err != nil {
			return nil, err
		}
		return &expr.IsNull{Arg: arg, Negate: e.Negate}, nil
	case *AIn:
		arg, err := bindExpr(e.Arg, sc)
		if err != nil {
			return nil, err
		}
		vals, err := coerceList(e.Vals, arg.Type())
		if err != nil {
			return nil, err
		}
		return &expr.InList{Arg: arg, Vals: vals, Negate: e.Negate}, nil
	case *AFunc:
		args := make([]expr.Expr, len(e.Args))
		for i, a := range e.Args {
			b, err := bindExpr(a, sc)
			if err != nil {
				return nil, err
			}
			args[i] = b
		}
		return expr.NewFunc(e.Name, args...)
	case *ACase:
		var whens []expr.When
		for _, w := range e.Whens {
			c, err := bindExpr(w.Cond, sc)
			if err != nil {
				return nil, err
			}
			t, err := bindExpr(w.Then, sc)
			if err != nil {
				return nil, err
			}
			whens = append(whens, expr.When{Cond: c, Then: t})
		}
		var els expr.Expr
		if e.Else != nil {
			var err error
			if els, err = bindExpr(e.Else, sc); err != nil {
				return nil, err
			}
		}
		return expr.NewCase(whens, els)
	case *AAgg:
		return nil, fmt.Errorf("sql: aggregate %s not allowed here", e.Func)
	case *AParam:
		return nil, fmt.Errorf("sql: parameter $%d outside a prepared statement (bind it with EXECUTE)", e.N)
	default:
		return nil, fmt.Errorf("sql: unsupported expression %T", a)
	}
}

func bindBin(e *ABin, sc *scope) (expr.Expr, error) {
	l, err := bindExpr(e.L, sc)
	if err != nil {
		return nil, err
	}
	r, err := bindExpr(e.R, sc)
	if err != nil {
		return nil, err
	}
	switch e.Op {
	case "AND":
		return expr.NewLogic(expr.And, l, r)
	case "OR":
		return expr.NewLogic(expr.Or, l, r)
	case "+", "-", "*", "/", "%":
		ops := map[string]expr.ArithOp{"+": expr.Add, "-": expr.Sub, "*": expr.Mul, "/": expr.Div, "%": expr.Mod}
		return expr.NewArith(ops[e.Op], l, r)
	default:
		ops := map[string]expr.CmpOp{"=": expr.Eq, "<>": expr.Ne, "<": expr.Lt, "<=": expr.Le, ">": expr.Gt, ">=": expr.Ge}
		op, ok := ops[e.Op]
		if !ok {
			return nil, fmt.Errorf("sql: unknown operator %q", e.Op)
		}
		l, r = coerceCmp(l, r)
		return expr.NewCmp(op, l, r)
	}
}

// coerceCmp converts a string literal compared against a timestamp column
// into a timestamp literal (date literals are common in analytic filters).
func coerceCmp(l, r expr.Expr) (expr.Expr, expr.Expr) {
	coerce := func(target, lit expr.Expr) expr.Expr {
		c, ok := lit.(*expr.Const)
		if !ok || c.Val.Typ != types.Varchar || target.Type() != types.Timestamp {
			return lit
		}
		if v, err := parseTimestampLiteral(c.Val.S); err == nil {
			return expr.NewConst(v)
		}
		return lit
	}
	return coerce(r, l).(expr.Expr), coerce(l, r)
}

func coerceList(vals []types.Value, t types.Type) ([]types.Value, error) {
	out := make([]types.Value, len(vals))
	for i, v := range vals {
		if t == types.Timestamp && v.Typ == types.Varchar {
			tv, err := parseTimestampLiteral(v.S)
			if err != nil {
				return nil, err
			}
			out[i] = tv
			continue
		}
		if t == types.Float64 && v.Typ == types.Int64 {
			out[i] = types.NewFloat(float64(v.I))
			continue
		}
		out[i] = v
	}
	return out, nil
}

func displayName(c *ACol) string {
	if c.Qualifier != "" {
		return c.Qualifier + "." + c.Name
	}
	return c.Name
}

// astString renders an AST expression for aggregate deduplication and
// derived output names.
func astString(a AstExpr) string {
	switch e := a.(type) {
	case *ALit:
		return e.Val.String()
	case *ACol:
		return displayName(e)
	case *ABin:
		return "(" + astString(e.L) + " " + e.Op + " " + astString(e.R) + ")"
	case *ANot:
		return "NOT " + astString(e.Arg)
	case *AIsNull:
		if e.Negate {
			return astString(e.Arg) + " IS NOT NULL"
		}
		return astString(e.Arg) + " IS NULL"
	case *AIn:
		return astString(e.Arg) + " IN (...)"
	case *AFunc:
		parts := make([]string, len(e.Args))
		for i, a := range e.Args {
			parts[i] = astString(a)
		}
		return e.Name + "(" + strings.Join(parts, ", ") + ")"
	case *ACase:
		return "CASE"
	case *AAgg:
		switch {
		case e.Star:
			return "COUNT(*)"
		case e.Distinct:
			return e.Func + "(DISTINCT " + astString(e.Arg) + ")"
		default:
			return e.Func + "(" + astString(e.Arg) + ")"
		}
	case *AParam:
		return fmt.Sprintf("$%d", e.N)
	default:
		return "?"
	}
}

// hasAgg reports whether the AST contains an aggregate call.
func hasAgg(a AstExpr) bool {
	switch e := a.(type) {
	case *AAgg:
		return true
	case *ABin:
		return hasAgg(e.L) || hasAgg(e.R)
	case *ANot:
		return hasAgg(e.Arg)
	case *AIsNull:
		return hasAgg(e.Arg)
	case *AIn:
		return hasAgg(e.Arg)
	case *AFunc:
		for _, x := range e.Args {
			if hasAgg(x) {
				return true
			}
		}
	case *ACase:
		for _, w := range e.Whens {
			if hasAgg(w.Cond) || hasAgg(w.Then) {
				return true
			}
		}
		if e.Else != nil {
			return hasAgg(e.Else)
		}
	}
	return false
}

// AnalyzeSelect binds a SELECT statement into a logical query.
func AnalyzeSelect(s *SelectStmt, cat *catalog.Catalog) (*optimizer.LogicalQuery, error) {
	q := &optimizer.LogicalQuery{Limit: s.Limit, Offset: s.Offset, Distinct: s.Distinct}
	sc := &scope{}
	flatOff := 0
	for _, te := range s.From {
		t, err := cat.Table(te.Table)
		if err != nil {
			return nil, err
		}
		q.From = append(q.From, optimizer.TableRef{Table: t, Alias: te.Alias})
		sc.tables = append(sc.tables, scopeTable{alias: te.Alias, table: t, flatOff: flatOff})
		flatOff += t.Schema.Len()
	}
	// Join conditions from ON clauses; non-equi parts fold into WHERE.
	var whereParts []expr.Expr
	for i, te := range s.From {
		if te.On == nil {
			continue
		}
		bound, err := bindExpr(te.On, sc)
		if err != nil {
			return nil, err
		}
		for _, c := range expr.Conjuncts(bound) {
			if jc, ok := asJoinCond(q, c); ok {
				jc.Type = joinTypeOf(te.JoinType)
				q.JoinConds = append(q.JoinConds, jc)
			} else {
				whereParts = append(whereParts, c)
			}
		}
		_ = i
	}
	if s.Where != nil {
		bound, err := bindExpr(s.Where, sc)
		if err != nil {
			return nil, err
		}
		for _, c := range expr.Conjuncts(bound) {
			// Cross-table column equality in WHERE is a join condition
			// (comma joins).
			if jc, ok := asJoinCond(q, c); ok && len(q.From) > 1 {
				jc.Type = exec.InnerJoin
				q.JoinConds = append(q.JoinConds, jc)
			} else {
				whereParts = append(whereParts, c)
			}
		}
	}
	q.Where = expr.MustAnd(whereParts...)

	// Aggregate or plain?
	aggregate := len(s.GroupBy) > 0 || s.Having != nil
	for _, item := range s.Items {
		if !item.Star && hasAgg(item.Expr) {
			aggregate = true
		}
	}
	if aggregate {
		return analyzeAggregate(s, q, sc)
	}
	// Plain select: expand * and bind items.
	for _, item := range s.Items {
		if item.Star {
			for _, st := range sc.tables {
				for i := 0; i < st.table.Schema.Len(); i++ {
					col := st.table.Schema.Col(i)
					q.SelectExprs = append(q.SelectExprs, expr.NewColRef(st.flatOff+i, col.Typ, col.Name))
					q.SelectNames = append(q.SelectNames, col.Name)
				}
			}
			continue
		}
		b, err := bindExpr(item.Expr, sc)
		if err != nil {
			return nil, err
		}
		name := item.Name
		if name == "" {
			name = astString(item.Expr)
		}
		q.SelectExprs = append(q.SelectExprs, b)
		q.SelectNames = append(q.SelectNames, name)
	}
	ob, err := bindOrderBy(s.OrderBy, q.SelectNames, len(q.SelectExprs), sc, q)
	if err != nil {
		return nil, err
	}
	q.OrderBy = ob
	return q, nil
}

func joinTypeOf(s string) exec.JoinType {
	switch s {
	case "LEFT":
		return exec.LeftOuterJoin
	case "RIGHT":
		return exec.RightOuterJoin
	case "FULL":
		return exec.FullOuterJoin
	case "SEMI":
		return exec.SemiJoin
	case "ANTI":
		return exec.AntiJoin
	default:
		return exec.InnerJoin
	}
}

// asJoinCond recognizes col = col conjuncts spanning two tables.
func asJoinCond(q *optimizer.LogicalQuery, c expr.Expr) (optimizer.JoinCond, bool) {
	cmp, ok := c.(*expr.Cmp)
	if !ok || cmp.Op != expr.Eq {
		return optimizer.JoinCond{}, false
	}
	l, lok := cmp.L.(*expr.ColRef)
	r, rok := cmp.R.(*expr.ColRef)
	if !lok || !rok {
		return optimizer.JoinCond{}, false
	}
	// A join compares its keys as stored (vector.EqualAt, CompareAt), so
	// both must be stored alike: integer-backed, FLOAT or VARCHAR. An
	// equality across them (INT = FLOAT) is no join key.
	if l.Type() != r.Type() && !(l.Type().IsIntegral() && r.Type().IsIntegral()) {
		return optimizer.JoinCond{}, false
	}
	lt, lc := tableOf(q, l.Idx)
	rt, rc := tableOf(q, r.Idx)
	if lt < 0 || rt < 0 || lt == rt {
		return optimizer.JoinCond{}, false
	}
	return optimizer.JoinCond{LeftTbl: lt, LeftCol: lc, RightTbl: rt, RightCol: rc, Type: exec.InnerJoin}, true
}

func tableOf(q *optimizer.LogicalQuery, flat int) (int, int) {
	off := 0
	for i, t := range q.From {
		n := t.Table.Schema.Len()
		if flat < off+n {
			return i, flat - off
		}
		off += n
	}
	return -1, -1
}

// analyzeAggregate binds grouping queries: group keys, a deduplicated
// aggregate list, a post-projection over [keys..., aggs...], and HAVING.
func analyzeAggregate(s *SelectStmt, q *optimizer.LogicalQuery, sc *scope) (*optimizer.LogicalQuery, error) {
	// Bind group keys (must be bare columns).
	keyOfFlat := map[int]int{}
	for _, g := range s.GroupBy {
		b, err := bindExpr(g, sc)
		if err != nil {
			return nil, err
		}
		cr, ok := b.(*expr.ColRef)
		if !ok {
			return nil, fmt.Errorf("sql: GROUP BY supports plain columns, got %s", b)
		}
		keyOfFlat[cr.Idx] = len(q.GroupBy)
		q.GroupBy = append(q.GroupBy, cr.Idx)
		q.KeyNames = append(q.KeyNames, cr.Name)
	}
	// Collect aggregates from select items and HAVING, deduplicated.
	aggIdx := map[string]int{}
	var collect func(a AstExpr) error
	collect = func(a AstExpr) error {
		switch e := a.(type) {
		case *AAgg:
			key := astString(e)
			if _, ok := aggIdx[key]; ok {
				return nil
			}
			spec, err := bindAgg(e, sc)
			if err != nil {
				return err
			}
			aggIdx[key] = len(q.Aggs)
			q.Aggs = append(q.Aggs, spec)
		case *ABin:
			if err := collect(e.L); err != nil {
				return err
			}
			return collect(e.R)
		case *ANot:
			return collect(e.Arg)
		case *AIsNull:
			return collect(e.Arg)
		case *AIn:
			return collect(e.Arg)
		case *AFunc:
			for _, x := range e.Args {
				if err := collect(x); err != nil {
					return err
				}
			}
		case *ACase:
			for _, w := range e.Whens {
				if err := collect(w.Cond); err != nil {
					return err
				}
				if err := collect(w.Then); err != nil {
					return err
				}
			}
			if e.Else != nil {
				return collect(e.Else)
			}
		}
		return nil
	}
	for _, item := range s.Items {
		if item.Star {
			return nil, fmt.Errorf("sql: SELECT * is not valid in aggregate queries")
		}
		if err := collect(item.Expr); err != nil {
			return nil, err
		}
	}
	if s.Having != nil {
		if err := collect(s.Having); err != nil {
			return nil, err
		}
	}
	// Bind select items over the [keys..., aggs...] output schema.
	outScope := &aggScope{q: q, keyOfFlat: keyOfFlat, aggIdx: aggIdx, sc: sc}
	var postNeeded bool
	for _, item := range s.Items {
		b, err := outScope.bind(item.Expr)
		if err != nil {
			return nil, err
		}
		name := item.Name
		if name == "" {
			name = astString(item.Expr)
		}
		q.PostProject = append(q.PostProject, b)
		q.PostProjectNames = append(q.PostProjectNames, name)
		// Identity projection detection: key i at position i, agg j at
		// len(keys)+j. Aliases also force the projection so output column
		// names honour AS clauses.
		if cr, ok := b.(*expr.ColRef); !ok || cr.Idx != len(q.PostProject)-1 {
			postNeeded = true
		}
		if item.Name != "" {
			postNeeded = true
		}
	}
	if len(q.PostProject) != len(q.GroupBy)+len(q.Aggs) {
		postNeeded = true
	}
	// Name aggregates for output schema readability.
	for key, i := range aggIdx {
		if q.Aggs[i].Name == "" {
			q.Aggs[i].Name = key
		}
	}
	for i, item := range s.Items {
		if item.Name != "" && i < len(q.PostProjectNames) {
			q.PostProjectNames[i] = item.Name
		}
	}
	if !postNeeded {
		q.PostProject, q.PostProjectNames = nil, nil
	}
	if s.Having != nil {
		h, err := outScope.bind(s.Having)
		if err != nil {
			return nil, err
		}
		q.Having = h
	}
	// ORDER BY over the final output schema.
	finalNames := q.PostProjectNames
	finalWidth := len(q.PostProject)
	if finalNames == nil {
		finalNames = append(append([]string{}, q.KeyNames...), aggNames(q.Aggs)...)
		finalWidth = len(finalNames)
	}
	// Allow ORDER BY on select aliases too.
	for i, item := range s.Items {
		if item.Name != "" && i < len(finalNames) {
			finalNames[i] = item.Name
		}
	}
	ob, err := bindOrderBy(s.OrderBy, finalNames, finalWidth, nil, nil)
	if err != nil {
		return nil, err
	}
	q.OrderBy = ob
	return q, nil
}

func aggNames(aggs []exec.AggSpec) []string {
	out := make([]string, len(aggs))
	for i := range aggs {
		if aggs[i].Name != "" {
			out[i] = aggs[i].Name
		} else {
			out[i] = aggs[i].String()
		}
	}
	return out
}

func bindAgg(e *AAgg, sc *scope) (exec.AggSpec, error) {
	var spec exec.AggSpec
	switch {
	case e.Star:
		spec.Kind = exec.AggCountStar
		return spec, nil
	case e.Func == "COUNT" && e.Distinct:
		spec.Kind = exec.AggCountDistinct
	case e.Func == "COUNT":
		spec.Kind = exec.AggCount
	case e.Func == "SUM":
		spec.Kind = exec.AggSum
	case e.Func == "AVG":
		spec.Kind = exec.AggAvg
	case e.Func == "MIN":
		spec.Kind = exec.AggMin
	case e.Func == "MAX":
		spec.Kind = exec.AggMax
	default:
		return spec, fmt.Errorf("sql: unknown aggregate %q", e.Func)
	}
	if e.Distinct && e.Func != "COUNT" {
		return spec, fmt.Errorf("sql: DISTINCT is only supported with COUNT")
	}
	arg, err := bindExpr(e.Arg, sc)
	if err != nil {
		return spec, err
	}
	spec.Arg = arg
	return spec, nil
}

// aggScope binds expressions over the aggregate output schema
// [keys..., aggs...]: group-key columns become key refs, aggregate calls
// become agg refs; anything else must reduce to those.
type aggScope struct {
	q         *optimizer.LogicalQuery
	keyOfFlat map[int]int
	aggIdx    map[string]int
	sc        *scope
}

func (a *aggScope) bind(e AstExpr) (expr.Expr, error) {
	switch t := e.(type) {
	case *AAgg:
		i, ok := a.aggIdx[astString(t)]
		if !ok {
			return nil, fmt.Errorf("sql: internal: uncollected aggregate %s", astString(t))
		}
		spec := a.q.Aggs[i]
		return expr.NewColRef(len(a.q.GroupBy)+i, spec.ResultType(), spec.Name), nil
	case *ACol:
		flat, typ, err := a.sc.resolve(t.Qualifier, t.Name)
		if err != nil {
			return nil, err
		}
		ki, ok := a.keyOfFlat[flat]
		if !ok {
			return nil, fmt.Errorf("sql: column %q must appear in GROUP BY or an aggregate", displayName(t))
		}
		return expr.NewColRef(ki, typ, a.q.KeyNames[ki]), nil
	case *ALit:
		return expr.NewConst(t.Val), nil
	case *ABin:
		switch t.Op {
		case "AND":
			l, err := a.bind(t.L)
			if err != nil {
				return nil, err
			}
			r, err := a.bind(t.R)
			if err != nil {
				return nil, err
			}
			return expr.NewLogic(expr.And, l, r)
		case "OR":
			l, err := a.bind(t.L)
			if err != nil {
				return nil, err
			}
			r, err := a.bind(t.R)
			if err != nil {
				return nil, err
			}
			return expr.NewLogic(expr.Or, l, r)
		case "+", "-", "*", "/", "%":
			l, err := a.bind(t.L)
			if err != nil {
				return nil, err
			}
			r, err := a.bind(t.R)
			if err != nil {
				return nil, err
			}
			ops := map[string]expr.ArithOp{"+": expr.Add, "-": expr.Sub, "*": expr.Mul, "/": expr.Div, "%": expr.Mod}
			return expr.NewArith(ops[t.Op], l, r)
		default:
			l, err := a.bind(t.L)
			if err != nil {
				return nil, err
			}
			r, err := a.bind(t.R)
			if err != nil {
				return nil, err
			}
			ops := map[string]expr.CmpOp{"=": expr.Eq, "<>": expr.Ne, "<": expr.Lt, "<=": expr.Le, ">": expr.Gt, ">=": expr.Ge}
			l, r = coerceCmp(l, r)
			return expr.NewCmp(ops[t.Op], l, r)
		}
	case *ANot:
		arg, err := a.bind(t.Arg)
		if err != nil {
			return nil, err
		}
		return expr.NewLogic(expr.Not, arg)
	case *AFunc:
		args := make([]expr.Expr, len(t.Args))
		for i, x := range t.Args {
			b, err := a.bind(x)
			if err != nil {
				return nil, err
			}
			args[i] = b
		}
		return expr.NewFunc(t.Name, args...)
	default:
		return nil, fmt.Errorf("sql: unsupported expression in aggregate output: %T", e)
	}
}

// bindOrderBy resolves ORDER BY items against output column names, select
// aliases or 1-based positions.
func bindOrderBy(items []OrderItem, names []string, width int, sc *scope, q *optimizer.LogicalQuery) ([]vector.SortSpec, error) {
	var out []vector.SortSpec
	for _, it := range items {
		switch e := it.Expr.(type) {
		case *ALit:
			if e.Val.Typ != types.Int64 {
				return nil, fmt.Errorf("sql: ORDER BY position must be an integer")
			}
			pos := int(e.Val.I)
			if pos < 1 || pos > width {
				return nil, fmt.Errorf("sql: ORDER BY position %d out of range", pos)
			}
			out = append(out, vector.SortSpec{Col: pos - 1, Desc: it.Desc})
		case *ACol:
			found := -1
			for i, n := range names {
				if n == e.Name || n == displayName(e) {
					found = i
					break
				}
			}
			if found < 0 {
				return nil, fmt.Errorf("sql: ORDER BY column %q is not in the select list", displayName(e))
			}
			out = append(out, vector.SortSpec{Col: found, Desc: it.Desc})
		default:
			return nil, fmt.Errorf("sql: ORDER BY supports output columns or positions")
		}
	}
	return out, nil
}

// BindScalarExpr parses and binds an expression string against a single
// schema (used to rebind catalog partition/segmentation expressions).
func BindScalarExpr(text string, schema *types.Schema) (expr.Expr, error) {
	lx := &lexer{src: text}
	toks, err := lx.lex()
	if err != nil {
		return nil, err
	}
	p := &parser{lx: lx, toks: toks}
	ast, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if !p.at(tokEOF, "") {
		return nil, fmt.Errorf("sql: trailing input in expression %q", text)
	}
	tbl := &catalog.Table{Name: "_expr", Schema: schema}
	sc := &scope{tables: []scopeTable{{alias: "_expr", table: tbl}}}
	return bindExpr(ast, sc)
}
