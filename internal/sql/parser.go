package sql

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/encoding"
	"repro/internal/types"
)

// Parser is a recursive-descent parser over the token stream.
type parser struct {
	lx   *lexer
	toks []token
	pos  int
}

// Parse parses one SQL statement (a trailing semicolon is allowed).
func Parse(src string) (Statement, error) {
	lx := &lexer{src: src}
	toks, err := lx.lex()
	if err != nil {
		return nil, err
	}
	p := &parser{lx: lx, toks: toks}
	stmt, err := p.parseStatement()
	if err != nil {
		return nil, err
	}
	p.accept(tokSymbol, ";")
	if !p.at(tokEOF, "") {
		return nil, p.errHere("unexpected trailing input %q", p.cur().text)
	}
	return stmt, nil
}

func (p *parser) cur() token  { return p.toks[p.pos] }
func (p *parser) next() token { t := p.toks[p.pos]; p.pos++; return t }

func (p *parser) at(kind tokenKind, text string) bool {
	t := p.cur()
	return t.kind == kind && (text == "" || t.text == text)
}

func (p *parser) accept(kind tokenKind, text string) bool {
	if p.at(kind, text) {
		p.pos++
		return true
	}
	return false
}

func (p *parser) expect(kind tokenKind, text string) (token, error) {
	if p.at(kind, text) {
		return p.next(), nil
	}
	want := text
	if want == "" {
		want = fmt.Sprintf("token kind %d", kind)
	}
	return token{}, p.errHere("expected %s, found %q", want, p.cur().text)
}

func (p *parser) errHere(format string, args ...interface{}) error {
	return p.lx.error(p.cur().pos, format, args...)
}

// softKeywords may double as identifiers (column/table names) when the
// grammar expects a name.
var softKeywords = map[string]bool{
	"DATE": true, "TIMESTAMP": true, "COUNT": true, "SUM": true, "AVG": true,
	"MIN": true, "MAX": true, "HASH": true, "VALUES": true, "SET": true,
	"ALL": true, "PARTITION": true, "BUDDY": true, "OF": true,
}

// expectIdent accepts an identifier or a soft keyword used as a name.
func (p *parser) expectIdent() (token, error) {
	if p.at(tokIdent, "") {
		return p.next(), nil
	}
	if t := p.cur(); t.kind == tokKeyword && softKeywords[t.text] {
		p.pos++
		return token{kind: tokIdent, text: strings.ToLower(t.text), pos: t.pos}, nil
	}
	return token{}, p.errHere("expected an identifier, found %q", p.cur().text)
}

func (p *parser) parseStatement() (Statement, error) {
	switch {
	case p.at(tokKeyword, "EXPLAIN"):
		p.next()
		s, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		s.Explain = true
		return s, nil
	case p.at(tokKeyword, "PROFILE"):
		p.next()
		s, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		s.Profile = true
		return s, nil
	case p.at(tokKeyword, "SELECT"):
		return p.parseSelect()
	case p.at(tokKeyword, "CREATE"):
		return p.parseCreate()
	case p.at(tokKeyword, "INSERT"):
		return p.parseInsert()
	case p.at(tokKeyword, "DELETE"):
		return p.parseDelete()
	case p.at(tokKeyword, "UPDATE"):
		return p.parseUpdate()
	case p.at(tokKeyword, "DROP"):
		return p.parseDrop()
	case p.at(tokIdent, "alter"):
		return p.parseAlter()
	case p.at(tokIdent, "analyze_statistics"):
		return p.parseAnalyze()
	case p.at(tokIdent, "prepare"):
		return p.parsePrepare()
	case p.at(tokIdent, "execute"):
		return p.parseExecute()
	case p.at(tokIdent, "deallocate"):
		return p.parseDeallocate()
	case p.at(tokKeyword, "SET"):
		return p.parseSet()
	case p.at(tokKeyword, "BEGIN"), p.at(tokKeyword, "COMMIT"), p.at(tokKeyword, "ROLLBACK"):
		return &TxnStmt{Kind: p.next().text}, nil
	default:
		return nil, p.errHere("expected a statement, found %q", p.cur().text)
	}
}

// --- SELECT ---------------------------------------------------------------

func (p *parser) parseSelect() (*SelectStmt, error) {
	if _, err := p.expect(tokKeyword, "SELECT"); err != nil {
		return nil, err
	}
	s := &SelectStmt{Limit: -1}
	s.Distinct = p.accept(tokKeyword, "DISTINCT")
	p.accept(tokKeyword, "ALL")
	for {
		item, err := p.parseSelectItem()
		if err != nil {
			return nil, err
		}
		s.Items = append(s.Items, item)
		if !p.accept(tokSymbol, ",") {
			break
		}
	}
	if _, err := p.expect(tokKeyword, "FROM"); err != nil {
		return nil, err
	}
	from, err := p.parseFrom()
	if err != nil {
		return nil, err
	}
	s.From = from
	if p.accept(tokKeyword, "WHERE") {
		if s.Where, err = p.parseExpr(); err != nil {
			return nil, err
		}
	}
	if p.accept(tokKeyword, "GROUP") {
		if _, err := p.expect(tokKeyword, "BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			s.GroupBy = append(s.GroupBy, e)
			if !p.accept(tokSymbol, ",") {
				break
			}
		}
	}
	if p.accept(tokKeyword, "HAVING") {
		if s.Having, err = p.parseExpr(); err != nil {
			return nil, err
		}
	}
	if p.accept(tokKeyword, "ORDER") {
		if _, err := p.expect(tokKeyword, "BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			item := OrderItem{Expr: e}
			if p.accept(tokKeyword, "DESC") {
				item.Desc = true
			} else {
				p.accept(tokKeyword, "ASC")
			}
			s.OrderBy = append(s.OrderBy, item)
			if !p.accept(tokSymbol, ",") {
				break
			}
		}
	}
	if p.accept(tokKeyword, "LIMIT") {
		n, err := p.parseIntLiteral()
		if err != nil {
			return nil, err
		}
		s.Limit = n
	}
	if p.accept(tokKeyword, "OFFSET") {
		n, err := p.parseIntLiteral()
		if err != nil {
			return nil, err
		}
		s.Offset = n
	}
	return s, nil
}

func (p *parser) parseIntLiteral() (int64, error) {
	t, err := p.expect(tokInt, "")
	if err != nil {
		return 0, err
	}
	return strconv.ParseInt(t.text, 10, 64)
}

func (p *parser) parseSelectItem() (SelectItem, error) {
	if p.accept(tokSymbol, "*") {
		return SelectItem{Star: true}, nil
	}
	e, err := p.parseExpr()
	if err != nil {
		return SelectItem{}, err
	}
	item := SelectItem{Expr: e}
	if p.accept(tokKeyword, "AS") {
		t, err := p.expectIdent()
		if err != nil {
			return SelectItem{}, err
		}
		item.Name = t.text
	} else if p.at(tokIdent, "") {
		item.Name = p.next().text
	}
	return item, nil
}

func (p *parser) parseFrom() ([]TableExpr, error) {
	var out []TableExpr
	first, err := p.parseTableRef()
	if err != nil {
		return nil, err
	}
	out = append(out, first)
	for {
		jt := ""
		switch {
		case p.accept(tokSymbol, ","):
			jt = "INNER" // comma join; condition must appear in WHERE
			te, err := p.parseTableRef()
			if err != nil {
				return nil, err
			}
			te.JoinType = jt
			out = append(out, te)
			continue
		case p.at(tokKeyword, "JOIN"), p.at(tokKeyword, "INNER"),
			p.at(tokKeyword, "LEFT"), p.at(tokKeyword, "RIGHT"),
			p.at(tokKeyword, "FULL"), p.at(tokKeyword, "SEMI"), p.at(tokKeyword, "ANTI"):
			switch p.cur().text {
			case "JOIN":
				p.next()
				jt = "INNER"
			case "INNER":
				p.next()
				jt = "INNER"
				if _, err := p.expect(tokKeyword, "JOIN"); err != nil {
					return nil, err
				}
			default:
				jt = p.next().text
				p.accept(tokKeyword, "OUTER")
				if _, err := p.expect(tokKeyword, "JOIN"); err != nil {
					return nil, err
				}
			}
			te, err := p.parseTableRef()
			if err != nil {
				return nil, err
			}
			te.JoinType = jt
			if p.accept(tokKeyword, "ON") {
				if te.On, err = p.parseExpr(); err != nil {
					return nil, err
				}
			}
			out = append(out, te)
			continue
		}
		return out, nil
	}
}

func (p *parser) parseTableRef() (TableExpr, error) {
	t, err := p.expectIdent()
	if err != nil {
		return TableExpr{}, err
	}
	te := TableExpr{Table: t.text, Alias: t.text}
	// Schema-qualified name (system tables: v_monitor.query_profiles). The
	// qualified name is the table's catalog name; the bare table name is the
	// default alias so columns resolve unqualified.
	if p.accept(tokSymbol, ".") {
		t2, err := p.expectIdent()
		if err != nil {
			return TableExpr{}, err
		}
		te.Table = te.Table + "." + t2.text
		te.Alias = t2.text
	}
	if p.accept(tokKeyword, "AS") {
		a, err := p.expectIdent()
		if err != nil {
			return TableExpr{}, err
		}
		te.Alias = a.text
	} else if p.at(tokIdent, "") {
		te.Alias = p.next().text
	}
	return te, nil
}

// --- expressions -----------------------------------------------------------

func (p *parser) parseExpr() (AstExpr, error) { return p.parseOr() }

func (p *parser) parseOr() (AstExpr, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.accept(tokKeyword, "OR") {
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l = &ABin{Op: "OR", L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseAnd() (AstExpr, error) {
	l, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.accept(tokKeyword, "AND") {
		r, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		l = &ABin{Op: "AND", L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseNot() (AstExpr, error) {
	if p.accept(tokKeyword, "NOT") {
		arg, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return &ANot{Arg: arg}, nil
	}
	return p.parseComparison()
}

func (p *parser) parseComparison() (AstExpr, error) {
	l, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	// IS [NOT] NULL
	if p.accept(tokKeyword, "IS") {
		neg := p.accept(tokKeyword, "NOT")
		if _, err := p.expect(tokKeyword, "NULL"); err != nil {
			return nil, err
		}
		return &AIsNull{Arg: l, Negate: neg}, nil
	}
	// [NOT] IN (...) / BETWEEN
	neg := false
	if p.at(tokKeyword, "NOT") && p.toks[p.pos+1].kind == tokKeyword &&
		(p.toks[p.pos+1].text == "IN" || p.toks[p.pos+1].text == "BETWEEN") {
		p.next()
		neg = true
	}
	if p.accept(tokKeyword, "IN") {
		if _, err := p.expect(tokSymbol, "("); err != nil {
			return nil, err
		}
		var vals []types.Value
		for {
			v, err := p.parseLiteralValue()
			if err != nil {
				return nil, err
			}
			vals = append(vals, v)
			if !p.accept(tokSymbol, ",") {
				break
			}
		}
		if _, err := p.expect(tokSymbol, ")"); err != nil {
			return nil, err
		}
		return &AIn{Arg: l, Vals: vals, Negate: neg}, nil
	}
	if p.accept(tokKeyword, "BETWEEN") {
		lo, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokKeyword, "AND"); err != nil {
			return nil, err
		}
		hi, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		rng := &ABin{Op: "AND",
			L: &ABin{Op: ">=", L: l, R: lo},
			R: &ABin{Op: "<=", L: l, R: hi}}
		if neg {
			return &ANot{Arg: rng}, nil
		}
		return rng, nil
	}
	for _, op := range []string{"=", "<>", "<=", ">=", "<", ">"} {
		if p.accept(tokSymbol, op) {
			r, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			return &ABin{Op: op, L: l, R: r}, nil
		}
	}
	return l, nil
}

func (p *parser) parseAdditive() (AstExpr, error) {
	l, err := p.parseMultiplicative()
	if err != nil {
		return nil, err
	}
	for {
		var op string
		switch {
		case p.accept(tokSymbol, "+"):
			op = "+"
		case p.accept(tokSymbol, "-"):
			op = "-"
		default:
			return l, nil
		}
		r, err := p.parseMultiplicative()
		if err != nil {
			return nil, err
		}
		l = &ABin{Op: op, L: l, R: r}
	}
}

func (p *parser) parseMultiplicative() (AstExpr, error) {
	l, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		var op string
		switch {
		case p.accept(tokSymbol, "*"):
			op = "*"
		case p.accept(tokSymbol, "/"):
			op = "/"
		case p.accept(tokSymbol, "%"):
			op = "%"
		default:
			return l, nil
		}
		r, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		l = &ABin{Op: op, L: l, R: r}
	}
}

func (p *parser) parseUnary() (AstExpr, error) {
	if p.accept(tokSymbol, "-") {
		arg, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		if lit, ok := arg.(*ALit); ok && !lit.Val.Null {
			v := lit.Val
			if v.Typ == types.Float64 {
				v.F = -v.F
			} else {
				v.I = -v.I
			}
			return &ALit{Val: v}, nil
		}
		return &ABin{Op: "-", L: &ALit{Val: types.NewInt(0)}, R: arg}, nil
	}
	return p.parsePrimary()
}

func (p *parser) parsePrimary() (AstExpr, error) {
	t := p.cur()
	switch {
	case t.kind == tokInt:
		p.next()
		v, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return nil, p.errHere("bad integer %q", t.text)
		}
		return &ALit{Val: types.NewInt(v)}, nil
	case t.kind == tokFloat:
		p.next()
		v, err := strconv.ParseFloat(t.text, 64)
		if err != nil {
			return nil, p.errHere("bad float %q", t.text)
		}
		return &ALit{Val: types.NewFloat(v)}, nil
	case t.kind == tokString:
		p.next()
		return &ALit{Val: types.NewString(t.text)}, nil
	case t.kind == tokKeyword:
		switch t.text {
		case "NULL":
			p.next()
			return &ALit{Val: types.NewNull(types.Int64)}, nil
		case "TRUE":
			p.next()
			return &ALit{Val: types.NewBool(true)}, nil
		case "FALSE":
			p.next()
			return &ALit{Val: types.NewBool(false)}, nil
		case "TIMESTAMP", "DATE":
			// TIMESTAMP '...' is a literal; a bare TIMESTAMP/DATE is a
			// column named by a soft keyword.
			if p.toks[p.pos+1].kind == tokString {
				p.next()
				s := p.next()
				v, err := parseTimestampLiteral(s.text)
				if err != nil {
					return nil, p.errHere("%v", err)
				}
				return &ALit{Val: v}, nil
			}
			p.next()
			col := &ACol{Name: strings.ToLower(t.text)}
			if p.accept(tokSymbol, ".") {
				c, err := p.expectIdent()
				if err != nil {
					return nil, err
				}
				col.Qualifier = col.Name
				col.Name = c.text
			}
			return col, nil
		case "COUNT", "SUM", "AVG", "MIN", "MAX":
			return p.parseAggCall()
		case "CASE":
			return p.parseCase()
		case "HASH":
			p.next()
			args, err := p.parseArgList()
			if err != nil {
				return nil, err
			}
			return &AFunc{Name: "HASH", Args: args}, nil
		}
		return nil, p.errHere("unexpected keyword %q in expression", t.text)
	case t.kind == tokIdent:
		// function call or column reference.
		if p.toks[p.pos+1].kind == tokSymbol && p.toks[p.pos+1].text == "(" {
			name := p.next().text
			args, err := p.parseArgList()
			if err != nil {
				return nil, err
			}
			return &AFunc{Name: strings.ToUpper(name), Args: args}, nil
		}
		p.next()
		col := &ACol{Name: t.text}
		if p.accept(tokSymbol, ".") {
			c, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			col.Qualifier = col.Name
			col.Name = c.text
		}
		return col, nil
	case t.kind == tokSymbol && t.text == "(":
		p.next()
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokSymbol, ")"); err != nil {
			return nil, err
		}
		return e, nil
	case t.kind == tokParam:
		p.next()
		n, err := strconv.Atoi(t.text)
		if err != nil || n < 1 {
			return nil, p.errHere("bad parameter $%s: parameter numbers start at $1", t.text)
		}
		return &AParam{N: n}, nil
	}
	return nil, p.errHere("unexpected token %q in expression", t.text)
}

func (p *parser) parseArgList() ([]AstExpr, error) {
	if _, err := p.expect(tokSymbol, "("); err != nil {
		return nil, err
	}
	var args []AstExpr
	if p.accept(tokSymbol, ")") {
		return args, nil
	}
	for {
		a, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		args = append(args, a)
		if !p.accept(tokSymbol, ",") {
			break
		}
	}
	if _, err := p.expect(tokSymbol, ")"); err != nil {
		return nil, err
	}
	return args, nil
}

func (p *parser) parseAggCall() (AstExpr, error) {
	fn := p.next().text
	if _, err := p.expect(tokSymbol, "("); err != nil {
		return nil, err
	}
	agg := &AAgg{Func: fn}
	if fn == "COUNT" && p.accept(tokSymbol, "*") {
		agg.Star = true
	} else {
		agg.Distinct = p.accept(tokKeyword, "DISTINCT")
		arg, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		agg.Arg = arg
	}
	if _, err := p.expect(tokSymbol, ")"); err != nil {
		return nil, err
	}
	return agg, nil
}

func (p *parser) parseCase() (AstExpr, error) {
	p.next() // CASE
	c := &ACase{}
	for p.accept(tokKeyword, "WHEN") {
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokKeyword, "THEN"); err != nil {
			return nil, err
		}
		then, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		c.Whens = append(c.Whens, AWhen{Cond: cond, Then: then})
	}
	if len(c.Whens) == 0 {
		return nil, p.errHere("CASE requires at least one WHEN")
	}
	if p.accept(tokKeyword, "ELSE") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		c.Else = e
	}
	if _, err := p.expect(tokKeyword, "END"); err != nil {
		return nil, err
	}
	return c, nil
}

func (p *parser) parseLiteralValue() (types.Value, error) {
	e, err := p.parseUnary()
	if err != nil {
		return types.Value{}, err
	}
	lit, ok := e.(*ALit)
	if !ok {
		return types.Value{}, p.errHere("expected a literal value")
	}
	return lit.Val, nil
}

// parseTimestampLiteral accepts 'YYYY-MM-DD' or 'YYYY-MM-DD HH:MM:SS'.
func parseTimestampLiteral(s string) (types.Value, error) {
	if v, ok := types.ParseTimestamp(s); ok {
		return v, nil
	}
	return types.Value{}, fmt.Errorf("sql: bad timestamp literal %q", s)
}

// --- DDL / DML --------------------------------------------------------------

func (p *parser) parseCreate() (Statement, error) {
	p.next() // CREATE
	switch {
	case p.accept(tokKeyword, "TABLE"):
		return p.parseCreateTable()
	case p.accept(tokKeyword, "PROJECTION"):
		return p.parseCreateProjection()
	case p.at(tokIdent, "resource"):
		if err := p.expectResourcePool(); err != nil {
			return nil, err
		}
		name, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		opts, err := p.parsePoolOpts()
		if err != nil {
			return nil, err
		}
		return &CreatePoolStmt{Name: name.text, Opts: opts}, nil
	default:
		return nil, p.errHere("expected TABLE, PROJECTION or RESOURCE POOL after CREATE")
	}
}

// expectResourcePool consumes the two-word RESOURCE POOL introducer.
func (p *parser) expectResourcePool() error {
	if !p.accept(tokIdent, "resource") {
		return p.errHere("expected RESOURCE, found %q", p.cur().text)
	}
	if !p.accept(tokIdent, "pool") {
		return p.errHere("expected POOL after RESOURCE, found %q", p.cur().text)
	}
	return nil
}

// parseAlter parses ALTER RESOURCE POOL name options.
func (p *parser) parseAlter() (Statement, error) {
	p.next() // ALTER
	if err := p.expectResourcePool(); err != nil {
		return nil, err
	}
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	opts, err := p.parsePoolOpts()
	if err != nil {
		return nil, err
	}
	return &AlterPoolStmt{Name: name.text, Opts: opts}, nil
}

// parseAnalyze parses ANALYZE_STATISTICS('table') and
// ANALYZE_STATISTICS('table.column').
func (p *parser) parseAnalyze() (Statement, error) {
	p.next() // analyze_statistics
	if _, err := p.expect(tokSymbol, "("); err != nil {
		return nil, err
	}
	target, err := p.expect(tokString, "")
	if err != nil {
		return nil, err
	}
	if strings.TrimSpace(target.text) == "" {
		return nil, p.errHere("ANALYZE_STATISTICS needs a table or table.column name")
	}
	st := &AnalyzeStmt{Target: strings.TrimSpace(strings.ToLower(target.text))}
	if _, err := p.expect(tokSymbol, ")"); err != nil {
		return nil, err
	}
	return st, nil
}

// parsePrepare parses PREPARE name AS <statement>. The body is parsed in
// place with the same grammar as a top-level statement and may reference $n
// placeholders.
func (p *parser) parsePrepare() (Statement, error) {
	p.next() // prepare
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	if !p.accept(tokKeyword, "AS") {
		return nil, p.errHere("expected AS after PREPARE %s, found %q", name.text, p.cur().text)
	}
	body, err := p.parseStatement()
	if err != nil {
		return nil, err
	}
	switch body.(type) {
	case *PrepareStmt, *ExecuteStmt, *DeallocateStmt:
		return nil, p.errHere("cannot PREPARE a %s statement", "PREPARE/EXECUTE/DEALLOCATE")
	}
	n, err := CountParams(body)
	if err != nil {
		return nil, err
	}
	return &PrepareStmt{Name: name.text, Stmt: body, NumParams: n}, nil
}

// parseExecute parses EXECUTE name [(literal, ...)].
func (p *parser) parseExecute() (Statement, error) {
	p.next() // execute
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	st := &ExecuteStmt{Name: name.text}
	if p.accept(tokSymbol, "(") {
		if !p.accept(tokSymbol, ")") {
			for {
				v, err := p.parseLiteralValue()
				if err != nil {
					return nil, err
				}
				st.Args = append(st.Args, v)
				if !p.accept(tokSymbol, ",") {
					break
				}
			}
			if _, err := p.expect(tokSymbol, ")"); err != nil {
				return nil, err
			}
		}
	}
	return st, nil
}

// parseDeallocate parses DEALLOCATE [PREPARE] name.
func (p *parser) parseDeallocate() (Statement, error) {
	p.next() // deallocate
	p.accept(tokIdent, "prepare")
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	return &DeallocateStmt{Name: name.text}, nil
}

// parseSet parses SET RESOURCE POOL name and SET SESSION TRACE ON|OFF.
func (p *parser) parseSet() (Statement, error) {
	p.next() // SET
	if p.accept(tokIdent, "session") {
		if !p.accept(tokIdent, "trace") {
			return nil, p.errHere("expected TRACE after SESSION, found %q", p.cur().text)
		}
		switch {
		case p.accept(tokKeyword, "ON"):
			return &SetStmt{Trace: "on"}, nil
		case p.accept(tokIdent, "off"):
			return &SetStmt{Trace: "off"}, nil
		}
		return nil, p.errHere("expected ON or OFF after SESSION TRACE, found %q", p.cur().text)
	}
	if err := p.expectResourcePool(); err != nil {
		return nil, err
	}
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	return &SetStmt{Pool: name.text}, nil
}

// parsePoolOpts parses the CREATE/ALTER RESOURCE POOL option list:
// MEMORYSIZE/MAXMEMORYSIZE take bytes (integer or a '64K'/'10M'/'1G'
// string), PLANNEDCONCURRENCY/MAXCONCURRENCY an integer, QUEUETIMEOUT
// milliseconds (integer) or NONE to disable.
func (p *parser) parsePoolOpts() (PoolOpts, error) {
	var o PoolOpts
	for p.at(tokIdent, "") {
		opt := p.next().text
		switch opt {
		case "memorysize":
			v, err := p.parseSizeValue()
			if err != nil {
				return o, err
			}
			o.MemBytes = &v
		case "maxmemorysize":
			v, err := p.parseSizeValue()
			if err != nil {
				return o, err
			}
			o.MaxMemBytes = &v
		case "plannedconcurrency":
			v, err := p.parseIntLiteral()
			if err != nil {
				return o, err
			}
			if v <= 0 {
				return o, p.errHere("PLANNEDCONCURRENCY must be positive")
			}
			o.PlannedConcurrency = &v
		case "maxconcurrency":
			v, err := p.parseIntLiteral()
			if err != nil {
				return o, err
			}
			if v <= 0 {
				return o, p.errHere("MAXCONCURRENCY must be positive")
			}
			o.MaxConcurrency = &v
		case "queuetimeout":
			if p.accept(tokIdent, "none") {
				v := int64(-1)
				o.QueueTimeoutMS = &v
				continue
			}
			v, err := p.parseIntLiteral()
			if err != nil {
				return o, err
			}
			if v <= 0 {
				return o, p.errHere("QUEUETIMEOUT must be positive milliseconds (or NONE to disable)")
			}
			o.QueueTimeoutMS = &v
		case "priority":
			neg := p.accept(tokSymbol, "-")
			v, err := p.parseIntLiteral()
			if err != nil {
				return o, err
			}
			if neg {
				v = -v
			}
			o.Priority = &v
		case "parallelism":
			if p.accept(tokIdent, "none") {
				v := int64(0)
				o.Parallelism = &v
				continue
			}
			v, err := p.parseIntLiteral()
			if err != nil {
				return o, err
			}
			if v <= 0 {
				return o, p.errHere("PARALLELISM must be a positive worker count (or NONE for the engine default)")
			}
			o.Parallelism = &v
		case "runtimecap":
			if p.accept(tokIdent, "none") {
				v := int64(0)
				o.RuntimeCapMS = &v
				continue
			}
			v, err := p.parseIntLiteral()
			if err != nil {
				return o, err
			}
			if v <= 0 {
				return o, p.errHere("RUNTIMECAP must be positive milliseconds (or NONE to uncap)")
			}
			o.RuntimeCapMS = &v
		default:
			return o, p.errHere("unknown resource pool option %q", opt)
		}
	}
	return o, nil
}

// parseSizeValue accepts a byte count as an integer literal or a string
// literal with an optional K/M/G suffix.
func (p *parser) parseSizeValue() (int64, error) {
	if p.at(tokInt, "") {
		return p.parseIntLiteral()
	}
	t, err := p.expect(tokString, "")
	if err != nil {
		return 0, err
	}
	v, err := ParseByteSize(t.text)
	if err != nil {
		return 0, p.errHere("%v", err)
	}
	return v, nil
}

// ParseByteSize parses a byte count with an optional binary suffix —
// "123", "64K"/"64KB", "10M"/"10MB", "1G"/"1GB", "512B" — case-insensitive.
// It is the one size grammar shared by SQL (MEMORYSIZE literals) and the
// CLI's -mem-pool flag.
func ParseByteSize(s string) (int64, error) {
	orig := s
	s = strings.TrimSpace(strings.ToUpper(s))
	if s == "" {
		return 0, fmt.Errorf("sql: empty size")
	}
	s = strings.TrimSuffix(s, "B")
	mult := int64(1)
	if len(s) > 0 {
		switch s[len(s)-1] {
		case 'K':
			mult = 1 << 10
			s = s[:len(s)-1]
		case 'M':
			mult = 1 << 20
			s = s[:len(s)-1]
		case 'G':
			mult = 1 << 30
			s = s[:len(s)-1]
		}
	}
	n, err := strconv.ParseInt(strings.TrimSpace(s), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("sql: bad size %q", orig)
	}
	return n * mult, nil
}

func (p *parser) parseCreateTable() (Statement, error) {
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokSymbol, "("); err != nil {
		return nil, err
	}
	s := &CreateTableStmt{Name: name.text}
	for {
		cn, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		// Type name: keyword (TIMESTAMP/DATE) or identifier (int, varchar...).
		var typName string
		switch {
		case p.at(tokKeyword, "TIMESTAMP"), p.at(tokKeyword, "DATE"):
			typName = p.next().text
		case p.at(tokIdent, ""):
			typName = strings.ToUpper(p.next().text)
		default:
			return nil, p.errHere("expected a type name for column %q", cn.text)
		}
		typ, err := types.ParseType(typName)
		if err != nil {
			return nil, p.errHere("%v", err)
		}
		// Optional length e.g. VARCHAR(64): parsed and ignored.
		if p.accept(tokSymbol, "(") {
			if _, err := p.expect(tokInt, ""); err != nil {
				return nil, err
			}
			if _, err := p.expect(tokSymbol, ")"); err != nil {
				return nil, err
			}
		}
		cd := ColumnDef{Name: cn.text, Typ: typ, Encoding: encoding.Auto}
		if p.accept(tokKeyword, "NOT") {
			if _, err := p.expect(tokKeyword, "NULL"); err != nil {
				return nil, err
			}
			cd.NotNull = true
		}
		s.Cols = append(s.Cols, cd)
		if !p.accept(tokSymbol, ",") {
			break
		}
	}
	if _, err := p.expect(tokSymbol, ")"); err != nil {
		return nil, err
	}
	if p.accept(tokKeyword, "PARTITION") {
		if _, err := p.expect(tokKeyword, "BY"); err != nil {
			return nil, err
		}
		start := p.cur().pos
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		s.PartitionExpr = e
		s.PartitionText = strings.TrimSpace(p.lx.src[start:p.cur().pos])
	}
	return s, nil
}

func (p *parser) parseCreateProjection() (Statement, error) {
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokKeyword, "ON"); err != nil {
		return nil, err
	}
	tbl, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	s := &CreateProjectionStmt{Name: name.text, Table: tbl.text, Encodings: map[string]encoding.Kind{}}
	if _, err := p.expect(tokSymbol, "("); err != nil {
		return nil, err
	}
	for {
		cn, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		col := cn.text
		// A projection stores only its anchor table's columns; a qualified
		// name like "dim.col" names another table's.
		if p.accept(tokSymbol, ".") {
			c2, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			return nil, p.lx.error(cn.pos, "projection column %s.%s is not a column of %s: a projection stores only its anchor table's columns",
				col, c2.text, tbl.text)
		}
		s.Columns = append(s.Columns, col)
		// Optional encoding: col ENCODING RLE (ENCODING parsed as ident).
		if p.at(tokIdent, "encoding") {
			p.next()
			if p.at(tokIdent, "") || p.at(tokKeyword, "") {
				k, err := encoding.ParseKind(strings.ToUpper(p.next().text))
				if err != nil {
					return nil, p.errHere("%v", err)
				}
				s.Encodings[col] = k
			}
		}
		if !p.accept(tokSymbol, ",") {
			break
		}
	}
	if _, err := p.expect(tokSymbol, ")"); err != nil {
		return nil, err
	}
	if p.accept(tokKeyword, "ORDER") {
		if _, err := p.expect(tokKeyword, "BY"); err != nil {
			return nil, err
		}
		for {
			cn, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			s.SortOrder = append(s.SortOrder, cn.text)
			if !p.accept(tokSymbol, ",") {
				break
			}
		}
	}
	switch {
	case p.accept(tokKeyword, "REPLICATED"):
		s.Replicated = true
	case p.accept(tokKeyword, "SEGMENTED"):
		if _, err := p.expect(tokKeyword, "BY"); err != nil {
			return nil, err
		}
		start := p.cur().pos
		if _, err := p.expect(tokKeyword, "HASH"); err != nil {
			return nil, err
		}
		if _, err := p.expect(tokSymbol, "("); err != nil {
			return nil, err
		}
		for {
			cn, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			s.SegCols = append(s.SegCols, cn.text)
			if !p.accept(tokSymbol, ",") {
				break
			}
		}
		if _, err := p.expect(tokSymbol, ")"); err != nil {
			return nil, err
		}
		s.SegText = strings.TrimSpace(p.lx.src[start:p.cur().pos])
	}
	if p.accept(tokKeyword, "BUDDY") {
		if _, err := p.expect(tokKeyword, "OF"); err != nil {
			return nil, err
		}
		b, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		s.BuddyOf = b.text
	}
	return s, nil
}

func (p *parser) parseInsert() (Statement, error) {
	p.next() // INSERT
	if _, err := p.expect(tokKeyword, "INTO"); err != nil {
		return nil, err
	}
	tbl, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	s := &InsertStmt{Table: tbl.text}
	if p.accept(tokSymbol, "(") {
		for {
			cn, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			s.Cols = append(s.Cols, cn.text)
			if !p.accept(tokSymbol, ",") {
				break
			}
		}
		if _, err := p.expect(tokSymbol, ")"); err != nil {
			return nil, err
		}
	}
	if _, err := p.expect(tokKeyword, "VALUES"); err != nil {
		return nil, err
	}
	for {
		if _, err := p.expect(tokSymbol, "("); err != nil {
			return nil, err
		}
		var row []AstExpr
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			row = append(row, e)
			if !p.accept(tokSymbol, ",") {
				break
			}
		}
		if _, err := p.expect(tokSymbol, ")"); err != nil {
			return nil, err
		}
		s.Rows = append(s.Rows, row)
		if !p.accept(tokSymbol, ",") {
			break
		}
	}
	return s, nil
}

func (p *parser) parseDelete() (Statement, error) {
	p.next() // DELETE
	if _, err := p.expect(tokKeyword, "FROM"); err != nil {
		return nil, err
	}
	tbl, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	s := &DeleteStmt{Table: tbl.text}
	if p.accept(tokKeyword, "WHERE") {
		if s.Where, err = p.parseExpr(); err != nil {
			return nil, err
		}
	}
	return s, nil
}

func (p *parser) parseUpdate() (Statement, error) {
	p.next() // UPDATE
	tbl, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokKeyword, "SET"); err != nil {
		return nil, err
	}
	s := &UpdateStmt{Table: tbl.text, Set: map[string]AstExpr{}}
	for {
		cn, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokSymbol, "="); err != nil {
			return nil, err
		}
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		s.Set[cn.text] = e
		s.Cols = append(s.Cols, cn.text)
		if !p.accept(tokSymbol, ",") {
			break
		}
	}
	if p.accept(tokKeyword, "WHERE") {
		if s.Where, err = p.parseExpr(); err != nil {
			return nil, err
		}
	}
	return s, nil
}

func (p *parser) parseDrop() (Statement, error) {
	p.next() // DROP
	switch {
	case p.accept(tokKeyword, "TABLE"):
		n, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		return &DropStmt{Kind: "TABLE", Name: n.text}, nil
	case p.accept(tokKeyword, "PROJECTION"):
		n, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		return &DropStmt{Kind: "PROJECTION", Name: n.text}, nil
	case p.accept(tokKeyword, "PARTITION"):
		n, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		k, err := p.expect(tokString, "")
		if err != nil {
			return nil, err
		}
		return &DropStmt{Kind: "PARTITION", Name: n.text, Key: k.text}, nil
	case p.at(tokIdent, "resource"):
		if err := p.expectResourcePool(); err != nil {
			return nil, err
		}
		n, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		return &DropStmt{Kind: "RESOURCE POOL", Name: n.text}, nil
	default:
		return nil, p.errHere("expected TABLE, PROJECTION, PARTITION or RESOURCE POOL after DROP")
	}
}
