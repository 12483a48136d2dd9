package sql

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/types"
)

// fingerprintCorpus exercises every expression form Fingerprint renders.
var fingerprintCorpus = []string{
	`SELECT a, b AS bee FROM t WHERE a > 5 ORDER BY a DESC LIMIT 10 OFFSET 2`,
	`SELECT DISTINCT b FROM t WHERE NOT (a = 3) AND c IS NULL OR d IS NOT NULL`,
	`SELECT * FROM t WHERE a IN (1, 2, 3) AND b NOT IN ('x', 'y')`,
	`SELECT a, COUNT(*), SUM(b + 1.5), COUNT(DISTINCT c) FROM t GROUP BY a HAVING SUM(b) > 100`,
	`SELECT s.a, c.name FROM t s JOIN custs c ON s.cust = c.cust WHERE s.a BETWEEN 3 AND 9`,
	`SELECT a FROM t LEFT JOIN u ON t.k = u.k WHERE u.v = 'z' ORDER BY 1`,
	`SELECT CASE WHEN a > 1 THEN 'big' WHEN a < -1 THEN 'neg' ELSE 'small' END AS c FROM t`,
	`SELECT HASH(a), EXTRACT_MONTH(ts) FROM t WHERE ts >= '2012-08-27'`,
	`EXPLAIN SELECT a FROM t WHERE a * 2 - 1 <> 7`,
	`PROFILE SELECT a, b, c FROM t, u WHERE t.a = u.a AND t.b % 3 = 1`,
}

// parameterize returns a copy of the statement with its i-th literal
// replaced by $i, and the literals in that order.
func parameterize(st Statement) (Statement, []types.Value) {
	var args []types.Value
	body := copyStatement(st, func(a AstExpr) AstExpr {
		lit, ok := a.(*ALit)
		if !ok {
			return nil
		}
		args = append(args, lit.Val)
		return &AParam{N: len(args)}
	})
	return body, args
}

// TestFingerprintSubstituteFixedPoint is the round-trip property the plan
// cache relies on: parse → fingerprint → substitute the literals back into
// the parameterized statement → fingerprint gives the same fingerprint and
// literals, and leaves the parsed statement untouched.
func TestFingerprintSubstituteFixedPoint(t *testing.T) {
	for _, src := range fingerprintCorpus {
		st := parseSelect(t, src)
		fp, lits := Fingerprint(st)
		if strings.Count(fp, "?") != len(lits) {
			t.Errorf("%s: %d placeholders for %d literals in %q", src, strings.Count(fp, "?"), len(lits), fp)
		}
		body, args := parameterize(st)
		if n, err := CountParams(body); err != nil || n != len(args) {
			t.Errorf("%s: CountParams = %d, %v; want %d", src, n, err, len(args))
		}
		bodyFP, _ := Fingerprint(body.(*SelectStmt))
		if bodyFP != fp {
			t.Errorf("%s: parameterized fingerprint %q, want %q", src, bodyFP, fp)
		}
		out, err := SubstituteParams(body, args)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		fp2, lits2 := Fingerprint(out.(*SelectStmt))
		if fp2 != fp || !LiteralsEqual(lits2, lits) {
			t.Errorf("%s: not a fixed point:\n  %q %v\n  %q %v", src, fp, lits, fp2, lits2)
		}
		if again, _ := Fingerprint(st); again != fp {
			t.Errorf("%s: substitution changed the parsed statement: %q", src, again)
		}
	}
}

// TestFingerprintIgnoresLiterals is the other half: statements that differ
// only in their literals share a fingerprint — and LiteralsEqual tells them
// apart exactly when a literal differs.
func TestFingerprintIgnoresLiterals(t *testing.T) {
	rng := rand.New(rand.NewSource(20120827))
	lit := func() string {
		switch rng.Intn(4) {
		case 0:
			return fmt.Sprint(rng.Intn(1000) - 500)
		case 1:
			return fmt.Sprintf("%d.5", rng.Intn(100))
		case 2:
			return fmt.Sprintf("'s%d'", rng.Intn(50))
		default:
			return fmt.Sprintf("'2012-%02d-%02d'", 1+rng.Intn(12), 1+rng.Intn(28))
		}
	}
	templates := []string{
		`SELECT a FROM t WHERE a > %s AND b = %s`,
		`SELECT a, SUM(b) FROM t WHERE c IN (%s, %s) GROUP BY a`,
		`SELECT CASE WHEN a = %s THEN %s ELSE 0 END FROM t`,
	}
	for _, tmpl := range templates {
		n := strings.Count(tmpl, "%s")
		for i := 0; i < 50; i++ {
			a, b := make([]any, n), make([]any, n)
			for k := range a {
				a[k], b[k] = lit(), lit()
			}
			sa, sb := fmt.Sprintf(tmpl, a...), fmt.Sprintf(tmpl, b...)
			fa, la := Fingerprint(parseSelect(t, sa))
			fb, lb := Fingerprint(parseSelect(t, sb))
			if fa != fb {
				t.Fatalf("literal-only difference changed the fingerprint:\n  %s -> %q\n  %s -> %q", sa, fa, sb, fb)
			}
			if same := fmt.Sprint(a) == fmt.Sprint(b); LiteralsEqual(la, lb) != same {
				t.Errorf("LiteralsEqual(%v, %v) = %v for %s / %s", la, lb, !same, sa, sb)
			}
		}
	}
	// Shape differences must not share one.
	base, _ := Fingerprint(parseSelect(t, `SELECT a FROM t WHERE a > 1 LIMIT 5`))
	for _, other := range []string{
		`SELECT b FROM t WHERE a > 1 LIMIT 5`,
		`SELECT a FROM t WHERE a >= 1 LIMIT 5`,
		`SELECT a FROM t WHERE a > 1 LIMIT 6`,
		`SELECT a FROM t WHERE a > 1 ORDER BY a DESC LIMIT 5`,
		`SELECT DISTINCT a FROM t WHERE a > 1 LIMIT 5`,
		`EXPLAIN SELECT a FROM t WHERE a > 1 LIMIT 5`,
	} {
		if fp, _ := Fingerprint(parseSelect(t, other)); fp == base {
			t.Errorf("%s shares the fingerprint %q", other, fp)
		}
	}
}

func TestLiteralsEqual(t *testing.T) {
	for _, tc := range []struct {
		a, b []types.Value
		want bool
	}{
		{nil, nil, true},
		{[]types.Value{types.NewInt(1)}, []types.Value{types.NewInt(1)}, true},
		{[]types.Value{types.NewInt(1)}, []types.Value{types.NewInt(2)}, false},
		{[]types.Value{types.NewInt(1)}, []types.Value{types.NewFloat(1)}, false},
		{[]types.Value{types.NewNull(types.Int64)}, []types.Value{types.NewInt(0)}, false},
		{[]types.Value{types.NewString("a")}, []types.Value{types.NewString("a"), types.NewString("b")}, false},
	} {
		if got := LiteralsEqual(tc.a, tc.b); got != tc.want {
			t.Errorf("LiteralsEqual(%v, %v) = %v", tc.a, tc.b, got)
		}
	}
}

// TestPrepareExecuteDeallocateParse covers the three prepared-statement
// parsers, their errors, and that EXECUTE of a prepared body lands on the
// ad-hoc statement's fingerprint.
func TestPrepareExecuteDeallocateParse(t *testing.T) {
	st, err := Parse(`PREPARE q AS SELECT a FROM t WHERE a > $1 AND b = $2`)
	if err != nil {
		t.Fatal(err)
	}
	p, ok := st.(*PrepareStmt)
	if !ok || p.Name != "q" || p.NumParams != 2 {
		t.Fatalf("PREPARE = %#v", st)
	}
	out, err := SubstituteParams(p.Stmt, []types.Value{types.NewInt(7), types.NewString("x")})
	if err != nil {
		t.Fatal(err)
	}
	got, gotLits := Fingerprint(out.(*SelectStmt))
	want, wantLits := Fingerprint(parseSelect(t, `SELECT a FROM t WHERE a > 7 AND b = 'x'`))
	if got != want || !LiteralsEqual(gotLits, wantLits) {
		t.Errorf("EXECUTE body %q %v, ad hoc %q %v", got, gotLits, want, wantLits)
	}
	if _, err := SubstituteParams(p.Stmt, []types.Value{types.NewInt(7)}); err == nil {
		t.Error("a missing $2 must fail")
	}

	for src, want := range map[string]*ExecuteStmt{
		`EXECUTE q`:                {Name: "q"},
		`EXECUTE q ()`:             {Name: "q"},
		`EXECUTE q (1, 'x', -2.5)`: {Name: "q", Args: []types.Value{types.NewInt(1), types.NewString("x"), types.NewFloat(-2.5)}},
	} {
		st, err := Parse(src)
		e, ok := st.(*ExecuteStmt)
		if err != nil || !ok || e.Name != want.Name || !LiteralsEqual(e.Args, want.Args) {
			t.Errorf("%s = %#v, %v", src, st, err)
		}
	}
	for _, src := range []string{`DEALLOCATE q`, `DEALLOCATE PREPARE q`} {
		st, err := Parse(src)
		if d, ok := st.(*DeallocateStmt); err != nil || !ok || d.Name != "q" {
			t.Errorf("%s = %#v, %v", src, st, err)
		}
	}
	for _, bad := range []string{
		`PREPARE q SELECT a FROM t`,                  // no AS
		`PREPARE q AS EXECUTE r`,                     // nesting
		`PREPARE q AS DEALLOCATE r`,                  // nesting
		`PREPARE q AS SELECT a FROM t WHERE a = $2`,  // $1 missing
		`PREPARE AS SELECT a FROM t`,                 // no name
		`EXECUTE q (a)`,                              // not a literal
		`EXECUTE q (1`,                               // unclosed
		`EXECUTE`,                                    // no name
		`DEALLOCATE`,                                 // no name
		`SELECT a FROM t WHERE a = $1 AND b = $1.5x`, // garbage
	} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) succeeded", bad)
		}
	}
}

// TestSubstituteParamsDML substitutes into the other prepare-able statement
// kinds and checks the stored body is left as it was.
func TestSubstituteParamsDML(t *testing.T) {
	args := []types.Value{types.NewInt(4), types.NewString("v")}
	for _, src := range []string{
		`INSERT INTO t VALUES ($1, $2), (5, $2)`,
		`DELETE FROM t WHERE a = $1 OR b = $2`,
		`UPDATE t SET a = $1 + 1, b = $2 WHERE a = 3`,
	} {
		st, err := Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		if n, err := CountParams(st); err != nil || n != 2 {
			t.Errorf("%s: CountParams = %d, %v", src, n, err)
		}
		out, err := SubstituteParams(st, args)
		if err != nil {
			t.Fatal(err)
		}
		if n, _ := CountParams(out); n != 0 {
			t.Errorf("%s: %d parameters left after substitution", src, n)
		}
		if n, _ := CountParams(st); n != 2 {
			t.Errorf("%s: substitution edited the stored body", src)
		}
		var seen []types.Value
		walkStatementExprs(out, func(a AstExpr) {
			if l, ok := a.(*ALit); ok {
				seen = append(seen, l.Val)
			}
		})
		for _, want := range args {
			if !strings.Contains(fmt.Sprint(seen), want.String()) {
				t.Errorf("%s: %v not substituted (literals %v)", src, want, seen)
			}
		}
	}
	// Statements without parameters pass through.
	ct, err := Parse(`CREATE TABLE t (a INT)`)
	if err != nil {
		t.Fatal(err)
	}
	if out, err := SubstituteParams(ct, nil); err != nil || out != ct {
		t.Errorf("CREATE TABLE substituted to %#v, %v", out, err)
	}
}

func TestClassify(t *testing.T) {
	for src, want := range map[string]StatementClass{
		`SELECT a FROM t`:                     ClassSelect,
		`EXPLAIN SELECT a FROM t`:             ClassExplain,
		`PROFILE SELECT a FROM t`:             ClassExplain,
		`EXECUTE q (1)`:                       ClassExecute,
		`INSERT INTO t VALUES (1)`:            ClassOther,
		`PREPARE q AS SELECT a FROM t`:        ClassOther,
		`CREATE TABLE t (a INT)`:              ClassOther,
		`SELEKT nonsense`:                     ClassOther,
		`  select a from t where a = 'x'  `:   ClassSelect,
		`DEALLOCATE PREPARE q`:                ClassOther,
		`SET RESOURCE POOL general`:           ClassOther,
		`EXPLAIN SELECT a FROM t WHERE a = 1`: ClassExplain,
	} {
		if got := Classify(src); got != want {
			t.Errorf("Classify(%q) = %d, want %d", src, got, want)
		}
	}
}

func TestBindHelpers(t *testing.T) {
	tbl, err := testCatalog(t).Table("sales")
	if err != nil {
		t.Fatal(err)
	}
	where := parseSelect(t, `SELECT sale_id FROM sales WHERE price * 2 > 10.5 AND cust = 3`).Where
	e, err := BindExprToTable(where, tbl)
	if err != nil {
		t.Fatal(err)
	}
	row := types.Row{types.NewInt(1), types.NewInt(3), types.NewFloat(6), types.NewTimestampMicros(0)}
	if v, err := e.EvalRow(row); err != nil || v.I != 1 {
		t.Errorf("bound predicate on %v = %v, %v; want true", row, v, err)
	}
	if _, err := BindExprToTable(parseSelect(t, `SELECT a FROM t WHERE nosuch = 1`).Where, tbl); err == nil {
		t.Error("an unknown column must fail to bind")
	}
	lit, err := BindLiteralExpr(parseSelect(t, `SELECT a FROM t WHERE 2 + 3`).Where)
	if err != nil {
		t.Fatal(err)
	}
	if v, err := lit.EvalRow(nil); err != nil || v.I != 5 {
		t.Errorf("2 + 3 = %v, %v", v, err)
	}
	if _, err := BindLiteralExpr(parseSelect(t, `SELECT a FROM t WHERE a + 1`).Where); err == nil {
		t.Error("a column reference must not bind as a literal")
	}
	ts, err := ParseTimestamp("2012-08-27 10:30:00")
	if err != nil || ts.Typ != types.Timestamp {
		t.Errorf("ParseTimestamp = %v, %v", ts, err)
	}
	if _, err := ParseTimestamp("27/08/2012"); err == nil {
		t.Error("a malformed timestamp must fail")
	}
}
