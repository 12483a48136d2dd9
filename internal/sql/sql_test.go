package sql

import (
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/exec"
	"repro/internal/expr"
	"repro/internal/types"
)

func parseSelect(t *testing.T, src string) *SelectStmt {
	t.Helper()
	stmt, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse(%q): %v", src, err)
	}
	s, ok := stmt.(*SelectStmt)
	if !ok {
		t.Fatalf("Parse(%q) = %T, want SelectStmt", src, stmt)
	}
	return s
}

func TestParseSimpleSelect(t *testing.T) {
	s := parseSelect(t, `SELECT a, b AS bee FROM t WHERE a > 5 ORDER BY a DESC LIMIT 10 OFFSET 2`)
	if len(s.Items) != 2 || s.Items[1].Name != "bee" {
		t.Errorf("items = %+v", s.Items)
	}
	if len(s.From) != 1 || s.From[0].Table != "t" {
		t.Errorf("from = %+v", s.From)
	}
	if s.Where == nil || s.Limit != 10 || s.Offset != 2 {
		t.Error("where/limit/offset wrong")
	}
	if len(s.OrderBy) != 1 || !s.OrderBy[0].Desc {
		t.Error("order by wrong")
	}
}

func TestParseExplainAndProfile(t *testing.T) {
	s := parseSelect(t, `EXPLAIN SELECT a FROM t`)
	if !s.Explain || s.Profile {
		t.Errorf("EXPLAIN: explain=%v profile=%v", s.Explain, s.Profile)
	}
	s = parseSelect(t, `PROFILE SELECT a FROM t WHERE a > 5`)
	if !s.Profile || s.Explain {
		t.Errorf("PROFILE: explain=%v profile=%v", s.Explain, s.Profile)
	}
	for _, bad := range []string{`PROFILE`, `PROFILE INSERT INTO t VALUES (1)`} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", bad)
		}
	}
}

func TestParseJoins(t *testing.T) {
	s := parseSelect(t, `SELECT * FROM a JOIN b ON a.x = b.y LEFT JOIN c ON a.x = c.z`)
	if len(s.From) != 3 {
		t.Fatalf("from = %d", len(s.From))
	}
	if s.From[1].JoinType != "INNER" || s.From[2].JoinType != "LEFT" {
		t.Errorf("join types = %s, %s", s.From[1].JoinType, s.From[2].JoinType)
	}
	if s.From[1].On == nil || s.From[2].On == nil {
		t.Error("missing ON clauses")
	}
}

func TestParseAggregates(t *testing.T) {
	s := parseSelect(t, `SELECT cust, COUNT(*), SUM(price), COUNT(DISTINCT sku)
		FROM sales GROUP BY cust HAVING COUNT(*) > 3`)
	if len(s.GroupBy) != 1 || s.Having == nil {
		t.Error("group by / having wrong")
	}
	agg, ok := s.Items[3].Expr.(*AAgg)
	if !ok || !agg.Distinct {
		t.Errorf("COUNT DISTINCT parsed as %+v", s.Items[3].Expr)
	}
}

func TestParseExpressions(t *testing.T) {
	for _, src := range []string{
		`SELECT a + b * 2 FROM t`,
		`SELECT -a FROM t`,
		`SELECT a FROM t WHERE a BETWEEN 1 AND 10`,
		`SELECT a FROM t WHERE a IN (1, 2, 3) AND b NOT IN ('x')`,
		`SELECT a FROM t WHERE a IS NOT NULL OR NOT b = 2`,
		`SELECT CASE WHEN a > 0 THEN 'pos' ELSE 'neg' END FROM t`,
		`SELECT a FROM t WHERE ts > TIMESTAMP '2012-08-27 09:00:00'`,
		`SELECT a FROM t WHERE ts = DATE '2012-08-27'`,
		`SELECT HASH(a, b) FROM t`,
		`SELECT a FROM t WHERE s = 'it''s quoted'`,
		`SELECT "Quoted" FROM t -- comment
		 LIMIT 1`,
		`SELECT a /* block comment */ FROM t`,
	} {
		if _, err := Parse(src); err != nil {
			t.Errorf("Parse(%q): %v", src, err)
		}
	}
}

func TestParseErrors(t *testing.T) {
	for _, src := range []string{
		``, `SELECT`, `SELECT FROM t`, `SELECT a FROM`, `SELECT a t WHERE`,
		`SELECT a FROM t WHERE`, `CREATE NONSENSE x`, `SELECT a FROM t GROUP a`,
		`SELECT a FROM t LIMIT 'x'`, `INSERT INTO t`, `SELECT 'unterminated FROM t`,
		`SELECT a FROM t; SELECT b FROM t`,
	} {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) should fail", src)
		}
	}
}

func TestParseCreateTable(t *testing.T) {
	stmt, err := Parse(`CREATE TABLE sales (
		sale_id INT NOT NULL, date TIMESTAMP, cust VARCHAR(64), price FLOAT
	) PARTITION BY EXTRACT_MONTH(date)`)
	if err != nil {
		t.Fatal(err)
	}
	ct := stmt.(*CreateTableStmt)
	if ct.Name != "sales" || len(ct.Cols) != 4 {
		t.Fatalf("create table = %+v", ct)
	}
	if !ct.Cols[0].NotNull || ct.Cols[0].Typ != types.Int64 {
		t.Error("NOT NULL / type wrong")
	}
	if ct.Cols[2].Typ != types.Varchar {
		t.Error("varchar(64) should parse")
	}
	if !strings.Contains(ct.PartitionText, "EXTRACT_MONTH") {
		t.Errorf("partition text = %q", ct.PartitionText)
	}
}

func TestParseCreateProjection(t *testing.T) {
	stmt, err := Parse(`CREATE PROJECTION p1 ON sales (date, cust, price)
		ORDER BY date, cust SEGMENTED BY HASH(sale_id, cust)`)
	if err != nil {
		t.Fatal(err)
	}
	cp := stmt.(*CreateProjectionStmt)
	if cp.Name != "p1" || cp.Table != "sales" || len(cp.Columns) != 3 {
		t.Fatalf("%+v", cp)
	}
	if len(cp.SortOrder) != 2 || len(cp.SegCols) != 2 {
		t.Errorf("sort=%v seg=%v", cp.SortOrder, cp.SegCols)
	}
	if !strings.HasPrefix(cp.SegText, "HASH") {
		t.Errorf("seg text = %q", cp.SegText)
	}
	stmt, err = Parse(`CREATE PROJECTION p2 ON dim (id, name) ORDER BY id REPLICATED`)
	if err != nil {
		t.Fatal(err)
	}
	if !stmt.(*CreateProjectionStmt).Replicated {
		t.Error("replicated flag lost")
	}
	stmt, err = Parse(`CREATE PROJECTION p1_b1 ON sales (date) ORDER BY date
		SEGMENTED BY HASH(date) BUDDY OF p1`)
	if err != nil {
		t.Fatal(err)
	}
	if stmt.(*CreateProjectionStmt).BuddyOf != "p1" {
		t.Error("buddy clause lost")
	}
	if _, err := Parse(`CREATE PROJECTION bad ON fact (id, dim.region)`); err == nil || !strings.Contains(err.Error(), "dim.region") {
		t.Errorf("another table's column: err = %v, want one naming dim.region", err)
	}
}

func TestParseDML(t *testing.T) {
	stmt, err := Parse(`INSERT INTO t (a, b) VALUES (1, 'x'), (2, NULL)`)
	if err != nil {
		t.Fatal(err)
	}
	ins := stmt.(*InsertStmt)
	if len(ins.Rows) != 2 || len(ins.Cols) != 2 {
		t.Errorf("%+v", ins)
	}
	stmt, err = Parse(`DELETE FROM t WHERE a < 5`)
	if err != nil {
		t.Fatal(err)
	}
	if stmt.(*DeleteStmt).Where == nil {
		t.Error("delete where lost")
	}
	stmt, err = Parse(`UPDATE t SET a = a + 1, b = 'y' WHERE a = 1`)
	if err != nil {
		t.Fatal(err)
	}
	up := stmt.(*UpdateStmt)
	if len(up.Cols) != 2 || up.Where == nil {
		t.Errorf("%+v", up)
	}
	stmt, err = Parse(`DROP PARTITION events '2012-03'`)
	if err != nil {
		t.Fatal(err)
	}
	dp := stmt.(*DropStmt)
	if dp.Kind != "PARTITION" || dp.Key != "2012-03" {
		t.Errorf("%+v", dp)
	}
}

func TestParseTxn(t *testing.T) {
	for _, kw := range []string{"BEGIN", "COMMIT", "ROLLBACK"} {
		stmt, err := Parse(kw)
		if err != nil || stmt.(*TxnStmt).Kind != kw {
			t.Errorf("Parse(%s): %v", kw, err)
		}
	}
}

// --- analyzer ---------------------------------------------------------------

func testCatalog(t *testing.T) *catalog.Catalog {
	t.Helper()
	cat := catalog.New("")
	if err := cat.CreateTable(&catalog.Table{
		Name: "sales",
		Schema: types.NewSchema(
			types.Column{Name: "sale_id", Typ: types.Int64},
			types.Column{Name: "cust", Typ: types.Int64},
			types.Column{Name: "price", Typ: types.Float64},
			types.Column{Name: "ts", Typ: types.Timestamp},
		),
	}); err != nil {
		t.Fatal(err)
	}
	if err := cat.CreateTable(&catalog.Table{
		Name: "customers",
		Schema: types.NewSchema(
			types.Column{Name: "cust_id", Typ: types.Int64},
			types.Column{Name: "name", Typ: types.Varchar},
		),
	}); err != nil {
		t.Fatal(err)
	}
	return cat
}

func analyze(t *testing.T, cat *catalog.Catalog, src string) (*SelectStmt, error) {
	t.Helper()
	s := parseSelect(t, src)
	_, err := AnalyzeSelect(s, cat)
	return s, err
}

func TestAnalyzePlainSelect(t *testing.T) {
	cat := testCatalog(t)
	s := parseSelect(t, `SELECT sale_id, price * 2 AS dbl FROM sales WHERE cust = 7`)
	q, err := AnalyzeSelect(s, cat)
	if err != nil {
		t.Fatal(err)
	}
	if q.IsAggregate() {
		t.Error("should not be aggregate")
	}
	if len(q.SelectExprs) != 2 || q.SelectNames[1] != "dbl" {
		t.Errorf("select = %v names %v", q.SelectExprs, q.SelectNames)
	}
	if q.Where == nil {
		t.Error("where lost")
	}
}

func TestAnalyzeStar(t *testing.T) {
	cat := testCatalog(t)
	s := parseSelect(t, `SELECT * FROM sales`)
	q, err := AnalyzeSelect(s, cat)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.SelectExprs) != 4 {
		t.Errorf("star expansion = %d cols", len(q.SelectExprs))
	}
}

func TestAnalyzeAggregateRewrite(t *testing.T) {
	cat := testCatalog(t)
	s := parseSelect(t, `SELECT cust, COUNT(*) AS n, SUM(price) + 1 AS s1
		FROM sales GROUP BY cust HAVING COUNT(*) > 2 ORDER BY n DESC`)
	q, err := AnalyzeSelect(s, cat)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.GroupBy) != 1 || len(q.Aggs) != 2 {
		t.Fatalf("keys=%d aggs=%d", len(q.GroupBy), len(q.Aggs))
	}
	if q.PostProject == nil {
		t.Error("SUM(price)+1 requires a post projection")
	}
	if q.Having == nil {
		t.Error("having lost")
	}
	if len(q.OrderBy) != 1 || !q.OrderBy[0].Desc {
		t.Error("order by alias failed")
	}
}

func TestAnalyzeAggregateDedup(t *testing.T) {
	cat := testCatalog(t)
	s := parseSelect(t, `SELECT COUNT(*), COUNT(*) + 1 FROM sales`)
	q, err := AnalyzeSelect(s, cat)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Aggs) != 1 {
		t.Errorf("COUNT(*) should be deduplicated: %d aggs", len(q.Aggs))
	}
}

func TestAnalyzeJoinConds(t *testing.T) {
	cat := testCatalog(t)
	s := parseSelect(t, `SELECT name FROM sales JOIN customers ON cust = cust_id WHERE price > 10`)
	q, err := AnalyzeSelect(s, cat)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.JoinConds) != 1 {
		t.Fatalf("join conds = %d", len(q.JoinConds))
	}
	jc := q.JoinConds[0]
	if jc.Type != exec.InnerJoin {
		t.Error("join type wrong")
	}
	// Comma join moves the equality from WHERE into join conds.
	s2 := parseSelect(t, `SELECT name FROM sales, customers WHERE cust = cust_id`)
	q2, err := AnalyzeSelect(s2, cat)
	if err != nil {
		t.Fatal(err)
	}
	if len(q2.JoinConds) != 1 || q2.Where != nil {
		t.Errorf("comma join: conds=%d where=%v", len(q2.JoinConds), q2.Where)
	}
}

func TestAnalyzeErrors(t *testing.T) {
	cat := testCatalog(t)
	cases := []string{
		`SELECT nosuch FROM sales`,
		`SELECT sale_id FROM nosuch`,
		`SELECT price FROM sales GROUP BY cust`, // price not grouped
		`SELECT cust, COUNT(*) FROM sales GROUP BY cust ORDER BY nosuch`,
		`SELECT * FROM sales GROUP BY cust`,    // star in aggregate
		`SELECT cust_id FROM sales, customers`, // no join condition is
		// fine at analysis; failure happens in the planner — so not here.
	}
	for _, src := range cases[:5] {
		if _, err := analyze(t, cat, src); err == nil {
			t.Errorf("AnalyzeSelect(%q) should fail", src)
		}
	}
}

func TestAnalyzeAmbiguousColumn(t *testing.T) {
	cat := catalog.New("")
	cat.CreateTable(&catalog.Table{Name: "a", Schema: types.NewSchema(types.Column{Name: "x", Typ: types.Int64})})
	cat.CreateTable(&catalog.Table{Name: "b", Schema: types.NewSchema(types.Column{Name: "x", Typ: types.Int64})})
	s := parseSelect(t, `SELECT x FROM a JOIN b ON a.x = b.x`)
	if _, err := AnalyzeSelect(s, cat); err == nil || !strings.Contains(err.Error(), "ambiguous") {
		t.Errorf("ambiguity not detected: %v", err)
	}
}

func TestTimestampCoercion(t *testing.T) {
	cat := testCatalog(t)
	s := parseSelect(t, `SELECT sale_id FROM sales WHERE ts > '2012-01-01'`)
	q, err := AnalyzeSelect(s, cat)
	if err != nil {
		t.Fatal(err)
	}
	cmp, ok := q.Where.(*expr.Cmp)
	if !ok {
		t.Fatalf("where = %T", q.Where)
	}
	if c, ok := cmp.R.(*expr.Const); !ok || c.Val.Typ != types.Timestamp {
		t.Errorf("string literal not coerced to timestamp: %v", cmp.R)
	}
}

func TestBindScalarExpr(t *testing.T) {
	schema := types.NewSchema(
		types.Column{Name: "ts", Typ: types.Timestamp},
		types.Column{Name: "id", Typ: types.Int64},
	)
	e, err := BindScalarExpr(`HASH(id)`, schema)
	if err != nil {
		t.Fatal(err)
	}
	v, err := e.EvalRow(types.Row{types.NewTimestampMicros(0), types.NewInt(5)})
	if err != nil || v.Typ != types.Int64 {
		t.Errorf("HASH eval: %v %v", v, err)
	}
	e2, err := BindScalarExpr(`EXTRACT_MONTH(ts)`, schema)
	if err != nil {
		t.Fatal(err)
	}
	if e2.Type() != types.Int64 {
		t.Error("EXTRACT_MONTH type wrong")
	}
	if _, err := BindScalarExpr(`nosuch + 1`, schema); err == nil {
		t.Error("unknown column should fail")
	}
}

func TestOrderByPosition(t *testing.T) {
	cat := testCatalog(t)
	s := parseSelect(t, `SELECT cust, price FROM sales ORDER BY 2 DESC, 1`)
	q, err := AnalyzeSelect(s, cat)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.OrderBy) != 2 || q.OrderBy[0].Col != 1 || !q.OrderBy[0].Desc || q.OrderBy[1].Col != 0 {
		t.Errorf("order by = %+v", q.OrderBy)
	}
	s2 := parseSelect(t, `SELECT cust FROM sales ORDER BY 5`)
	if _, err := AnalyzeSelect(s2, cat); err == nil {
		t.Error("out-of-range position should fail")
	}
}

func TestParseResourcePoolDDL(t *testing.T) {
	stmt, err := Parse(`CREATE RESOURCE POOL etl MEMORYSIZE '64M' MAXMEMORYSIZE 134217728
		PLANNEDCONCURRENCY 4 MAXCONCURRENCY 2 QUEUETIMEOUT 250`)
	if err != nil {
		t.Fatal(err)
	}
	cp, ok := stmt.(*CreatePoolStmt)
	if !ok || cp.Name != "etl" {
		t.Fatalf("parsed %T %+v", stmt, stmt)
	}
	if *cp.Opts.MemBytes != 64<<20 || *cp.Opts.MaxMemBytes != 128<<20 ||
		*cp.Opts.PlannedConcurrency != 4 || *cp.Opts.MaxConcurrency != 2 ||
		*cp.Opts.QueueTimeoutMS != 250 {
		t.Fatalf("opts = %+v", cp.Opts)
	}

	stmt, err = Parse(`ALTER RESOURCE POOL etl QUEUETIMEOUT NONE`)
	if err != nil {
		t.Fatal(err)
	}
	ap := stmt.(*AlterPoolStmt)
	if ap.Name != "etl" || *ap.Opts.QueueTimeoutMS != -1 || ap.Opts.MemBytes != nil {
		t.Fatalf("alter opts = %+v", ap.Opts)
	}

	stmt, err = Parse(`SET RESOURCE POOL interactive`)
	if err != nil {
		t.Fatal(err)
	}
	if st := stmt.(*SetStmt); st.Pool != "interactive" {
		t.Fatalf("set = %+v", st)
	}

	stmt, err = Parse(`DROP RESOURCE POOL etl`)
	if err != nil {
		t.Fatal(err)
	}
	if ds := stmt.(*DropStmt); ds.Kind != "RESOURCE POOL" || ds.Name != "etl" {
		t.Fatalf("drop = %+v", ds)
	}

	for _, bad := range []string{
		`CREATE RESOURCE etl`,
		`CREATE RESOURCE POOL`,
		`CREATE RESOURCE POOL p NOSUCHOPT 1`,
		`CREATE RESOURCE POOL p MEMORYSIZE 'abcM'`,
		`CREATE RESOURCE POOL p MAXCONCURRENCY 0`,
		`CREATE RESOURCE POOL p PLANNEDCONCURRENCY 0`,
		`ALTER RESOURCE POOL p QUEUETIMEOUT 0`,
		`ALTER RESOURCE POOL`,
		`SET RESOURCE GROUP x`,
		`SET POOL x`,
	} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("expected parse error for %q", bad)
		}
	}
}

func TestParseQualifiedTableRef(t *testing.T) {
	stmt, err := Parse(`SELECT name FROM v_monitor.resource_pools rp WHERE rp.name = 'general'`)
	if err != nil {
		t.Fatal(err)
	}
	s := stmt.(*SelectStmt)
	if s.From[0].Table != "v_monitor.resource_pools" || s.From[0].Alias != "rp" {
		t.Fatalf("from = %+v", s.From[0])
	}
	stmt, err = Parse(`SELECT pool FROM v_monitor.query_profiles`)
	if err != nil {
		t.Fatal(err)
	}
	s = stmt.(*SelectStmt)
	if s.From[0].Table != "v_monitor.query_profiles" || s.From[0].Alias != "query_profiles" {
		t.Fatalf("from = %+v", s.From[0])
	}
}

func TestParseByteSize(t *testing.T) {
	cases := map[string]int64{
		"123": 123, "64K": 64 << 10, "10m": 10 << 20, "1G": 1 << 30, " 2 K ": 2 << 10,
		"256MB": 256 << 20, "1gb": 1 << 30, "512B": 512, "64kb": 64 << 10,
	}
	for in, want := range cases {
		got, err := ParseByteSize(in)
		if err != nil || got != want {
			t.Errorf("ParseByteSize(%q) = %d, %v; want %d", in, got, err, want)
		}
	}
	for _, bad := range []string{"", "K", "x12", "12X3"} {
		if _, err := ParseByteSize(bad); err == nil {
			t.Errorf("ParseByteSize(%q) should fail", bad)
		}
	}
}

func TestParseAnalyzeStatistics(t *testing.T) {
	st, err := Parse(`ANALYZE_STATISTICS('Sales')`)
	if err != nil {
		t.Fatal(err)
	}
	a, ok := st.(*AnalyzeStmt)
	if !ok || a.Target != "sales" {
		t.Fatalf("parsed %+v", st)
	}
	st, err = Parse(`analyze_statistics('sales.price');`)
	if err != nil {
		t.Fatal(err)
	}
	a = st.(*AnalyzeStmt)
	if a.Target != "sales.price" {
		t.Fatalf("parsed %+v", a)
	}
	for _, bad := range []string{
		`ANALYZE_STATISTICS()`,
		`ANALYZE_STATISTICS('')`,
		`ANALYZE_STATISTICS(sales)`,
		`ANALYZE_STATISTICS('sales', 64)`,
		`ANALYZE_STATISTICS('sales'`,
	} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("expected parse error for %q", bad)
		}
	}
}

func TestParsePoolPriorityAndRuntimeCap(t *testing.T) {
	st, err := Parse(`CREATE RESOURCE POOL rt PRIORITY 10 RUNTIMECAP 5000`)
	if err != nil {
		t.Fatal(err)
	}
	c := st.(*CreatePoolStmt)
	if c.Opts.Priority == nil || *c.Opts.Priority != 10 {
		t.Fatalf("priority: %+v", c.Opts)
	}
	if c.Opts.RuntimeCapMS == nil || *c.Opts.RuntimeCapMS != 5000 {
		t.Fatalf("runtimecap: %+v", c.Opts)
	}
	st, err = Parse(`ALTER RESOURCE POOL rt PRIORITY -3 RUNTIMECAP NONE`)
	if err != nil {
		t.Fatal(err)
	}
	a := st.(*AlterPoolStmt)
	if a.Opts.Priority == nil || *a.Opts.Priority != -3 {
		t.Fatalf("negative priority: %+v", a.Opts)
	}
	if a.Opts.RuntimeCapMS == nil || *a.Opts.RuntimeCapMS != 0 {
		t.Fatalf("RUNTIMECAP NONE should parse as 0: %+v", a.Opts)
	}
	for _, bad := range []string{
		`CREATE RESOURCE POOL p RUNTIMECAP 0`,
		`CREATE RESOURCE POOL p RUNTIMECAP -5`,
		`CREATE RESOURCE POOL p PRIORITY`,
	} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("expected parse error for %q", bad)
		}
	}
}
