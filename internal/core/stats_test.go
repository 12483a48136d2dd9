package core

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/resmgr"
	"repro/internal/stats"
)

// setupTwoProjections creates a table whose two projections lead with
// different columns, plus data where a region predicate is far more
// selective than an id range.
func setupTwoProjections(t testing.TB, db *Database) {
	t.Helper()
	db.MustExecute(`CREATE TABLE sales (id INT, region INT, price FLOAT)`)
	db.MustExecute(`CREATE PROJECTION sales_by_id ON sales (id, region, price) ORDER BY id`)
	db.MustExecute(`CREATE PROJECTION sales_by_region ON sales (id, region, price) ORDER BY region`)
	var sb strings.Builder
	sb.WriteString(`INSERT INTO sales VALUES `)
	for i := 1; i <= 40; i++ {
		if i > 1 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "(%d, %d, %d.5)", i, i%5, i)
	}
	db.MustExecute(sb.String())
}

const flipQuery = `EXPLAIN SELECT price FROM sales WHERE id > 4 AND region = 3`

// TestAnalyzeFlipsProjectionChoice is the acceptance scenario: after
// ANALYZE_STATISTICS the planner prefers the projection led by the more
// selective predicate column.
func TestAnalyzeFlipsProjectionChoice(t *testing.T) {
	db := openGovernedDB(t, 1, 64<<20, 8)
	setupTwoProjections(t, db)
	before := db.MustExecute(flipQuery).Explain.String()
	if !strings.Contains(before, "Scan sales_by_id") || !strings.Contains(before, "heuristic") {
		t.Fatalf("unanalyzed plan should use the shape heuristics on sales_by_id:\n%s", before)
	}
	res := db.MustExecute(`ANALYZE_STATISTICS('sales')`)
	if res.RowsAffected != 40 {
		t.Fatalf("analyze scanned %d rows, want 40", res.RowsAffected)
	}
	after := db.MustExecute(flipQuery).Explain.String()
	if !strings.Contains(after, "Scan sales_by_region") || !strings.Contains(after, "histogram") {
		t.Fatalf("analyzed plan should pick sales_by_region via histograms:\n%s", after)
	}
}

// TestStatsSurviveReload closes the acceptance loop: statistics persist in
// the catalog and a reopened database plans with them immediately.
func TestStatsSurviveReload(t *testing.T) {
	dir, tmp := t.TempDir(), t.TempDir()
	opts := Options{Dir: dir, TempDir: tmp, MemPoolBytes: 64 << 20}
	db, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	setupTwoProjections(t, db)
	db.MustExecute(`ANALYZE_STATISTICS('sales')`)
	// Move WOS rows into ROS containers so the data (not just the catalog)
	// survives the reopen.
	if _, _, err := db.RunTupleMover(); err != nil {
		t.Fatal(err)
	}

	db2, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	if db2.Catalog().TableStats("sales") == nil {
		t.Fatal("column statistics lost across reload")
	}
	if cs := db2.Catalog().ColumnStats("sales", "region"); cs == nil || cs.NDV != 5 || cs.Hist == nil {
		t.Fatalf("region stats corrupted across reload: %+v", cs)
	}
	ex := db2.MustExecute(flipQuery).Explain.String()
	if !strings.Contains(ex, "Scan sales_by_region") || !strings.Contains(ex, "histogram") {
		t.Fatalf("reloaded database should plan from persisted statistics:\n%s", ex)
	}
	// Plan-derived grant sizing works off the persisted stats too.
	db2.MustExecute(`SELECT price FROM sales WHERE region = 3`)
	profs := db2.Governor().Profiles()
	last := profs[len(profs)-1]
	if last.GrantBytes != resmgr.MinGrantBytes {
		t.Fatalf("selective stats-backed query got grant %d, want the %d floor",
			last.GrantBytes, int64(resmgr.MinGrantBytes))
	}
}

// TestAnalyzeSingleColumnMerges re-analyzes one column without disturbing
// the others.
func TestAnalyzeSingleColumnMerges(t *testing.T) {
	db := openGovernedDB(t, 1, 64<<20, 8)
	setupTwoProjections(t, db)
	db.MustExecute(`ANALYZE_STATISTICS('sales')`)
	db.MustExecute(`ANALYZE_STATISTICS('sales.price', 4)`)
	price := db.Catalog().ColumnStats("sales", "price")
	if price == nil || len(price.Hist.Buckets) != 4 {
		t.Fatalf("price should have a 4-bucket histogram: %+v", price)
	}
	if id := db.Catalog().ColumnStats("sales", "id"); id == nil || len(id.Hist.Buckets) == 4 {
		t.Fatalf("id stats should be untouched: %+v", id)
	}
}

// TestAnalyzeMultiNode collects statistics across a segmented cluster: the
// scan concatenates every node's rows.
func TestAnalyzeMultiNode(t *testing.T) {
	db := openGovernedDB(t, 3, 64<<20, 8)
	setupSales(t, db, 900)
	res := db.MustExecute(`ANALYZE_STATISTICS('sales')`)
	if res.RowsAffected != 900 {
		t.Fatalf("analyze scanned %d rows, want 900", res.RowsAffected)
	}
	cs := db.Catalog().ColumnStats("sales", "cust")
	if cs == nil || cs.RowCount != 900 || cs.NDV < 9 || cs.NDV > 11 {
		t.Fatalf("cluster-wide stats wrong: %+v", cs)
	}
	// Without a bucket count the statement builds stats.DefaultBuckets.
	if id := db.Catalog().ColumnStats("sales", "sale_id"); id == nil || len(id.Hist.Buckets) != stats.DefaultBuckets {
		t.Fatalf("sale_id histogram should have %d buckets: %+v", stats.DefaultBuckets, id)
	}
}

// TestPoolDefsSurviveReload: CREATE/ALTER RESOURCE POOL definitions persist
// in the catalog and re-register with the governor on open; DROP removes
// the definition.
func TestPoolDefsSurviveReload(t *testing.T) {
	dir, tmp := t.TempDir(), t.TempDir()
	opts := Options{Dir: dir, TempDir: tmp, MemPoolBytes: 64 << 20}
	db, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	db.MustExecute(`CREATE RESOURCE POOL etl MEMORYSIZE '8M' MAXCONCURRENCY 2 PRIORITY -3 RUNTIMECAP 45000`)
	db.MustExecute(`CREATE RESOURCE POOL scratch`)
	db.MustExecute(`ALTER RESOURCE POOL etl PLANNEDCONCURRENCY 2 QUEUETIMEOUT 1500`)
	db.MustExecute(`ALTER RESOURCE POOL general PRIORITY 1`)
	db.MustExecute(`DROP RESOURCE POOL scratch`)

	db2, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	st, ok := db2.Governor().PoolStatus("etl")
	if !ok {
		t.Fatal("etl pool not restored on open")
	}
	if cfg := st.Config; cfg.MemBytes != 8<<20 || cfg.MaxConcurrency != 2 || cfg.Priority != -3 ||
		cfg.RuntimeCap.Milliseconds() != 45000 || cfg.PlannedConcurrency != 2 ||
		cfg.QueueTimeout.Milliseconds() != 1500 {
		t.Fatalf("etl pool restored with wrong knobs: %+v", cfg)
	}
	if gen, _ := db2.Governor().PoolStatus(resmgr.GeneralPool); gen.Priority != 1 {
		t.Fatalf("general pool ALTER not restored: %+v", gen.Config)
	}
	if db2.Governor().HasPool("scratch") {
		t.Fatal("dropped pool resurrected on open")
	}
}

// TestRuntimeCapCancelsRunaway: a statement in a RUNTIMECAP pool is
// cancelled at a batch boundary and releases its slot and memory.
func TestRuntimeCapCancelsRunaway(t *testing.T) {
	db := openGovernedDB(t, 1, 64<<20, 4)
	setupSales(t, db, 60000)
	db.MustExecute(`CREATE RESOURCE POOL capped RUNTIMECAP 1`)
	s := db.NewSession()
	defer s.Close()
	if _, err := s.Execute(`SET RESOURCE POOL capped`); err != nil {
		t.Fatal(err)
	}
	_, err := s.Execute(`SELECT cust, COUNT(*) AS n, SUM(price) AS s FROM sales GROUP BY cust ORDER BY s`)
	if err == nil {
		t.Skip("query finished inside a 1ms runtime cap; machine too fast for this test")
	}
	if !strings.Contains(err.Error(), "runtime cap") {
		t.Fatalf("expected a runtime-cap error, got: %v", err)
	}
	st := db.Governor().Stats()
	if st.Running != 0 || st.InUseBytes != 0 {
		t.Fatalf("cancelled statement did not release its grant: %+v", st)
	}
	// The pool is usable again afterwards.
	db.MustExecute(`ALTER RESOURCE POOL capped RUNTIMECAP NONE`)
	if _, err := s.Execute(`SELECT COUNT(*) AS n FROM sales`); err != nil {
		t.Fatalf("pool unusable after runtime-cap cancellation: %v", err)
	}
}

// TestPartialAnalyzeFallsBackToHeuristics: a predicate on a column without
// statistics must not masquerade as histogram-backed (and must not size
// memory grants).
func TestPartialAnalyzeFallsBackToHeuristics(t *testing.T) {
	db := openGovernedDB(t, 1, 64<<20, 8)
	setupTwoProjections(t, db)
	db.MustExecute(`ANALYZE_STATISTICS('sales.id')`)
	ex := db.MustExecute(`EXPLAIN SELECT price FROM sales WHERE region = 3`).Explain.String()
	if !strings.Contains(ex, "heuristic") || strings.Contains(ex, "(histogram)") {
		t.Fatalf("partially analyzed table must report heuristic estimates:\n%s", ex)
	}
	db.MustExecute(`SELECT price FROM sales WHERE region = 3`)
	profs := db.Governor().Profiles()
	if g := profs[len(profs)-1].GrantBytes; g != 64<<20/8 {
		t.Fatalf("blended estimate sized the grant (%d); want the static split %d", g, 64<<20/8)
	}
}

// TestPlanFailureLeavesProfile: statements that fail before admission
// (planning/placement errors) still land in v_monitor.query_profiles.
func TestPlanFailureLeavesProfile(t *testing.T) {
	db := openGovernedDB(t, 3, 64<<20, 8)
	db.MustExecute(`CREATE TABLE f (fk INT, v INT)`)
	db.MustExecute(`CREATE PROJECTION f_super ON f (fk, v) ORDER BY fk SEGMENTED BY HASH(fk)`)
	db.MustExecute(`CREATE TABLE d (dk INT, w INT)`)
	db.MustExecute(`CREATE PROJECTION d_super ON d (dk, w) ORDER BY dk SEGMENTED BY HASH(w)`)
	stmt := `SELECT v, w FROM f JOIN d ON fk = dk`
	if _, err := db.Execute(stmt); err == nil {
		t.Fatal("expected a placement error for non-co-located projections")
	}
	res := db.MustExecute(`SELECT statement, status FROM v_monitor.query_profiles WHERE status = 'error'`)
	found := false
	for _, r := range res.Rows {
		if r[0].S == stmt {
			found = true
		}
	}
	if !found {
		t.Fatalf("placement failure missing from query_profiles: %v", res.Rows)
	}
}
