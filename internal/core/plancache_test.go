package core

import (
	"fmt"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/storage"
	"repro/internal/types"
)

// TestPlanCacheHitOnRepeat: the second execution of an identical SELECT is
// an exact cache hit — one entry, hit count advancing, identical results.
func TestPlanCacheHitOnRepeat(t *testing.T) {
	db := openTestDB(t, 1, 0)
	setupSales(t, db, 1_000)
	const q = `SELECT sale_id, price FROM sales WHERE cust = 3 ORDER BY sale_id`

	hits0 := metrics.PlanCacheHits.Value()
	first := db.MustExecute(q)
	if db.plans.Len() != 1 {
		t.Fatalf("entries after miss = %d", db.plans.Len())
	}
	second := db.MustExecute(q)
	if db.plans.Len() != 1 {
		t.Fatalf("entries after hit = %d", db.plans.Len())
	}
	if d := metrics.PlanCacheHits.Value() - hits0; d != 1 {
		t.Fatalf("hit delta = %d", d)
	}
	if len(first.Rows) != len(second.Rows) || len(first.Rows) == 0 {
		t.Fatalf("cached result differs: %d vs %d rows", len(first.Rows), len(second.Rows))
	}
	snap := db.plans.Snapshot()
	if snap[0].Hits != 1 || !strings.Contains(snap[0].Fingerprint, "cust = ?") {
		t.Fatalf("snapshot = %+v", snap[0])
	}
}

// TestPlanCacheShapeHitDifferentLiterals: same statement shape with a
// different constant shares the entry (probe reuse) without inserting a
// second one, and returns the right rows for the new constant.
func TestPlanCacheShapeHitDifferentLiterals(t *testing.T) {
	db := openTestDB(t, 1, 0)
	setupSales(t, db, 1_000)

	r3 := db.MustExecute(`SELECT COUNT(*) FROM sales WHERE cust = 3`)
	r7 := db.MustExecute(`SELECT COUNT(*) FROM sales WHERE cust = 7`)
	if db.plans.Len() != 1 {
		t.Fatalf("entries = %d", db.plans.Len())
	}
	if r3.Rows[0][0].I != 100 || r7.Rows[0][0].I != 100 {
		t.Fatalf("counts = %d, %d", r3.Rows[0][0].I, r7.Rows[0][0].I)
	}
}

// TestPlanCacheSkewedShapeHit: estimates come from predicate shapes, not
// literals, so a shape hit reuses the probe of the first literal even when
// the second selects ten thousand times more rows, and both answers are
// right.
func TestPlanCacheSkewedShapeHit(t *testing.T) {
	db := openTestDB(t, 1, 0)
	db.MustExecute(`CREATE TABLE skew (k INT, v INT)`)
	db.MustExecute(`CREATE PROJECTION skew_super ON skew (k, v) ORDER BY k SEGMENTED BY HASH(k)`)
	rows := make([]types.Row, 0, 10_100)
	for i := 0; i < 10_000; i++ {
		rows = append(rows, types.Row{types.NewInt(1), types.NewInt(int64(i))})
	}
	for i := 0; i < 100; i++ {
		rows = append(rows, types.Row{types.NewInt(int64(1000 + i)), types.NewInt(int64(i))})
	}
	if err := db.Load("skew", rows, false); err != nil {
		t.Fatal(err)
	}
	hits0, misses0 := metrics.PlanCacheHits.Value(), metrics.PlanCacheMisses.Value()
	for _, tc := range []struct{ k, want int64 }{{1042, 1}, {1, 10_000}, {1043, 1}} {
		res := db.MustExecute(fmt.Sprintf(`SELECT COUNT(*) FROM skew WHERE k = %d`, tc.k))
		if got := res.Rows[0][0].I; got != tc.want {
			t.Errorf("k = %d counts %d, want %d", tc.k, got, tc.want)
		}
	}
	if db.plans.Len() != 1 {
		t.Errorf("entries = %d, want 1", db.plans.Len())
	}
	if h, m := metrics.PlanCacheHits.Value()-hits0, metrics.PlanCacheMisses.Value()-misses0; h != 2 || m != 1 {
		t.Errorf("hits %d, misses %d; want 2 and 1", h, m)
	}
}

// TestPlanCacheBypass: EXPLAIN, PROFILE and system-table queries never
// populate the cache.
func TestPlanCacheBypass(t *testing.T) {
	db := openTestDB(t, 1, 0)
	setupSales(t, db, 100)
	db.MustExecute(`EXPLAIN SELECT COUNT(*) FROM sales`)
	db.MustExecute(`PROFILE SELECT COUNT(*) FROM sales`)
	db.MustExecute(`SELECT COUNT(*) FROM v_monitor.resource_pools`)
	if db.plans.Len() != 0 {
		t.Fatalf("bypass statements cached: %d entries", db.plans.Len())
	}
}

// TestPlanCacheInvalidation: DDL and resource-pool changes each retire every
// cached plan by bumping their epoch; ANALYZE_STATISTICS stores nothing and
// retires nothing.
func TestPlanCacheInvalidation(t *testing.T) {
	db := openTestDB(t, 1, 0)
	setupSales(t, db, 1_000)
	const q = `SELECT COUNT(*) FROM sales WHERE cust = 3`
	fill := func() {
		t.Helper()
		db.MustExecute(q)
		if db.plans.Len() != 1 {
			t.Fatalf("entries = %d", db.plans.Len())
		}
	}

	inv0 := metrics.PlanCacheInvalidations.Value()
	fill()
	db.MustExecute(`CREATE TABLE other (a INT)`) // catalog generation bump
	if db.plans.Len() != 0 {
		t.Fatal("DDL did not sweep the cache")
	}
	fill()
	db.MustExecute(`ANALYZE_STATISTICS('sales')`)
	if db.plans.Len() != 1 {
		t.Fatal("ANALYZE swept the cache")
	}
	fill()
	db.MustExecute(`CREATE RESOURCE POOL p1 MEMORYSIZE '1M'`) // pool epoch bump
	if db.plans.Len() != 0 {
		t.Fatal("CREATE RESOURCE POOL did not sweep the cache")
	}
	fill()
	db.MustExecute(`ALTER RESOURCE POOL p1 PARALLELISM 2`)
	if db.plans.Len() != 0 {
		t.Fatal("ALTER RESOURCE POOL did not sweep the cache")
	}
	fill()
	db.MustExecute(`DROP RESOURCE POOL p1`)
	if db.plans.Len() != 0 {
		t.Fatal("DROP RESOURCE POOL did not sweep the cache")
	}
	if metrics.PlanCacheInvalidations.Value()-inv0 < 4 {
		t.Fatalf("invalidation counter delta = %d", metrics.PlanCacheInvalidations.Value()-inv0)
	}
	// The statement still runs (and re-caches) after all that churn.
	fill()
}

// TestPlanCacheDisabled: PlanCacheSize < 0 turns the cache off entirely.
func TestPlanCacheDisabled(t *testing.T) {
	db, err := Open(Options{Dir: t.TempDir(), PlanCacheSize: -1})
	if err != nil {
		t.Fatal(err)
	}
	setupSales(t, db, 100)
	db.MustExecute(`SELECT COUNT(*) FROM sales`)
	db.MustExecute(`SELECT COUNT(*) FROM sales`)
	if db.plans != nil {
		t.Fatal("plan cache allocated despite PlanCacheSize = -1")
	}
}

// TestPreparedStatementsShareCacheWithAdHoc: EXECUTE flows through the same
// plan cache as the equivalent ad-hoc SELECT — one entry serves both.
func TestPreparedStatementsShareCacheWithAdHoc(t *testing.T) {
	db := openTestDB(t, 1, 0)
	setupSales(t, db, 1_000)
	s := db.NewSession()
	defer s.Close()

	if _, err := s.Execute(`PREPARE q AS SELECT COUNT(*) FROM sales WHERE cust = $1`); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Execute(`EXECUTE q(3)`); err != nil {
		t.Fatal(err)
	}
	if db.plans.Len() != 1 {
		t.Fatalf("entries after EXECUTE = %d", db.plans.Len())
	}
	hits0 := metrics.PlanCacheHits.Value()
	res, err := s.Execute(`SELECT COUNT(*) FROM sales WHERE cust = 3`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].I != 100 {
		t.Fatalf("count = %d", res.Rows[0][0].I)
	}
	if db.plans.Len() != 1 || metrics.PlanCacheHits.Value()-hits0 != 1 {
		t.Fatalf("ad-hoc twin missed the prepared entry (entries=%d)", db.plans.Len())
	}
}

// TestPreparedStatementLifecycleErrors covers the session-level error
// surface: duplicate names, unknown names, arity mismatches, gap-numbered
// parameters and parameters outside PREPARE.
func TestPreparedStatementLifecycleErrors(t *testing.T) {
	db := openTestDB(t, 1, 0)
	setupSales(t, db, 100)
	s := db.NewSession()
	defer s.Close()

	mustFail := func(sqlText, want string) {
		t.Helper()
		_, err := s.Execute(sqlText)
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("%s: error = %v, want %q", sqlText, err, want)
		}
	}

	if _, err := s.Execute(`PREPARE p AS SELECT COUNT(*) FROM sales WHERE cust = $1`); err != nil {
		t.Fatal(err)
	}
	mustFail(`PREPARE p AS SELECT 1 FROM sales`, "already exists")
	mustFail(`EXECUTE nope(1)`, "does not exist")
	mustFail(`EXECUTE p`, "needs 1 parameter(s), got 0")
	mustFail(`EXECUTE p(1, 2)`, "needs 1 parameter(s), got 2")
	mustFail(`DEALLOCATE nope`, "does not exist")
	mustFail(`PREPARE gap AS SELECT COUNT(*) FROM sales WHERE cust = $2`, "references $2 but not $1")
	mustFail(`SELECT COUNT(*) FROM sales WHERE cust = $1`, "outside a prepared statement")

	if _, err := s.Execute(`DEALLOCATE p`); err != nil {
		t.Fatal(err)
	}
	mustFail(`EXECUTE p(1)`, "does not exist")

	// DML bodies prepare and execute too (parameterized INSERT).
	if _, err := s.Execute(`PREPARE ins AS INSERT INTO sales VALUES ($1, $2, $3, $4)`); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Execute(`EXECUTE ins(9999, 1, 1.5, 0)`); err != nil {
		t.Fatal(err)
	}
	res := db.MustExecute(`SELECT COUNT(*) FROM sales WHERE sale_id = 9999`)
	if res.Rows[0][0].I != 1 {
		t.Fatalf("prepared INSERT did not land: %d", res.Rows[0][0].I)
	}
}

// TestPlanCacheMonitorTable: v_monitor.plan_cache exposes cached entries
// with their hit counts and epochs, SQL-queryable like any system table.
func TestPlanCacheMonitorTable(t *testing.T) {
	db := openTestDB(t, 1, 0)
	setupSales(t, db, 1_000)
	db.MustExecute(`SELECT COUNT(*) FROM sales WHERE cust = 5`)
	db.MustExecute(`SELECT COUNT(*) FROM sales WHERE cust = 5`)

	res := db.MustExecute(`SELECT statement, pool, hits, projections FROM v_monitor.plan_cache`)
	if len(res.Rows) != 1 {
		t.Fatalf("plan_cache rows = %d", len(res.Rows))
	}
	row := res.Rows[0]
	if !strings.Contains(row[0].S, "cust = ?") || row[1].S != "general" || row[2].I != 1 {
		t.Fatalf("row = %v", row)
	}
	if row[3].S != "sales_super" {
		t.Fatalf("projections = %q", row[3].S)
	}
}

// TestPlanCacheStormNoStaleExecution is the PR's race regression test: a
// storm of concurrent EXECUTEs races ALTER RESOURCE POOL and CREATE TABLE.
// Every EXECUTE must return the correct count (cached
// plans rebuild per-node operators against the live catalog), and once the
// churn stops, no surviving cache entry may carry a pre-bump epoch.
func TestPlanCacheStormNoStaleExecution(t *testing.T) {
	db := openTestDB(t, 1, 0)
	setupSales(t, db, 2_000)
	db.MustExecute(`CREATE RESOURCE POOL stormpool MEMORYSIZE '64M'`)

	const workers = 8
	const iters = 40
	var wg sync.WaitGroup
	errs := make(chan error, workers*iters+iters)

	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s := db.NewSession()
			defer s.Close()
			if _, err := s.Execute(`PREPARE c AS SELECT COUNT(*) FROM sales WHERE cust = $1`); err != nil {
				errs <- err
				return
			}
			for i := 0; i < iters; i++ {
				res, err := s.Execute(fmt.Sprintf(`EXECUTE c(%d)`, i%10))
				if err != nil {
					errs <- fmt.Errorf("worker %d iter %d: %w", w, i, err)
					return
				}
				if res.Rows[0][0].I != 200 {
					errs <- fmt.Errorf("worker %d iter %d: count = %d, want 200", w, i, res.Rows[0][0].I)
					return
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			var stmt string
			switch i % 3 {
			case 0:
				stmt = fmt.Sprintf(`ALTER RESOURCE POOL stormpool MEMORYSIZE '%dM'`, 32+i)
			case 1:
				stmt = fmt.Sprintf(`CREATE TABLE churn%d (a INT)`, i)
			default:
				stmt = `ALTER RESOURCE POOL stormpool PARALLELISM 2`
			}
			if _, err := db.Execute(stmt); err != nil {
				errs <- fmt.Errorf("churn iter %d: %w", i, err)
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// After the last bump every surviving entry must be at the live epochs:
	// a stale entry still resident would mean an invalidation was missed.
	now := db.planEpochs()
	for _, info := range db.plans.Snapshot() {
		if info.CatalogGen != now.CatalogGen || info.PoolEpoch != now.PoolEpoch {
			t.Fatalf("stale entry survived churn: %+v vs now %+v", info, now)
		}
	}
	t.Logf("stale lookups retired (never served): %d", db.plans.StaleHits())
}

// TestPlanCacheSpeedupGate is the CI bench-smoke assertion for the serving
// path: steady-state cached serving (plan cache + decoded-block cache warm,
// repeated parameterized point lookups) must deliver at least 1.5x the
// statements/sec of cold serving (both caches disabled, every statement
// novel). Heavyweight for unit runs, so it only executes when
// PLANCACHE_GATE=1 (CI sets it).
func TestPlanCacheSpeedupGate(t *testing.T) {
	if os.Getenv("PLANCACHE_GATE") != "1" {
		t.Skip("set PLANCACHE_GATE=1 to run the speedup gate")
	}
	open := func(cacheSize int) *Database {
		db, err := Open(Options{Dir: t.TempDir(), PlanCacheSize: cacheSize})
		if err != nil {
			t.Fatal(err)
		}
		// ROS-resident fixture: the serving path being measured is repeated
		// reads of immutable containers, not WOS drains.
		db.MustExecute(`CREATE TABLE sales (sale_id INT, cust INT, price FLOAT, qty INT)`)
		db.MustExecute(`CREATE PROJECTION sales_super ON sales (sale_id, cust, price, qty)
			ORDER BY sale_id SEGMENTED BY HASH(sale_id)`)
		rows := make([]types.Row, 0, 50_000)
		for i := 0; i < 50_000; i++ {
			rows = append(rows, types.Row{
				types.NewInt(int64(i)), types.NewInt(int64(i % 10)),
				types.NewFloat(float64(i) + 0.5), types.NewInt(int64(i % 3)),
			})
		}
		if err := db.Load("sales", rows, true); err != nil {
			t.Fatal(err)
		}
		return db
	}
	const n = 300
	point := func(id int) string {
		return fmt.Sprintf(`SELECT price, qty FROM sales WHERE sale_id = %d`, id)
	}

	// Cold: serving caches off, point lookups scattered across the table.
	db := open(-1)
	storage.SetBlockCacheBudget(0)
	start := time.Now()
	for i := 0; i < n; i++ {
		db.MustExecute(point((i * 7919) % 50_000))
	}
	coldQPS := float64(n) / time.Since(start).Seconds()
	storage.SetBlockCacheBudget(storage.DefaultBlockCacheBytes)

	// Cached: both caches on, hot repeated parameterized lookups.
	db = open(0)
	for i := 0; i < 32; i++ {
		db.MustExecute(point(4000 + i)) // warm plan + block caches
	}
	start = time.Now()
	for i := 0; i < n; i++ {
		db.MustExecute(point(4000 + i%32))
	}
	cachedQPS := float64(n) / time.Since(start).Seconds()

	speedup := cachedQPS / coldQPS
	t.Logf("cold %.0f stmt/s, cached %.0f stmt/s (%.2fx)", coldQPS, cachedQPS, speedup)
	if speedup < 1.5 {
		t.Fatalf("cached serving throughput only %.2fx of cold (want >= 1.5x)", speedup)
	}
}
