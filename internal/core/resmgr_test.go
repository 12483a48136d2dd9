package core

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/resmgr"
)

func openGovernedDB(t testing.TB, nodes int, pool int64, conc int) *Database {
	t.Helper()
	db, err := Open(Options{
		Dir:            t.TempDir(),
		Nodes:          nodes,
		MemPoolBytes:   pool,
		MaxConcurrency: conc,
		TempDir:        t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// TestQueryStatsReported checks the governor accounts a simple statement:
// rows flow into the grant and the pool fully drains afterwards.
func TestQueryStatsReported(t *testing.T) {
	db := openGovernedDB(t, 1, 32<<20, 2)
	setupSales(t, db, 500)
	res := db.MustExecute(`SELECT cust, COUNT(*) AS n FROM sales GROUP BY cust ORDER BY cust`)
	if res.Stats.Rows != int64(len(res.Rows)) {
		t.Fatalf("stats rows = %d, result rows = %d", res.Stats.Rows, len(res.Rows))
	}
	st := db.Governor().Stats()
	if st.Admitted == 0 {
		t.Fatalf("no admissions recorded: %+v", st)
	}
	if st.Running != 0 || st.InUseBytes != 0 {
		t.Fatalf("pool not drained: %+v", st)
	}
}

// TestGrantReleasedOnQueryError runs a statement that fails after admission
// (COUNT DISTINCT without co-located grouping on a multi-node cluster) and
// checks the grant went back to the pool.
func TestGrantReleasedOnQueryError(t *testing.T) {
	db := openGovernedDB(t, 3, 32<<20, 2)
	setupSales(t, db, 300)
	_, err := db.Execute(`SELECT COUNT(DISTINCT price) AS d FROM sales`)
	if err == nil {
		t.Fatal("expected distributed COUNT(DISTINCT) to fail")
	}
	st := db.Governor().Stats()
	if st.Admitted == 0 {
		t.Fatalf("query should fail after admission, not before: %+v", st)
	}
	if st.Running != 0 || st.InUseBytes != 0 {
		t.Fatalf("grant leaked on error: %+v", st)
	}
}

// TestExecuteContextPreCanceled: a dead context never reaches execution.
func TestExecuteContextPreCanceled(t *testing.T) {
	db := openGovernedDB(t, 1, 32<<20, 2)
	setupSales(t, db, 100)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := db.ExecuteContext(ctx, `SELECT COUNT(*) AS n FROM sales`)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestAdmissionQueueCancelAndDrain saturates a 1-slot governor with a slow
// query, cancels a queued one, then verifies the queue advances and the pool
// drains — all race-enabled.
func TestAdmissionQueueCancelAndDrain(t *testing.T) {
	db := openGovernedDB(t, 1, 8<<20, 1)
	setupSales(t, db, 20_000)
	gov := db.Governor()

	// Hold the only slot directly so queueing below is deterministic.
	hold, err := gov.Admit(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	qctx, qcancel := context.WithCancel(context.Background())
	queuedErr := make(chan error, 1)
	go func() {
		_, err := db.ExecuteContext(qctx, `SELECT SUM(price) AS s FROM sales`)
		queuedErr <- err
	}()
	for gov.Stats().Waiting != 1 {
		time.Sleep(time.Millisecond)
	}
	qcancel()
	if err := <-queuedErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("queued query err = %v, want context.Canceled", err)
	}

	// A second queued query must still be admitted once the slot frees.
	var wg sync.WaitGroup
	wg.Add(1)
	var res *Result
	go func() {
		defer wg.Done()
		r, err := db.ExecuteContext(context.Background(), `SELECT COUNT(*) AS n FROM sales`)
		if err != nil {
			t.Error(err)
			return
		}
		res = r
	}()
	for gov.Stats().Waiting != 1 {
		time.Sleep(time.Millisecond)
	}
	hold.Release()
	wg.Wait()
	if res == nil || len(res.Rows) != 1 || res.Rows[0][0].I != 20_000 {
		t.Fatalf("queued query result wrong: %+v", res)
	}
	if res.Stats.QueueWait <= 0 {
		t.Fatalf("expected queue wait > 0, got %v", res.Stats.QueueWait)
	}
	st := gov.Stats()
	if st.Running != 0 || st.InUseBytes != 0 || st.Waiting != 0 {
		t.Fatalf("pool not drained: %+v", st)
	}
}

// TestConstrainedPoolConcurrentQueries runs 8 simultaneous clients against a
// 32MB/2-slot governor: all must complete correctly and the excess must
// observably queue. Both slots are pre-held until all 8 are enqueued so the
// queueing is deterministic on any machine (a single-CPU box otherwise runs
// fast queries to completion back-to-back with no overlap).
func TestConstrainedPoolConcurrentQueries(t *testing.T) {
	db := openGovernedDB(t, 1, 32<<20, 2)
	setupSales(t, db, 5_000)
	gov := db.Governor()
	holdA, err := gov.Admit(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	holdB, err := gov.Admit(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	waits := make([]time.Duration, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := db.ExecuteContext(context.Background(),
				`SELECT cust, SUM(price) AS s FROM sales GROUP BY cust ORDER BY cust`)
			if err != nil {
				t.Error(err)
				return
			}
			if len(res.Rows) != 10 {
				t.Errorf("client %d: got %d groups, want 10", i, len(res.Rows))
			}
			waits[i] = res.Stats.QueueWait
		}(i)
	}
	deadline := time.Now().Add(10 * time.Second)
	for gov.Stats().Waiting != 8 {
		if time.Now().After(deadline) {
			t.Fatalf("clients never queued: %+v", gov.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	holdA.Release()
	holdB.Release()
	wg.Wait()
	st := gov.Stats()
	if st.PeakRunning > 2 {
		t.Fatalf("concurrency limit violated: %+v", st)
	}
	if st.Queued != 8 || st.TotalQueueWait <= 0 {
		t.Fatalf("expected queueing under 8 clients / 2 slots: %+v", st)
	}
	for i, w := range waits {
		if w <= 0 {
			t.Fatalf("client %d reported no queue wait", i)
		}
	}
	if st.Running != 0 || st.InUseBytes != 0 {
		t.Fatalf("pool not drained: %+v", st)
	}
}

// TestDefaultOptionsAreGoverned guards the embedded path: a database opened
// with zero resource options still gets a (generous) default governor, and
// historical queries flow through it too.
func TestDefaultOptionsAreGoverned(t *testing.T) {
	db := openTestDB(t, 1, 0)
	setupSales(t, db, 100)
	res := db.MustExecute(`SELECT COUNT(*) AS n FROM sales`)
	if res.Rows[0][0].I != 100 {
		t.Fatalf("rows = %v", res.Rows)
	}
	if res.Stats.Rows == 0 {
		t.Fatalf("expected stats on default-governed db: %+v", res.Stats)
	}
	if _, err := db.QueryAt(`SELECT COUNT(*) AS n FROM sales`, db.Txns().Epochs.ReadEpoch()); err != nil {
		t.Fatal(err)
	}
	if got := db.Governor().Config().PoolBytes; got != resmgr.DefaultPoolBytes {
		t.Fatalf("default pool = %d, want %d", got, resmgr.DefaultPoolBytes)
	}
}

// TestPoolParallelismDrivesParallelPlan checks the per-pool PARALLELISM
// knob threads through admission into planning: a statement admitted on a
// PARALLELISM 4 pool plans parallel shapes even though the engine default
// is serial, and the general pool stays serial. ForceParallel bypasses the
// cardinality gate (the fixture is tiny).
func TestPoolParallelismDrivesParallelPlan(t *testing.T) {
	db, err := Open(Options{
		Dir:           t.TempDir(),
		TempDir:       t.TempDir(),
		MemPoolBytes:  64 << 20,
		ForceParallel: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	setupSales(t, db, 500)
	db.MustExecute(`CREATE RESOURCE POOL px PARALLELISM 4`)
	sess := db.NewSession()
	defer sess.Close()
	if _, err := sess.Execute(`SET RESOURCE POOL px`); err != nil {
		t.Fatal(err)
	}
	res, err := sess.Execute(`EXPLAIN SELECT DISTINCT cust FROM sales`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Explain.String(), "fan: 4 worker pipelines") {
		t.Errorf("pool PARALLELISM 4 did not produce a parallel plan:\n%s", res.Explain)
	}
	// Same statement on the general pool (engine default: serial).
	res2 := db.MustExecute(`EXPLAIN SELECT DISTINCT cust FROM sales`)
	if strings.Contains(res2.Explain.String(), "fan") {
		t.Errorf("general pool should stay serial:\n%s", res2.Explain)
	}
	// The parallel statement still returns correct rows and the pool knob
	// shows in v_monitor.resource_pools.
	rows, err := sess.Execute(`SELECT cust FROM sales GROUP BY cust ORDER BY cust`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows.Rows) != 10 {
		t.Fatalf("rows = %d", len(rows.Rows))
	}
	mon := db.MustExecute(`SELECT name, parallelism FROM v_monitor.resource_pools WHERE name = 'px'`)
	if len(mon.Rows) != 1 || mon.Rows[0][1].I != 4 {
		t.Errorf("resource_pools parallelism = %v", mon.Rows)
	}
	// ALTER adjusts it; persistence is covered by the pool-restore tests.
	db.MustExecute(`ALTER RESOURCE POOL px PARALLELISM 2`)
	mon = db.MustExecute(`SELECT parallelism FROM v_monitor.resource_pools WHERE name = 'px'`)
	if len(mon.Rows) != 1 || mon.Rows[0][0].I != 2 {
		t.Errorf("after ALTER, parallelism = %v", mon.Rows)
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
	// PRIORITY and RUNTIMECAP read back through SQL as well.
	res := db2.MustExecute(`SELECT priority, runtimecap_ms FROM v_monitor.resource_pools WHERE name = 'etl'`)
	if len(res.Rows) != 1 || res.Rows[0][0].I != -3 || res.Rows[0][1].I != 45000 {
		t.Fatalf("v_monitor.resource_pools etl = %v", res.Rows)
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
