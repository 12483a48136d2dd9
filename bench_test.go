// Package repro's root benchmarks regenerate the tables and figures of the
// paper's evaluation (`make bench`, or `go test -bench=. -benchmem .`), plus
// ablation benches for the engine's design choices. Tables 1 and 2 are
// checked cell by cell by internal/txn's tests.
package repro

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/cstore"
	"repro/internal/encoding"
	"repro/internal/exec"
	"repro/internal/expr"
	"repro/internal/server"
	"repro/internal/storage"
	"repro/internal/tuplemover"
	"repro/internal/txn"
	"repro/internal/types"
	"repro/internal/vector"
)

// appendRows pivots rows into one batch of the WOS's schema and appends it
// at epoch e.
func appendRows(w *storage.WOS, rows []types.Row, e types.Epoch) (int64, error) {
	return w.AppendBatch(vector.BatchFromRows(w.Schema(), rows), e)
}

// benchScale keeps `go test -bench=.` minutes-fast.
const benchScale = 60_000

var (
	t3Once    sync.Once
	t3DB      *core.Database
	t3CStore  *cstore.Store
	t3SetupMu sync.Mutex
)

func table3Setup(b *testing.B) (*core.Database, *cstore.Store) {
	b.Helper()
	t3SetupMu.Lock()
	defer t3SetupMu.Unlock()
	t3Once.Do(func() {
		dir := b.TempDir()
		db, err := bench.SetupVertica(dir, benchScale, 4)
		if err != nil {
			b.Fatal(err)
		}
		t3DB = db
		t3CStore = bench.SetupCStore(benchScale)
	})
	return t3DB, t3CStore
}

// BenchmarkTable3 reproduces Table 3: the seven C-Store benchmark queries on
// both engines, and the disk row (each engine's footprint and their ratio).
func BenchmarkTable3(b *testing.B) {
	db, st := table3Setup(b)
	b.Run("disk", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			cDisk, err := st.WriteDisk(b.TempDir())
			if err != nil {
				b.Fatal(err)
			}
			vDisk := bench.VerticaDiskBytes(db)
			b.ReportMetric(float64(cDisk)/(1<<20), "cstore-MB")
			b.ReportMetric(float64(vDisk)/(1<<20), "vertica-MB")
			b.ReportMetric(float64(cDisk)/float64(vDisk), "disk-ratio")
		}
	})
	for q := 0; q < 7; q++ {
		b.Run(fmt.Sprintf("Q%d/vertica", q+1), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := bench.RunVerticaQuery(db, q); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("Q%d/cstore", q+1), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := bench.RunCStoreQuery(st, q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTable4RandomInts reproduces Table 4's first half; the reported
// custom metric is the engine's bytes/row (paper: 0.6 at 1M rows).
func BenchmarkTable4RandomInts(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := bench.Table4Ints(b.TempDir(), 200_000, 10_000_000)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[3].BytesPerRow, "vertica-bytes/row")
		b.ReportMetric(rows[3].Ratio, "vertica-ratio")
	}
}

// BenchmarkTable4MeterData reproduces Table 4's second half (paper: ~2.2
// bytes/row at 200M rows; the ratio is scale-dependent) and §8.2.2's
// per-column breakdown.
func BenchmarkTable4MeterData(b *testing.B) {
	for i := 0; i < b.N; i++ {
		summary, perCol, err := bench.Table4Meter(b.TempDir(), 200_000)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(summary[2].BytesPerRow, "vertica-bytes/row")
		b.ReportMetric(summary[2].Ratio, "vertica-ratio")
		for _, c := range perCol {
			b.ReportMetric(c.BytesPerRow, c.Label+"-bytes/row")
		}
	}
}

// BenchmarkFigure3Plan runs the parallel aggregation plan of Figure 3
// (StorageUnion workers -> prepass -> resegment -> parallel GroupBys) and
// logs its EXPLAIN; the shape is in the first lines, which is all that
// survives the testing package's trim of benchmark logs to ten lines.
func BenchmarkFigure3Plan(b *testing.B) {
	db, _ := table3Setup(b)
	q := `SELECT l_suppkey, COUNT(*), AVG(l_extendedprice) FROM lineitem GROUP BY l_suppkey`
	res, err := db.Execute("EXPLAIN " + q)
	if err != nil {
		b.Fatal(err)
	}
	b.Log("\n" + res.Explain.String())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Execute(q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTables1And2 exercises the lock compatibility and conversion
// matrices (the "result" is correctness — see internal/txn tests — so this
// measures the lock manager's hot path).
func BenchmarkTables1And2(b *testing.B) {
	lm := txn.NewLockManager(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := txn.TxnID(i)
		lm.TryAcquire(id, "t", txn.I)
		lm.TryAcquire(id, "t", txn.S) // converts to SI per Table 2
		lm.ReleaseAll(id)
	}
}

// --- ablation benches ---------------------------------------------------

// ablationFixture loads n rows of (k sorted unique, grp low-cardinality RLE,
// v float) into a projection storage.
func ablationFixture(b *testing.B, n int) (*storage.Manager, *txn.EpochManager, *types.Schema) {
	b.Helper()
	schema := types.NewSchema(
		types.Column{Name: "k", Typ: types.Int64},
		types.Column{Name: "grp", Typ: types.Int64},
		types.Column{Name: "v", Typ: types.Float64},
	)
	mgr, err := storage.NewManager(b.TempDir(), schema, storage.ManagerOpts{})
	if err != nil {
		b.Fatal(err)
	}
	em := txn.NewEpochManager()
	tm, err := tuplemover.New(tuplemover.Config{
		Mgr: mgr, Epochs: em,
		Place: storage.NewPlacement("p", schema, []int{1, 0}, map[string]encoding.Kind{"grp": encoding.RLE}),
	})
	if err != nil {
		b.Fatal(err)
	}
	rows := make([]types.Row, n)
	for i := range rows {
		rows[i] = types.Row{
			types.NewInt(int64(i)),
			types.NewInt(int64(i % 16)),
			types.NewFloat(float64(i)),
		}
	}
	appendRows(mgr.WOS(), rows, em.CommitDML())
	if _, err := tm.Moveout(); err != nil {
		b.Fatal(err)
	}
	return mgr, em, schema
}

// BenchmarkAblationRLEDirect compares COUNT(*) GROUP BY over a run-length
// column with run-direct aggregation vs expanding every run (paper §6.1:
// operators work directly on encoded data).
func BenchmarkAblationRLEDirect(b *testing.B) {
	mgr, em, schema := ablationFixture(b, 200_000)
	run := func(b *testing.B, preserveRuns bool) {
		for i := 0; i < b.N; i++ {
			s := exec.NewScan("p", mgr, schema, []int{1})
			s.PreserveRuns = preserveRuns
			g := exec.NewGroupBy(s,
				[]expr.Expr{expr.NewColRef(0, types.Int64, "grp")}, []string{"grp"},
				[]exec.AggSpec{{Kind: exec.AggCountStar, Name: "c"}})
			g.InputSorted = true
			rows, err := exec.Drain(exec.NewCtx(em.ReadEpoch()), g)
			if err != nil || len(rows) != 16 {
				b.Fatalf("rows=%d err=%v", len(rows), err)
			}
		}
	}
	b.Run("rle-direct", func(b *testing.B) { run(b, true) })
	b.Run("expanded", func(b *testing.B) { run(b, false) })
}

// BenchmarkAblationSIP compares a selective hash join with and without the
// SIP filter pushed into the probe-side scan.
func BenchmarkAblationSIP(b *testing.B) {
	mgr, em, schema := ablationFixture(b, 200_000)
	dimSchema := types.NewSchema(
		types.Column{Name: "id", Typ: types.Int64},
		types.Column{Name: "tag", Typ: types.Varchar},
	)
	dim := vector.NewBatchForSchema(dimSchema, 1)
	dim.AppendRow(types.Row{types.NewInt(3), types.NewString("three")})
	run := func(b *testing.B, useSIP bool) {
		for i := 0; i < b.N; i++ {
			s := exec.NewScan("p", mgr, schema, []int{1, 2})
			j, err := exec.NewHashJoin(exec.InnerJoin, s,
				exec.NewBatchValues(dimSchema, []*vector.Batch{dim}), []int{0}, []int{0})
			if err != nil {
				b.Fatal(err)
			}
			if useSIP {
				sip := exec.NewSIPFilter([]int{0}, "dim")
				s.SIPs = []*exec.SIPFilter{sip}
				j.SIP = sip
			}
			rows, err := exec.Drain(exec.NewCtx(em.ReadEpoch()), j)
			if err != nil || len(rows) != 200_000/16 {
				b.Fatalf("rows=%d err=%v", len(rows), err)
			}
		}
	}
	b.Run("sip", func(b *testing.B) { run(b, true) })
	b.Run("no-sip", func(b *testing.B) { run(b, false) })
}

// BenchmarkAblationPrepass compares hash aggregation with and without the
// cache-sized prepass in front of it.
func BenchmarkAblationPrepass(b *testing.B) {
	mgr, em, schema := ablationFixture(b, 200_000)
	run := func(b *testing.B, usePrepass bool) {
		for i := 0; i < b.N; i++ {
			s := exec.NewScan("p", mgr, schema, []int{1, 2})
			keys := []expr.Expr{expr.NewColRef(0, types.Int64, "grp")}
			aggs := []exec.AggSpec{{Kind: exec.AggSum, Arg: expr.NewColRef(1, types.Float64, "v"), Name: "s"}}
			var root exec.Operator
			if usePrepass {
				pre, err := exec.NewPrepass(s, keys, []string{"grp"}, aggs)
				if err != nil {
					b.Fatal(err)
				}
				final := exec.NewGroupBy(pre,
					[]expr.Expr{expr.NewColRef(0, types.Int64, "grp")}, []string{"grp"}, aggs)
				final.MergePartials = true
				root = final
			} else {
				root = exec.NewGroupBy(s, keys, []string{"grp"}, aggs)
			}
			rows, err := exec.Drain(exec.NewCtx(em.ReadEpoch()), root)
			if err != nil || len(rows) != 16 {
				b.Fatalf("rows=%d err=%v", len(rows), err)
			}
		}
	}
	b.Run("prepass", func(b *testing.B) { run(b, true) })
	b.Run("no-prepass", func(b *testing.B) { run(b, false) })
}

// BenchmarkAblationSortedGroupBy compares one-pass aggregation over the
// sorted projection against hash aggregation of the same data.
func BenchmarkAblationSortedGroupBy(b *testing.B) {
	mgr, em, schema := ablationFixture(b, 200_000)
	run := func(b *testing.B, sorted bool) {
		for i := 0; i < b.N; i++ {
			s := exec.NewScan("p", mgr, schema, []int{1, 2})
			g := exec.NewGroupBy(s,
				[]expr.Expr{expr.NewColRef(0, types.Int64, "grp")}, []string{"grp"},
				[]exec.AggSpec{{Kind: exec.AggAvg, Arg: expr.NewColRef(1, types.Float64, "v"), Name: "a"}})
			if sorted {
				s.MergeSorted = true
				s.SortKey = []int{0}
				g.InputSorted = true
			}
			rows, err := exec.Drain(exec.NewCtx(em.ReadEpoch()), g)
			if err != nil || len(rows) != 16 {
				b.Fatalf("rows=%d err=%v", len(rows), err)
			}
		}
	}
	b.Run("one-pass", func(b *testing.B) { run(b, true) })
	b.Run("hash", func(b *testing.B) { run(b, false) })
}

// BenchmarkAblationPartitionPruning compares a selective month query on a
// partitioned table (whole containers pruned) vs the same data unpartitioned
// (paper §3.5: partitioning keeps values from intermixing in a ROS).
func BenchmarkAblationPartitionPruning(b *testing.B) {
	setup := func(b *testing.B, partitioned bool) *core.Database {
		b.Helper()
		db, err := core.Open(core.Options{Dir: b.TempDir()})
		if err != nil {
			b.Fatal(err)
		}
		ddl := `CREATE TABLE ev (id INT, month INT, v FLOAT)`
		if partitioned {
			ddl += ` PARTITION BY month`
		}
		if _, err := db.Execute(ddl); err != nil {
			b.Fatal(err)
		}
		if _, err := db.Execute(`CREATE PROJECTION ev_super ON ev (id, month, v)
			ORDER BY id SEGMENTED BY HASH(id)`); err != nil {
			b.Fatal(err)
		}
		rows := make([]types.Row, 120_000)
		for i := range rows {
			rows[i] = types.Row{
				types.NewInt(int64(i)), types.NewInt(int64(i % 12)), types.NewFloat(float64(i)),
			}
		}
		if err := db.Load("ev", rows, true); err != nil {
			b.Fatal(err)
		}
		return db
	}
	q := `SELECT COUNT(*), SUM(v) FROM ev WHERE month = 3`
	for _, part := range []bool{true, false} {
		name := "partitioned"
		if !part {
			name = "unpartitioned"
		}
		db := setup(b, part)
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := db.Execute(q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationMergeStrata compares the exponential-strata mergeout
// against naive merge-everything-per-round across repeated loads, reporting
// total rewritten rows (the paper's bound: rewrites per tuple <= strata).
func BenchmarkAblationMergeStrata(b *testing.B) {
	run := func(b *testing.B, strataBase int64) {
		for i := 0; i < b.N; i++ {
			schema := types.NewSchema(types.Column{Name: "k", Typ: types.Int64})
			mgr, err := storage.NewManager(b.TempDir(), schema, storage.ManagerOpts{})
			if err != nil {
				b.Fatal(err)
			}
			em := txn.NewEpochManager()
			tm, err := tuplemover.New(tuplemover.Config{
				Mgr: mgr, Epochs: em, Place: storage.NewPlacement("p", schema, []int{0}, nil),
				StrataBase: strataBase,
			})
			if err != nil {
				b.Fatal(err)
			}
			for l := 0; l < 12; l++ {
				rows := make([]types.Row, 4000)
				for j := range rows {
					rows[j] = types.Row{types.NewInt(int64(l*4000 + j))}
				}
				appendRows(mgr.WOS(), rows, em.CommitDML())
				if _, err := tm.Moveout(); err != nil {
					b.Fatal(err)
				}
				if _, err := tm.Mergeout(); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	// Exponential strata (4KB base) vs "one stratum" (huge base: every
	// container is stratum 0, so every round merges everything).
	b.Run("exponential", func(b *testing.B) { run(b, 4<<10) })
	b.Run("naive-single-stratum", func(b *testing.B) { run(b, 1<<40) })
}

// BenchmarkAblationDirectLoad compares bulk loading straight to the ROS
// against routing through the WOS plus a moveout (paper §7: "users are more
// than happy to explicitly tag such loads to target the ROS").
func BenchmarkAblationDirectLoad(b *testing.B) {
	rows := make([]types.Row, 100_000)
	for i := range rows {
		rows[i] = types.Row{types.NewInt(int64(i)), types.NewFloat(float64(i))}
	}
	run := func(b *testing.B, direct bool) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			db, err := core.Open(core.Options{Dir: b.TempDir(), WOSMaxBytes: 1 << 30,
				DirectLoadRowThreshold: 1 << 30})
			if err != nil {
				b.Fatal(err)
			}
			db.MustExecute(`CREATE TABLE t (a INT, v FLOAT)`)
			db.MustExecute(`CREATE PROJECTION t_super ON t (a, v) ORDER BY a SEGMENTED BY HASH(a)`)
			b.StartTimer()
			if err := db.Load("t", rows, direct); err != nil {
				b.Fatal(err)
			}
			if !direct {
				if _, _, err := db.RunTupleMover(); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	b.Run("direct-to-ros", func(b *testing.B) { run(b, true) })
	b.Run("via-wos", func(b *testing.B) { run(b, false) })
}

// BenchmarkAblationJoinIndex compares scanning tuples reconstructed through
// a C-Store join index against a contiguous super-projection layout — the
// cost that led Vertica to drop join indexes (paper §3.2).
func BenchmarkAblationJoinIndex(b *testing.B) {
	schema := types.NewSchema(
		types.Column{Name: "a", Typ: types.Int64},
		types.Column{Name: "bb", Typ: types.Int64},
		types.Column{Name: "c", Typ: types.Float64},
	)
	rows := make([]types.Row, 200_000)
	for i := range rows {
		rows[i] = types.Row{
			types.NewInt(int64(i)), types.NewInt(int64(200_000 - i)), types.NewFloat(float64(i)),
		}
	}
	scanAll := func(b *testing.B, t *cstore.Table) {
		it := t.Scan([]int{0, 1, 2})
		n := 0
		for {
			_, ok := it()
			if !ok {
				break
			}
			n++
		}
		if n != len(rows) {
			b.Fatalf("scanned %d", n)
		}
	}
	b.Run("super-projection", func(b *testing.B) {
		st := cstore.NewStore()
		t := st.Load("t", schema, rows, 0)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			scanAll(b, t)
		}
	})
	b.Run("join-index", func(b *testing.B) {
		st := cstore.NewStore()
		t := st.LoadPartial("t", schema, rows, 0, 1, []int{2})
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			scanAll(b, t)
		}
	})
}

// BenchmarkConcurrentWorkload drives 8 simultaneous TCP clients through the
// SQL server and compares admission-controlled execution (2 concurrency
// slots) against unbounded concurrency (all 8 run at once). Both configs
// give each query the same 2MB grant — small enough that the ORDER BY
// externalizes — so the comparison isolates the admission policy: bounded
// peak memory and queueing versus 8 spilling sorts in flight at once. The
// governor's peak-running and per-query queue-wait are reported as metrics.
func BenchmarkConcurrentWorkload(b *testing.B) {
	const clients = 8
	const grantBytes = 2 << 20
	setup := func(b *testing.B, conc int) (*server.Server, *core.Database, []*server.Client) {
		db, err := core.Open(core.Options{
			Dir:            b.TempDir(),
			MemPoolBytes:   int64(grantBytes * conc), // grant = pool/conc stays fixed
			MaxConcurrency: conc,
			TempDir:        b.TempDir(),
		})
		if err != nil {
			b.Fatal(err)
		}
		db.MustExecute(`CREATE TABLE sales (sale_id INT, cust INT, price FLOAT)`)
		db.MustExecute(`CREATE PROJECTION sales_super ON sales (sale_id, cust, price)
			ORDER BY sale_id SEGMENTED BY HASH(sale_id)`)
		rows := make([]types.Row, 50_000)
		for i := range rows {
			rows[i] = types.Row{
				types.NewInt(int64(i)), types.NewInt(int64(i % 50)), types.NewFloat(float64(i * 7 % 9973)),
			}
		}
		if err := db.Load("sales", rows, true); err != nil {
			b.Fatal(err)
		}
		srv := server.New(db, server.Config{Addr: "127.0.0.1:0"})
		if err := srv.Listen(); err != nil {
			b.Fatal(err)
		}
		go srv.Serve()
		cs := make([]*server.Client, clients)
		for i := range cs {
			c, err := server.Dial(srv.Addr().String())
			if err != nil {
				b.Fatal(err)
			}
			cs[i] = c
		}
		return srv, db, cs
	}
	run := func(b *testing.B, conc int) {
		srv, db, cs := setup(b, conc)
		defer func() {
			for _, c := range cs {
				c.Close()
			}
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			srv.Shutdown(ctx)
		}()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			var wg sync.WaitGroup
			for _, c := range cs {
				wg.Add(1)
				go func(c *server.Client) {
					defer wg.Done()
					res, err := c.Exec(`SELECT sale_id, price FROM sales ORDER BY price`)
					if err != nil {
						b.Error(err)
						return
					}
					if len(res.Rows) != 50_000 {
						b.Errorf("got %d rows", len(res.Rows))
					}
				}(c)
			}
			wg.Wait()
		}
		b.StopTimer()
		st := db.Governor().Stats()
		b.ReportMetric(float64(st.PeakRunning), "peak-running")
		if st.Admitted > 0 {
			b.ReportMetric(float64(st.TotalQueueWait.Microseconds())/float64(st.Admitted), "queue-wait-us/query")
		}
		b.ReportMetric(float64(st.SpilledBytes)/float64(b.N), "spilled-B/round")
	}
	b.Run("admission-2-slots", func(b *testing.B) { run(b, 2) })
	b.Run("unbounded", func(b *testing.B) { run(b, clients) })
}
