package core

import (
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/internal/types"
)

var updatePlans = flag.Bool("update-plans", false, "rewrite testdata/bench_plans.golden")

// Row counts of the plan-shape fixtures: the smallest that plan the same
// trees as the benchmark's full counts (lineitem 250 000, sales 200 000,
// events 200 000). Q3 fans only while 0.4 of lineitem reaches
// optimizer.MinParallelRows, so 40 000 lineitem rows already plan it
// serially; sales and events are at the benchmark's own 1/100-scale floors.
const (
	planLineitemRows = 41_000
	planSalesRows    = 32_768
	planEventsRows   = 4_000
)

// benchSeed is the benchmark's default seed.
const benchSeed = 20120827

// TestBenchmarkPlanShapes pins the operator trees of every statement shape
// the benchmark (benchmark/workloads.go) runs: Table 3's Q1..Q7 on the
// analytic fixture, the sales point lookup, 1 024-row aggregate and 8 192-row
// fetch at three hot keys each, and the events reader at three windows. Each
// fixture is built as the benchmark builds it (same DDL, loads, mover run,
// ANALYZE_STATISTICS and seed) at smaller row counts. Only the operator lines
// are compared: the "--" notes carry estimates, which may move without the
// plan moving.
func TestBenchmarkPlanShapes(t *testing.T) {
	var out strings.Builder
	explain := func(db *Database, label, q string) {
		t.Helper()
		res, err := db.Execute("EXPLAIN " + q)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		fmt.Fprintf(&out, "== %s\n", label)
		for _, line := range strings.Split(res.Explain.String(), "\n") {
			if line != "" && !strings.HasPrefix(line, "--") {
				out.WriteString(line + "\n")
			}
		}
	}
	open := func(parallelism int) *Database {
		t.Helper()
		db, err := Open(Options{Dir: t.TempDir(), TempDir: t.TempDir(),
			Nodes: 1, Parallelism: parallelism, LogWriter: io.Discard})
		if err != nil {
			t.Fatal(err)
		}
		return db
	}
	mustLoad := func(db *Database, table string, rows []types.Row) {
		t.Helper()
		if err := db.Load(table, rows, true); err != nil {
			t.Fatal(err)
		}
	}
	seedOffset := int((benchSeed%1000 + 1000) % 1000)

	// analytic_cold: Parallelism 2, four lineitem loads and one orders load
	// merged by one mover run.
	db := open(2)
	db.MustExecute(`CREATE TABLE lineitem (l_orderkey INT, l_suppkey INT, l_shipdate TIMESTAMP,
		l_extendedprice FLOAT, l_returnflag VARCHAR)`)
	db.MustExecute(`CREATE TABLE orders (o_orderkey INT, o_orderdate TIMESTAMP, o_custkey INT)`)
	db.MustExecute(`CREATE PROJECTION lineitem_super ON lineitem
		(l_shipdate, l_suppkey, l_orderkey, l_extendedprice, l_returnflag)
		ORDER BY l_shipdate, l_suppkey SEGMENTED BY HASH(l_orderkey)`)
	db.MustExecute(`CREATE PROJECTION orders_super ON orders (o_orderkey, o_orderdate, o_custkey)
		ORDER BY o_orderkey REPLICATED`)
	lineitem, orders := gen.LineitemOrders(planLineitemRows, benchSeed)
	n := len(lineitem)
	for c := 0; c < 4; c++ {
		mustLoad(db, "lineitem", lineitem[c*n/4:(c+1)*n/4])
	}
	mustLoad(db, "orders", orders)
	if _, _, err := db.RunTupleMover(); err != nil {
		t.Fatal(err)
	}
	db.MustExecute(`ANALYZE_STATISTICS('lineitem')`)
	db.MustExecute(`ANALYZE_STATISTICS('orders')`)
	day := func(d int) string { return "TIMESTAMP '" + gen.Day(d).String() + "'" }
	const join = ` FROM lineitem JOIN orders ON l_orderkey = o_orderkey WHERE o_orderdate `
	for i, q := range []string{
		`SELECT l_shipdate, COUNT(*) FROM lineitem WHERE l_shipdate > ` + day(700) + ` GROUP BY l_shipdate`,
		`SELECT l_suppkey, COUNT(*) FROM lineitem WHERE l_shipdate = ` + day(300) + ` GROUP BY l_suppkey`,
		`SELECT l_suppkey, COUNT(*) FROM lineitem WHERE l_shipdate > ` + day(0) + ` GROUP BY l_suppkey`,
		`SELECT o_orderdate, COUNT(*)` + join + `> ` + day(650) + ` GROUP BY o_orderdate`,
		`SELECT l_suppkey, COUNT(*)` + join + `= ` + day(300) + ` GROUP BY l_suppkey`,
		`SELECT l_suppkey, COUNT(*)` + join + `> ` + day(600) + ` GROUP BY l_suppkey`,
		`SELECT l_returnflag, AVG(l_extendedprice)` + join + `> ` + day(500) + ` GROUP BY l_returnflag`,
	} {
		explain(db, fmt.Sprintf("analytic Q%d", i+1), q)
	}

	// serving_hot and serving_fetch: one direct load of sales, no mover run;
	// hot keys are the first three each workload draws from the seed.
	db = open(0)
	db.MustExecute(`CREATE TABLE sales (sale_id INT, cust INT, price FLOAT, qty INT)`)
	db.MustExecute(`CREATE PROJECTION sales_super ON sales (sale_id, cust, price, qty)
		ORDER BY sale_id SEGMENTED BY HASH(sale_id)`)
	sales := make([]types.Row, planSalesRows)
	for i := range sales {
		sales[i] = types.Row{types.NewInt(int64(i)), types.NewInt(int64((i*31 + seedOffset) % 997)),
			types.NewFloat(float64((i*7+seedOffset)%9973) / 100), types.NewInt(int64((i+seedOffset)%7 + 1))}
	}
	mustLoad(db, "sales", sales)
	db.MustExecute(`ANALYZE_STATISTICS('sales')`)
	hotKeys := func(width int) []int {
		rng := rand.New(rand.NewSource(benchSeed))
		keys := make([]int, 3)
		for i := range keys {
			keys[i] = planSalesRows/2 + rng.Intn(planSalesRows/2-width)
		}
		return keys
	}
	for i, k := range hotKeys(1024) {
		explain(db, fmt.Sprintf("serving point #%d", i+1),
			fmt.Sprintf(`SELECT price, qty FROM sales WHERE sale_id = %d`, k))
		explain(db, fmt.Sprintf("serving aggregate #%d", i+1),
			fmt.Sprintf(`SELECT COUNT(*), SUM(price) FROM sales WHERE sale_id >= %d AND sale_id < %d`, k, k+1024))
	}
	for i, k := range hotKeys(8192) {
		explain(db, fmt.Sprintf("serving fetch #%d", i+1),
			fmt.Sprintf(`SELECT sale_id, cust, price, qty FROM sales WHERE sale_id >= %d AND sale_id < %d`, k, k+8192))
	}

	// ingest_query: a partitioned direct load, then the reader's window of
	// the newest quarter of the ids over the load alone, over the load and a
	// WOS batch, and over both after a mover cycle.
	db = open(0)
	db.MustExecute(fmt.Sprintf(`CREATE TABLE events (id INT, grp INT, val FLOAT, ts TIMESTAMP, note VARCHAR)
		PARTITION BY id / %d`, planEventsRows/5))
	db.MustExecute(`CREATE PROJECTION events_super ON events (id, grp, val, ts, note)
		ORDER BY id SEGMENTED BY HASH(id)`)
	notes := [4]string{"alpha", "beta", "gamma", "delta-long-note"}
	event := func(i int) types.Row {
		return types.Row{types.NewInt(int64(i)), types.NewInt(int64((i*7 + seedOffset) % 16)),
			types.NewFloat(float64((i*13+seedOffset)%1000) / 8),
			types.NewTimestampMicros(1_293_840_000_000_000 + int64(i)*1_000_000),
			types.NewString(notes[(i+seedOffset)%4])}
	}
	events := make([]types.Row, planEventsRows)
	for i := range events {
		events[i] = event(i)
	}
	mustLoad(db, "events", events)
	db.MustExecute(`ANALYZE_STATISTICS('events')`)
	reader := func(label string, hi int) {
		lo := hi - planEventsRows/4
		explain(db, label, fmt.Sprintf(
			`SELECT grp, COUNT(*), AVG(val) FROM events WHERE id >= %d AND id < %d GROUP BY grp`, lo, hi))
	}
	reader("ingest reader (load)", planEventsRows)
	var batch strings.Builder
	batch.WriteString("INSERT INTO events VALUES ")
	for j := 0; j < 200; j++ {
		r := event(planEventsRows + j)
		if j > 0 {
			batch.WriteString(", ")
		}
		fmt.Fprintf(&batch, "(%d, %d, %v, TIMESTAMP '%s', '%s')", r[0].I, r[1].I, r[2].F, r[3].String(), r[4].S)
	}
	db.MustExecute(batch.String())
	reader("ingest reader (load + WOS)", planEventsRows+200)
	if _, _, err := db.RunTupleMover(); err != nil {
		t.Fatal(err)
	}
	reader("ingest reader (after mover)", planEventsRows+200)

	golden := filepath.Join("testdata", "bench_plans.golden")
	if *updatePlans {
		if err := os.WriteFile(golden, []byte(out.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got := out.String(); got != string(want) {
		t.Fatalf("benchmark plan shapes changed (rerun with -update-plans only for an intended plan change):\n%s", got)
	}
}
