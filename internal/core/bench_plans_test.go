package core

import (
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/encoding"
	"repro/internal/gen"
	"repro/internal/types"
)

var (
	updatePlans     = flag.Bool("update-plans", false, "rewrite testdata/bench_plans.golden")
	updateEncodings = flag.Bool("update-encodings", false, "rewrite testdata/bench_encodings.golden")
)

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

// benchSeedOffset is the offset the benchmark's generators derive from the seed.
const benchSeedOffset = (benchSeed%1000 + 1000) % 1000

// The benchmark's fixtures, each built as the benchmark builds it (same
// DDL, loads, mover run, ANALYZE_STATISTICS and seed) at the row counts
// above.

func openBenchDB(t *testing.T, parallelism int) *Database {
	t.Helper()
	db, err := Open(Options{Dir: t.TempDir(), TempDir: t.TempDir(),
		Nodes: 1, Parallelism: parallelism, LogWriter: io.Discard})
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func mustLoad(t *testing.T, db *Database, table string, rows []types.Row) {
	t.Helper()
	if err := db.Load(table, rows, true); err != nil {
		t.Fatal(err)
	}
}

// analyticFixture is analytic_cold's: Parallelism 2, four lineitem loads
// and one orders load merged by one mover run.
func analyticFixture(t *testing.T) *Database {
	t.Helper()
	db := openBenchDB(t, 2)
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
		mustLoad(t, db, "lineitem", lineitem[c*n/4:(c+1)*n/4])
	}
	mustLoad(t, db, "orders", orders)
	if _, _, err := db.RunTupleMover(); err != nil {
		t.Fatal(err)
	}
	db.MustExecute(`ANALYZE_STATISTICS('lineitem')`)
	db.MustExecute(`ANALYZE_STATISTICS('orders')`)
	return db
}

// salesFixture is serving_hot's and serving_fetch's: one direct load of
// sales, no mover run.
func salesFixture(t *testing.T) *Database {
	t.Helper()
	db := openBenchDB(t, 0)
	db.MustExecute(`CREATE TABLE sales (sale_id INT, cust INT, price FLOAT, qty INT)`)
	db.MustExecute(`CREATE PROJECTION sales_super ON sales (sale_id, cust, price, qty)
		ORDER BY sale_id SEGMENTED BY HASH(sale_id)`)
	sales := make([]types.Row, planSalesRows)
	for i := range sales {
		sales[i] = types.Row{types.NewInt(int64(i)), types.NewInt(int64((i*31 + benchSeedOffset) % 997)),
			types.NewFloat(float64((i*7+benchSeedOffset)%9973) / 100), types.NewInt(int64((i+benchSeedOffset)%7 + 1))}
	}
	mustLoad(t, db, "sales", sales)
	db.MustExecute(`ANALYZE_STATISTICS('sales')`)
	return db
}

// eventsFixture is ingest_query's partitioned direct load; eventsInsert is
// its writer's 200-row INSERT of the ids from first on.
func eventsFixture(t *testing.T) *Database {
	t.Helper()
	db := openBenchDB(t, 0)
	db.MustExecute(fmt.Sprintf(`CREATE TABLE events (id INT, grp INT, val FLOAT, ts TIMESTAMP, note VARCHAR)
		PARTITION BY id / %d`, planEventsRows/5))
	db.MustExecute(`CREATE PROJECTION events_super ON events (id, grp, val, ts, note)
		ORDER BY id SEGMENTED BY HASH(id)`)
	events := make([]types.Row, planEventsRows)
	for i := range events {
		events[i] = event(i)
	}
	mustLoad(t, db, "events", events)
	db.MustExecute(`ANALYZE_STATISTICS('events')`)
	return db
}

func event(i int) types.Row {
	notes := [4]string{"alpha", "beta", "gamma", "delta-long-note"}
	return types.Row{types.NewInt(int64(i)), types.NewInt(int64((i*7 + benchSeedOffset) % 16)),
		types.NewFloat(float64((i*13+benchSeedOffset)%1000) / 8),
		types.NewTimestampMicros(1_293_840_000_000_000 + int64(i)*1_000_000),
		types.NewString(notes[(i+benchSeedOffset)%4])}
}

func eventsInsert(first int) string {
	var batch strings.Builder
	batch.WriteString("INSERT INTO events VALUES ")
	for j := 0; j < 200; j++ {
		r := event(first + j)
		if j > 0 {
			batch.WriteString(", ")
		}
		fmt.Fprintf(&batch, "(%d, %d, %v, TIMESTAMP '%s', '%s')", r[0].I, r[1].I, r[2].F, r[3].String(), r[4].S)
	}
	return batch.String()
}

// checkGolden compares got with testdata/name, rewriting it first when update is set.
func checkGolden(t *testing.T, name, got string, update bool, flagName string) {
	t.Helper()
	golden := filepath.Join("testdata", name)
	if update {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("%s drifted (rerun with -%s only for an intended change):\n%s", golden, flagName, firstDiff(got, string(want)))
	}
}

// TestBenchmarkPlanShapes pins the operator trees of every statement shape
// the benchmark (benchmark/workloads.go) runs: Table 3's Q1..Q7 on the
// analytic fixture, the sales point lookup, 1 024-row aggregate and 8 192-row
// fetch at three hot keys each, and the events reader at three windows. Only
// the operator lines are compared: the "--" notes carry estimates, which may
// move without the plan moving.
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

	db := analyticFixture(t)
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

	// Hot keys are the first three each serving workload draws from the seed.
	db = salesFixture(t)
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

	// The reader's window of the newest quarter of the ids over the load
	// alone, over the load and a WOS batch, and over both after a mover cycle.
	db = eventsFixture(t)
	reader := func(label string, hi int) {
		lo := hi - planEventsRows/4
		explain(db, label, fmt.Sprintf(
			`SELECT grp, COUNT(*), AVG(val) FROM events WHERE id >= %d AND id < %d GROUP BY grp`, lo, hi))
	}
	reader("ingest reader (load)", planEventsRows)
	db.MustExecute(eventsInsert(planEventsRows))
	reader("ingest reader (load + WOS)", planEventsRows+200)
	if _, _, err := db.RunTupleMover(); err != nil {
		t.Fatal(err)
	}
	reader("ingest reader (after mover)", planEventsRows+200)

	checkGolden(t, "bench_plans.golden", out.String(), *updatePlans, "update-plans")
}

// TestBenchmarkFixtureEncodings is the encoding census of the benchmark's
// fixtures: the blocks and stored bytes of every (table.column, stored
// kind) that ENCODING AUTO (or a column's explicit kind) leaves in the ROS,
// for analytic_cold, the serving workloads' sales and ingest_query's events
// after one writer batch and a mover cycle. A codec that starts or stops
// winning somewhere shows here before it shows in the benchmark's
// stored_bytes_per_user_byte.
func TestBenchmarkFixtureEncodings(t *testing.T) {
	var out strings.Builder
	census := func(label string, db *Database) {
		t.Helper()
		type cell struct{ blocks, bytes int64 }
		cells := map[string]*cell{}
		for _, p := range db.Catalog().Projections() {
			for _, n := range db.Cluster().Nodes() {
				mgr, err := n.Mgr(p, db.Cluster().ManagerOpts())
				if err != nil {
					t.Fatal(err)
				}
				for _, r := range mgr.Containers() {
					for c, col := range r.Meta.Cols {
						pidx, err := r.Pidx(c)
						if err != nil {
							t.Fatal(err)
						}
						files, _ := filepath.Glob(filepath.Join(r.Dir, fmt.Sprintf("c%d_*.dat", c)))
						if len(files) != 1 {
							t.Fatalf("%s column %d: data files %v", r.Dir, c, files)
						}
						data, err := os.ReadFile(files[0])
						if err != nil {
							t.Fatal(err)
						}
						for _, e := range pidx {
							kind, err := encoding.BlockKind(data[e.Offset : e.Offset+e.Length])
							if err != nil {
								t.Fatal(err)
							}
							key := fmt.Sprintf("%s.%s %s %s", p.Anchor, col.Name, col.Typ, kind)
							if cells[key] == nil {
								cells[key] = &cell{}
							}
							cells[key].blocks++
							cells[key].bytes += e.Length
						}
					}
				}
			}
		}
		keys := make([]string, 0, len(cells))
		for k := range cells {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		fmt.Fprintf(&out, "== %s\n", label)
		for _, k := range keys {
			fmt.Fprintf(&out, "%s blocks=%d bytes=%d\n", k, cells[k].blocks, cells[k].bytes)
		}
	}
	census("analytic_cold", analyticFixture(t))
	census("serving", salesFixture(t))
	db := eventsFixture(t)
	db.MustExecute(eventsInsert(planEventsRows))
	if _, _, err := db.RunTupleMover(); err != nil {
		t.Fatal(err)
	}
	census("ingest_query", db)
	checkGolden(t, "bench_encodings.golden", out.String(), *updateEncodings, "update-encodings")
}
