// Package bench implements the paper's evaluation harness (§8): it loads
// the benchmark datasets into both engines and runs the experiments behind
// Table 3 (C-Store vs Vertica on the seven C-Store benchmark queries plus
// disk footprint) and Table 4 (compression on random integers and customer
// meter data). The root benchmarks (`make bench`) report them.
package bench

import (
	"repro/internal/core"
	"repro/internal/cstore"
	"repro/internal/gen"
	"repro/internal/types"
)

// day thresholds for the seven queries (out of 730 generated days).
var (
	d1 = gen.Day(700) // Q1: selective shipdate range
	d2 = gen.Day(300) // Q2: shipdate point
	d3 = gen.Day(0)   // Q3: full shipdate range
	d4 = gen.Day(650) // Q4: selective orderdate range, join
	d5 = gen.Day(300) // Q5: orderdate point, join
	d6 = gen.Day(600) // Q6: orderdate range, join
	d7 = gen.Day(500) // Q7: orderdate range, join, AVG
)

// SetupVertica loads the C-Store benchmark into the main engine: lineitem
// with a shipdate-sorted super projection, orders replicated and sorted by
// its key (so the join is key-ordered).
func SetupVertica(dir string, nLineitem int, parallelism int) (*core.Database, error) {
	db, err := core.Open(core.Options{Dir: dir, Nodes: 1, Parallelism: parallelism})
	if err != nil {
		return nil, err
	}
	stmts := []string{
		`CREATE TABLE lineitem (l_orderkey INT, l_suppkey INT, l_shipdate TIMESTAMP,
			l_extendedprice FLOAT, l_returnflag VARCHAR)`,
		`CREATE TABLE orders (o_orderkey INT, o_orderdate TIMESTAMP, o_custkey INT)`,
		`CREATE PROJECTION lineitem_super ON lineitem
			(l_shipdate, l_suppkey, l_orderkey, l_extendedprice, l_returnflag)
			ORDER BY l_shipdate, l_suppkey SEGMENTED BY HASH(l_orderkey)`,
		`CREATE PROJECTION orders_super ON orders (o_orderkey, o_orderdate, o_custkey)
			ORDER BY o_orderkey REPLICATED`,
	}
	for _, s := range stmts {
		if _, err := db.Execute(s); err != nil {
			return nil, err
		}
	}
	lineitem, orders := gen.LineitemOrders(nLineitem, 42)
	if err := db.Load("lineitem", lineitem, true); err != nil {
		return nil, err
	}
	if err := db.Load("orders", orders, true); err != nil {
		return nil, err
	}
	if _, _, err := db.RunTupleMover(); err != nil {
		return nil, err
	}
	return db, nil
}

// SetupCStore loads the same data into the baseline engine: lineitem as two
// partial projections linked by a join index (shipdate-sorted front columns;
// orderkey/price/flag in an orderkey-sorted group), orders sorted by key.
func SetupCStore(nLineitem int) *cstore.Store {
	st := cstore.NewStore()
	lineitem, orders := gen.LineitemOrders(nLineitem, 42)
	// Columns: 0 l_orderkey, 1 l_suppkey, 2 l_shipdate, 3 l_extendedprice,
	// 4 l_returnflag. Sorted by shipdate; group2 = {0, 3, 4} sorted by
	// orderkey, reached via the join index.
	st.LoadPartial("lineitem", gen.LineitemSchema(), lineitem, 2, 0, []int{0, 3, 4})
	st.Load("orders", gen.OrdersSchema(), orders, 0)
	return st
}

// verticaQueries are the seven C-Store benchmark queries in SQL.
func verticaQueries() []string {
	ts := func(v types.Value) string { return "TIMESTAMP '" + v.String() + "'" }
	return []string{
		`SELECT l_shipdate, COUNT(*) FROM lineitem WHERE l_shipdate > ` + ts(d1) + ` GROUP BY l_shipdate`,
		`SELECT l_suppkey, COUNT(*) FROM lineitem WHERE l_shipdate = ` + ts(d2) + ` GROUP BY l_suppkey`,
		`SELECT l_suppkey, COUNT(*) FROM lineitem WHERE l_shipdate > ` + ts(d3) + ` GROUP BY l_suppkey`,
		`SELECT o_orderdate, COUNT(*) FROM lineitem JOIN orders ON l_orderkey = o_orderkey
			WHERE o_orderdate > ` + ts(d4) + ` GROUP BY o_orderdate`,
		`SELECT l_suppkey, COUNT(*) FROM lineitem JOIN orders ON l_orderkey = o_orderkey
			WHERE o_orderdate = ` + ts(d5) + ` GROUP BY l_suppkey`,
		`SELECT l_suppkey, COUNT(*) FROM lineitem JOIN orders ON l_orderkey = o_orderkey
			WHERE o_orderdate > ` + ts(d6) + ` GROUP BY l_suppkey`,
		`SELECT l_returnflag, AVG(l_extendedprice) FROM lineitem JOIN orders ON l_orderkey = o_orderkey
			WHERE o_orderdate > ` + ts(d7) + ` GROUP BY l_returnflag`,
	}
}

// RunVerticaQuery executes benchmark query i (0-based) on the main engine.
func RunVerticaQuery(db *core.Database, i int) (int, error) {
	res, err := db.Execute(verticaQueries()[i])
	if err != nil {
		return 0, err
	}
	return len(res.Rows), nil
}

// RunCStoreQuery executes benchmark query i on the baseline engine,
// tuple-at-a-time and single-threaded.
func RunCStoreQuery(st *cstore.Store, i int) (int, error) {
	li, err := st.Table("lineitem")
	if err != nil {
		return 0, err
	}
	ord, err := st.Table("orders")
	if err != nil {
		return 0, err
	}
	gt := func(col int, v types.Value) func(types.Row) bool {
		return func(r types.Row) bool { return !r[col].Null && r[col].Compare(v) > 0 }
	}
	eq := func(col int, v types.Value) func(types.Row) bool {
		return func(r types.Row) bool { return !r[col].Null && r[col].Compare(v) == 0 }
	}
	switch i {
	case 0: // shipdate, count(*) where shipdate > d1 group by shipdate
		it := cstore.Filter(li.Scan([]int{2}), gt(0, d1))
		return len(cstore.GroupAgg(it, 0, cstore.CountStar, -1)), nil
	case 1: // suppkey, count(*) where shipdate = d2 group by suppkey
		it := cstore.Filter(li.Scan([]int{2, 1}), eq(0, d2))
		return len(cstore.GroupAgg(it, 1, cstore.CountStar, -1)), nil
	case 2: // suppkey, count(*) where shipdate > d3 group by suppkey
		it := cstore.Filter(li.Scan([]int{2, 1}), gt(0, d3))
		return len(cstore.GroupAgg(it, 1, cstore.CountStar, -1)), nil
	case 3: // join, where o_orderdate > d4, group by o_orderdate
		// lineitem scan pulls l_orderkey through the join index.
		it := cstore.HashJoin(li.Scan([]int{0}), 0, ord, 0, []int{1})
		it = cstore.Filter(it, gt(1, d4))
		return len(cstore.GroupAgg(it, 1, cstore.CountStar, -1)), nil
	case 4: // join, o_orderdate = d5, group by suppkey
		it := cstore.HashJoin(li.Scan([]int{0, 1}), 0, ord, 0, []int{1})
		it = cstore.Filter(it, eq(2, d5))
		return len(cstore.GroupAgg(it, 1, cstore.CountStar, -1)), nil
	case 5: // join, o_orderdate > d6, group by suppkey
		it := cstore.HashJoin(li.Scan([]int{0, 1}), 0, ord, 0, []int{1})
		it = cstore.Filter(it, gt(2, d6))
		return len(cstore.GroupAgg(it, 1, cstore.CountStar, -1)), nil
	default: // join, o_orderdate > d7, group by returnflag, avg(price)
		it := cstore.HashJoin(li.Scan([]int{0, 4, 3}), 0, ord, 0, []int{1})
		it = cstore.Filter(it, gt(3, d7))
		return len(cstore.GroupAgg(it, 1, cstore.AvgFloat, 2)), nil
	}
}

// VerticaDiskBytes sums the encoded data bytes of every projection: the
// engine's side of Table 3's disk row.
func VerticaDiskBytes(db *core.Database) int64 {
	var total int64
	for _, p := range db.Catalog().Projections() {
		for _, n := range db.Cluster().Nodes() {
			mgr, err := n.Mgr(p, db.Cluster().ManagerOpts())
			if err != nil {
				continue
			}
			total += mgr.TotalBytes()
		}
	}
	return total
}
