package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// stmt is one generated statement with its correctness check and, for the
// storage probe, the blocks it reads.
type stmt struct {
	sql   string
	check func(result) error
	scans []scanSpec
	rows  int // rows an INSERT writes; 0 for a query
}

// op is one closed-loop operation: its statements in order, then for the
// ingest writer possibly one tuple-mover cycle.
type op struct {
	stmts []stmt
	mover bool
}

// client is one closed-loop caller. next is called only after the previous
// operation has been acknowledged.
type client struct {
	writer bool
	next   func(*rand.Rand) op
}

// fixture is one set-up instance of a workload.
type fixture struct {
	dir       string // the run's database directory, removed by tearDown
	e         *engine
	addr      string       // loopback server, wire workloads only
	setupSecs float64      // create + load + mover + ANALYZE + server start
	loadRows  int64        // rows bulk-loaded by set-up
	loadSecs  float64      // load + mover wall time
	userBytes atomic.Int64 // raw bytes of every acknowledged row
	clients   []client
	oracle    *baseline // analytic_cold only
	oracleMs  float64   // one baseline pass Q1..Q7
}

// timed adds f's wall time to the set-up time.
func (fx *fixture) timed(f func() error) error {
	start := time.Now()
	err := f()
	fx.setupSecs += time.Since(start).Seconds()
	return err
}

// workload is one named benchmark workload. build creates and loads the
// tables on fx.e, then builds the oracle and the clients' statement generators.
type workload struct {
	name        string
	why         string
	loop        string
	parallelism int   // core.Options.Parallelism
	wire        bool  // clients speak the TCP protocol
	cache       int64 // decoded-block cache budget at scale 1
	cacheScales bool  // budget follows the data scale (kept at a fixed ratio to the data)
	data        string
	// standIns are the end-to-end metrics this workload cannot measure as
	// defined (no writer, or no socket) and reports a stand-in for, because
	// every run must report every end-to-end metric; see README.md.
	standIns []string
	build    func(fx *fixture, cfg config) error
}

var workloads = []workload{
	{
		name: "analytic_cold",
		why: "Table 3's seven queries on data six times the decoded-block cache, so block decode, " +
			"encoding, scan/group-by/join/SIP and the 2-way exchange do the work",
		loop: "closed, 1 in-process session, Parallelism 2", parallelism: 2,
		cache: 2 << 20, cacheScales: true,
		data:     "lineitem 250000 + orders 62500 rows, about 12.5 MB decoded against a 2 MiB block cache (6:1)",
		standIns: []string{"ingest_rows_per_s", "wire_bytes_per_row"},
		build:    buildAnalytic,
	},
	{
		name: "serving_hot",
		why: "point lookups and small aggregates over TCP with plan and block caches hitting, so " +
			"socket, parse, fingerprint, plan cache, per-node plan, admission and render do the work",
		loop: "closed, 2 text connections on 127.0.0.1", wire: true, cache: defaultBlockCache,
		data:     "sales 200000 rows, about 6 MB decoded inside the default 64 MiB block cache; 64 hot keys",
		standIns: []string{"ingest_rows_per_s"},
		build:    func(fx *fixture, cfg config) error { return buildServing(fx, cfg, false) },
	},
	{
		name: "serving_fetch",
		why: "8192-row results over TCP with plan and blocks cached, so row materialisation, text " +
			"render, socket write and client decode do the work",
		loop: "closed, 2 text connections on 127.0.0.1", wire: true, cache: defaultBlockCache,
		data:     "sales 200000 rows inside the default 64 MiB block cache; 16 hot range starts",
		standIns: []string{"ingest_rows_per_s"},
		build:    func(fx *fixture, cfg config) error { return buildServing(fx, cfg, true) },
	},
	{
		name: "ingest_query",
		why: "200-row trickle INSERTs and a count-triggered tuple mover beside a reader of the newest " +
			"rows, so txn, WOS, moveout/mergeout, block encode and the storage writer do the work",
		loop: "closed, 1 writer session + 1 reader session", parallelism: 0, cache: defaultBlockCache,
		data:     "events 200000 rows preloaded, partitioned by id / 40000; reader window 50000 ids; mover cycle every 50 batches",
		standIns: []string{"wire_bytes_per_row"},
		build:    buildIngest,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// scaled is n rows at the configured scale, never below floor.
func scaled(n int, cfg config, floor int) int {
	return max(floor, int(float64(n)*cfg.scale))
}

// seedOffset shifts the closed-form generators, so another seed gives other
// rows as well as other keys.
func seedOffset(cfg config) int { return int((cfg.seed%1000 + 1000) % 1000) }

// rawBytes is the user-data size of rows: 8 bytes per int, float or
// timestamp, the string length per varchar.
func rawBytes(rows []row) (n int64) {
	for _, r := range rows {
		for _, v := range r {
			if isString(v) {
				n += int64(len(v.S))
			} else {
				n += 8
			}
		}
	}
	return n
}

// --- analytic_cold -----------------------------------------------------------

// digest is an order-independent summary of (group key, aggregate) rows:
// cardinality, a wrapping sum of key-hash x integer aggregate, and a
// key-weighted sum of float aggregates compared to 1e-9 relative (parallel
// plans add floats in another order than the baseline does).
type digest struct {
	rows   int
	ints   uint64
	floats float64
}

func digestOf(rows []row) digest {
	d := digest{rows: len(rows)}
	for _, r := range rows {
		h := fnv.New64a()
		h.Write([]byte(r[0].String()))
		k := h.Sum64()
		if agg := r[len(r)-1]; isFloat(agg) {
			d.floats += agg.F * (1 + float64(k%1024)/1024)
		} else {
			d.ints += k * uint64(agg.I)
		}
	}
	return d
}

func (d digest) equal(o digest) bool {
	return d.rows == o.rows && d.ints == o.ints &&
		math.Abs(d.floats-o.floats) <= 1e-9*math.Max(math.Abs(d.floats), math.Abs(o.floats))
}

// table3Days are the date constants of Q1..Q7 (of 730 generated days), as in
// internal/bench.
var table3Days = [7]int{700, 300, 0, 650, 300, 600, 500}

func table3Statements() [7]stmt {
	d := func(i int) string { return tsLiteral(benchDay(table3Days[i])) }
	day := func(n int) *value { v := benchDay(n); return &v }
	const join = ` FROM lineitem JOIN orders ON l_orderkey = o_orderkey WHERE o_orderdate `
	li := func(lo, hi *value, cols ...string) scanSpec {
		return scanSpec{projection: "lineitem_super", cols: cols, lo: lo, hi: hi}
	}
	orders := scanSpec{projection: "orders_super", cols: []string{"o_orderkey", "o_orderdate"}}
	return [7]stmt{
		{sql: `SELECT l_shipdate, COUNT(*) FROM lineitem WHERE l_shipdate > ` + d(0) + ` GROUP BY l_shipdate`,
			scans: []scanSpec{li(day(700), nil, "l_shipdate")}},
		{sql: `SELECT l_suppkey, COUNT(*) FROM lineitem WHERE l_shipdate = ` + d(1) + ` GROUP BY l_suppkey`,
			scans: []scanSpec{li(day(300), day(301), "l_shipdate", "l_suppkey")}},
		{sql: `SELECT l_suppkey, COUNT(*) FROM lineitem WHERE l_shipdate > ` + d(2) + ` GROUP BY l_suppkey`,
			scans: []scanSpec{li(day(0), nil, "l_shipdate", "l_suppkey")}},
		{sql: `SELECT o_orderdate, COUNT(*)` + join + `> ` + d(3) + ` GROUP BY o_orderdate`,
			scans: []scanSpec{li(nil, nil, "l_orderkey"), orders}},
		{sql: `SELECT l_suppkey, COUNT(*)` + join + `= ` + d(4) + ` GROUP BY l_suppkey`,
			scans: []scanSpec{li(nil, nil, "l_orderkey", "l_suppkey"), orders}},
		{sql: `SELECT l_suppkey, COUNT(*)` + join + `> ` + d(5) + ` GROUP BY l_suppkey`,
			scans: []scanSpec{li(nil, nil, "l_orderkey", "l_suppkey"), orders}},
		{sql: `SELECT l_returnflag, AVG(l_extendedprice)` + join + `> ` + d(6) + ` GROUP BY l_returnflag`,
			scans: []scanSpec{li(nil, nil, "l_orderkey", "l_returnflag", "l_extendedprice"), orders}},
	}
}

func buildAnalytic(fx *fixture, cfg config) error {
	n := scaled(250_000, cfg, 2_000)
	lineitem, orders := lineitemOrders(n, cfg.seed)
	err := fx.timed(func() error {
		if err := fx.e.exec(
			`CREATE TABLE lineitem (l_orderkey INT, l_suppkey INT, l_shipdate TIMESTAMP,
				l_extendedprice FLOAT, l_returnflag VARCHAR)`,
			`CREATE TABLE orders (o_orderkey INT, o_orderdate TIMESTAMP, o_custkey INT)`,
			`CREATE PROJECTION lineitem_super ON lineitem
				(l_shipdate, l_suppkey, l_orderkey, l_extendedprice, l_returnflag)
				ORDER BY l_shipdate, l_suppkey SEGMENTED BY HASH(l_orderkey)`,
			`CREATE PROJECTION orders_super ON orders (o_orderkey, o_orderdate, o_custkey)
				ORDER BY o_orderkey REPLICATED`); err != nil {
			return err
		}
		// Four direct loads leave four containers per local segment for the
		// mover run to merge, as a chunked bulk load would.
		start := time.Now()
		for c := 0; c < 4; c++ {
			if err := fx.e.load("lineitem", lineitem[c*n/4:(c+1)*n/4]); err != nil {
				return err
			}
		}
		if err := fx.e.load("orders", orders); err != nil {
			return err
		}
		if _, _, err := fx.e.mover(); err != nil {
			return err
		}
		fx.loadRows, fx.loadSecs = int64(len(lineitem)+len(orders)), time.Since(start).Seconds()
		return fx.e.exec(`ANALYZE_STATISTICS('lineitem')`, `ANALYZE_STATISTICS('orders')`)
	})
	if err != nil {
		return err
	}
	fx.userBytes.Store(rawBytes(lineitem) + rawBytes(orders))

	// The oracle: the tuple-at-a-time baseline answers each query once.
	oracle := newBaseline(lineitem, orders)
	fx.oracle = &oracle
	pass := table3Statements()
	start := time.Now()
	for i := range pass {
		rows, err := oracle.query(i, benchDay(table3Days[i]))
		if err != nil {
			return err
		}
		want, name := digestOf(rows), fmt.Sprintf("Q%d", i+1)
		pass[i].check = func(res result) error {
			if got := digestOf(res.rows); !got.equal(want) {
				return fmt.Errorf("%s: got %+v, baseline %+v", name, got, want)
			}
			return nil
		}
	}
	fx.oracleMs = time.Since(start).Seconds() * 1e3
	fx.clients = []client{{next: func(*rand.Rand) op { return op{stmts: pass[:]} }}}
	return nil
}

// --- serving_hot / serving_fetch ---------------------------------------------

// sales is the closed-form generator of the serving table: row i is a
// function of i and the seed alone, so every result can be checked without
// keeping the rows.
type sales struct{ s int }

func (g sales) cust(i int) int64    { return int64((i*31 + g.s) % 997) }
func (g sales) price(i int) float64 { return float64((i*7+g.s)%9973) / 100 }
func (g sales) qty(i int) int64     { return int64((i+g.s)%7 + 1) }
func (g sales) row(i int) row {
	return row{intVal(int64(i)), intVal(g.cust(i)), floatVal(g.price(i)), intVal(g.qty(i))}
}

const (
	aggWidth   = 1024
	fetchWidth = 8192
)

func buildServing(fx *fixture, cfg config, fetch bool) error {
	n := scaled(200_000, cfg, 4*fetchWidth)
	g := sales{seedOffset(cfg)}
	rows := make([]row, n)
	for i := range rows {
		rows[i] = g.row(i)
	}
	err := fx.timed(func() error {
		if err := fx.e.exec(
			`CREATE TABLE sales (sale_id INT, cust INT, price FLOAT, qty INT)`,
			`CREATE PROJECTION sales_super ON sales (sale_id, cust, price, qty)
				ORDER BY sale_id SEGMENTED BY HASH(sale_id)`); err != nil {
			return err
		}
		start := time.Now()
		if err := fx.e.load("sales", rows); err != nil {
			return err
		}
		fx.loadRows, fx.loadSecs = int64(n), time.Since(start).Seconds()
		if err := fx.e.exec(`ANALYZE_STATISTICS('sales')`); err != nil {
			return err
		}
		var err error
		fx.addr, err = fx.e.serve()
		return err
	})
	if err != nil {
		return err
	}
	fx.userBytes.Store(rawBytes(rows))

	// Hot keys come from the upper half of the table, where every sale_id has
	// the same number of digits: wire bytes per row then do not depend on
	// which keys a seed happens to draw.
	rng := rand.New(rand.NewSource(cfg.seed))
	hotKey := func(width int) int { return n/2 + rng.Intn(n/2-width) }
	scan := func(lo, width int, cols ...string) []scanSpec {
		l, h := intVal(int64(lo)), intVal(int64(lo+width))
		return []scanSpec{{projection: "sales_super", cols: cols, lo: &l, hi: &h}}
	}
	var hot []stmt
	if fetch {
		for range 16 {
			k := hotKey(fetchWidth)
			wantSum := int64(fetchWidth) * int64(2*k+fetchWidth-1) / 2
			hot = append(hot, stmt{
				sql: fmt.Sprintf(`SELECT sale_id, cust, price, qty FROM sales WHERE sale_id >= %d AND sale_id < %d`, k, k+fetchWidth),
				check: func(res result) error {
					var sum int64
					for _, r := range res.text {
						id, _ := strconv.ParseInt(r[0], 10, 64)
						sum += id
					}
					if len(res.text) != fetchWidth || sum != wantSum {
						return fmt.Errorf("fetch %d: %d rows, sale_id sum %d, want %d and %d", k, len(res.text), sum, fetchWidth, wantSum)
					}
					return nil
				},
				scans: scan(k, fetchWidth, "sale_id", "cust", "price", "qty"),
			})
		}
	} else {
		for range 64 {
			k := hotKey(aggWidth)
			wantSum := 0.0
			for i := k; i < k+aggWidth; i++ {
				wantSum += g.price(i)
			}
			hot = append(hot, stmt{ // point lookup
				sql: fmt.Sprintf(`SELECT price, qty FROM sales WHERE sale_id = %d`, k),
				check: func(res result) error {
					if len(res.text) != 1 || len(res.text[0]) != 2 {
						return fmt.Errorf("point %d: %d rows", k, len(res.text))
					}
					price, _ := strconv.ParseFloat(res.text[0][0], 64)
					qty, _ := strconv.ParseInt(res.text[0][1], 10, 64)
					if price != g.price(k) || qty != g.qty(k) {
						return fmt.Errorf("point %d: got (%v, %d), want (%v, %d)", k, price, qty, g.price(k), g.qty(k))
					}
					return nil
				},
				scans: scan(k, 1, "sale_id", "price", "qty"),
			}, stmt{ // range aggregate
				sql: fmt.Sprintf(`SELECT COUNT(*), SUM(price) FROM sales WHERE sale_id >= %d AND sale_id < %d`, k, k+aggWidth),
				check: func(res result) error {
					if len(res.text) != 1 || len(res.text[0]) != 2 {
						return fmt.Errorf("aggregate %d: %d rows", k, len(res.text))
					}
					count, _ := strconv.ParseInt(res.text[0][0], 10, 64)
					sum, _ := strconv.ParseFloat(res.text[0][1], 64)
					if count != aggWidth || math.Abs(sum-wantSum) > 1e-6 {
						return fmt.Errorf("aggregate %d: got (%d, %v), want (%d, %v)", k, count, sum, aggWidth, wantSum)
					}
					return nil
				},
				scans: scan(k, aggWidth, "sale_id", "price"),
			})
		}
	}
	next := func(rng *rand.Rand) op {
		if fetch {
			i := rng.Intn(len(hot))
			return op{stmts: hot[i : i+1]}
		}
		// 80 % point lookups, 20 % aggregates: hot holds them in pairs.
		i := 2 * rng.Intn(len(hot)/2)
		if rng.Float64() >= 0.8 {
			i++
		}
		return op{stmts: hot[i : i+1]}
	}
	fx.clients = []client{{next: next}, {next: next}}
	return nil
}

// --- ingest_query ------------------------------------------------------------

const (
	ingestBatch = 200 // rows per INSERT
	moverEvery  = 50  // INSERT batches between tuple-mover cycles
)

// events is the closed-form generator of the ingest table.
type events struct{ s int }

var eventNotes = [4]string{"alpha", "beta", "gamma", "delta-long-note"}

func (g events) row(i int) row {
	return row{intVal(int64(i)), intVal(int64((i*7 + g.s) % 16)), floatVal(float64((i*13+g.s)%1000) / 8),
		tsVal(1_293_840_000_000_000 + int64(i)*1_000_000), strVal(eventNotes[(i+g.s)%4])}
}

func buildIngest(fx *fixture, cfg config) error {
	n := scaled(200_000, cfg, 4_000)
	g := events{seedOffset(cfg)}
	rows := make([]row, n)
	for i := range rows {
		rows[i] = g.row(i)
	}
	err := fx.timed(func() error {
		if err := fx.e.exec(
			fmt.Sprintf(`CREATE TABLE events (id INT, grp INT, val FLOAT, ts TIMESTAMP, note VARCHAR)
				PARTITION BY id / %d`, n/5),
			`CREATE PROJECTION events_super ON events (id, grp, val, ts, note)
				ORDER BY id SEGMENTED BY HASH(id)`); err != nil {
			return err
		}
		start := time.Now()
		if err := fx.e.load("events", rows); err != nil {
			return err
		}
		fx.loadRows, fx.loadSecs = int64(n), time.Since(start).Seconds()
		return fx.e.exec(`ANALYZE_STATISTICS('events')`)
	})
	if err != nil {
		return err
	}
	fx.userBytes.Store(rawBytes(rows))

	// committed is the watermark the writer shares with the reader: every id
	// below it is acknowledged, and ids are dense.
	var committed atomic.Int64
	committed.Store(int64(n))
	window := int64(n / 4)
	nextID, batches, pendingBytes := n, 0, int64(0)
	writer := func(*rand.Rand) op {
		// The previous batch is acknowledged by now.
		committed.Store(int64(nextID))
		fx.userBytes.Add(pendingBytes)
		var sb strings.Builder
		sb.WriteString("INSERT INTO events VALUES ")
		batch := make([]row, ingestBatch)
		for j := range batch {
			r := g.row(nextID + j)
			batch[j] = r
			if j > 0 {
				sb.WriteString(", ")
			}
			fmt.Fprintf(&sb, "(%d, %d, %v, %s, '%s')", r[0].I, r[1].I, r[2].F, tsLiteral(r[3]), r[4].S)
		}
		nextID += ingestBatch
		pendingBytes = rawBytes(batch)
		batches++
		return op{stmts: []stmt{{sql: sb.String(), rows: ingestBatch}}, mover: batches%moverEvery == 0}
	}
	reader := func(*rand.Rand) op {
		hi := committed.Load()
		lo := hi - window
		l, h := intVal(lo), intVal(hi)
		return op{stmts: []stmt{{
			sql: fmt.Sprintf(`SELECT grp, COUNT(*), AVG(val) FROM events WHERE id >= %d AND id < %d GROUP BY grp`, lo, hi),
			check: func(res result) error {
				var total int64
				for _, r := range res.rows {
					total += r[1].I
				}
				if total != hi-lo {
					return fmt.Errorf("reader [%d, %d): counted %d rows, want %d", lo, hi, total, hi-lo)
				}
				return nil
			},
			scans: []scanSpec{{projection: "events_super", cols: []string{"id", "grp", "val"}, lo: &l, hi: &h}},
		}}}
	}
	fx.clients = []client{{writer: true, next: writer}, {next: reader}}
	return nil
}
