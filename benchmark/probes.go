package main

// Every call the benchmark makes into the engine is in this file; the list of
// what it touches is in README.md ("Public surface the probes use"). The rest
// of the benchmark sees the engine only through the types declared here.

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/catalog"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/cstore"
	"repro/internal/encoding"
	"repro/internal/exec"
	"repro/internal/gen"
	"repro/internal/metrics"
	"repro/internal/optimizer"
	"repro/internal/server"
	"repro/internal/sql"
	"repro/internal/storage"
	"repro/internal/types"
	"repro/internal/vector"
)

type (
	row   = types.Row
	value = types.Value
)

func intVal(v int64) value     { return types.NewInt(v) }
func floatVal(v float64) value { return types.NewFloat(v) }
func strVal(s string) value    { return types.NewString(s) }
func tsVal(micros int64) value { return types.NewTimestampMicros(micros) }
func isFloat(v value) bool     { return v.Typ == types.Float64 }
func isString(v value) bool    { return v.Typ == types.Varchar }

// tsLiteral renders a timestamp value as a SQL literal.
func tsLiteral(v value) string { return "TIMESTAMP '" + v.String() + "'" }

// defaultBlockCache is the engine's own decoded-block cache budget.
const defaultBlockCache = storage.DefaultBlockCacheBytes

// setBlockCache resizes the process-wide decoded-block cache, dropping every
// cached block first so no workload starts on another's blocks.
func setBlockCache(bytes int64) {
	storage.SetBlockCacheBudget(0)
	storage.SetBlockCacheBudget(bytes)
}

// lineitemOrders is the C-Store benchmark generator (Table 3 data).
func lineitemOrders(n int, seed int64) (lineitem, orders []row) {
	return gen.LineitemOrders(n, seed)
}

// benchDay is day d of the C-Store benchmark calendar.
func benchDay(d int) value { return gen.Day(d) }

// engine is one open database and, while serving, its loopback server.
type engine struct {
	db          *core.Database
	parallelism int
	srv         *server.Server
	served      chan error
}

func openEngine(dir string, parallelism int) (*engine, error) {
	tmp := filepath.Join(dir, "spill")
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return nil, err
	}
	db, err := core.Open(core.Options{Dir: filepath.Join(dir, "db"), TempDir: tmp,
		Nodes: 1, Parallelism: parallelism, LogWriter: io.Discard})
	if err != nil {
		return nil, err
	}
	return &engine{db: db, parallelism: parallelism}, nil
}

// exec runs set-up statements (DDL, ANALYZE_STATISTICS).
func (e *engine) exec(stmts ...string) error {
	for _, s := range stmts {
		if _, err := e.db.Execute(s); err != nil {
			return fmt.Errorf("%s: %w", strings.Fields(s)[0], err)
		}
	}
	return nil
}

// load bulk-loads rows straight to ROS containers (paper §7 direct load).
func (e *engine) load(table string, rows []row) error {
	return e.db.Load(table, rows, true)
}

// mover runs one moveout + mergeout cycle on every projection.
func (e *engine) mover() (moved, merged int, err error) { return e.db.RunTupleMover() }

// serve starts the TCP server on a loopback port and returns its address.
func (e *engine) serve() (string, error) {
	e.srv = server.New(e.db, server.Config{Addr: "127.0.0.1:0"})
	if err := e.srv.Listen(); err != nil {
		return "", err
	}
	e.served = make(chan error, 1)
	go func() { e.served <- e.srv.Serve() }()
	return e.srv.Addr().String(), nil
}

// close drains and stops the server, waiting for its accept loop to end.
func (e *engine) close() {
	if e.srv == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = e.srv.Shutdown(ctx) // a drain timeout only means statements were cancelled
	<-e.served
	e.srv = nil
}

// storageTotals sums the stored state of every projection on node 0.
type storageTotals struct {
	bytes, rows, wosRows int64
	containers           int
}

func (e *engine) storage() (storageTotals, error) {
	var t storageTotals
	for _, p := range e.db.Catalog().Projections() {
		mgr, err := e.db.Cluster().Node(0).Mgr(p, e.db.Cluster().ManagerOpts())
		if err != nil {
			return t, err
		}
		t.bytes += mgr.TotalBytes()
		t.rows += mgr.RowCount()
		t.wosRows += int64(mgr.WOS().Len())
		t.containers += len(mgr.Containers())
	}
	return t, nil
}

// counters snapshots the engine's metrics registry.
func counters() map[string]int64 {
	out := map[string]int64{}
	for _, s := range metrics.Default.Snapshot() {
		out[s.Name] = s.Value
	}
	return out
}

// moverBytes sums the input bytes of mergeouts recorded since a time, and
// lockWait the lock waits, both from the Data Collector rings.
func (e *engine) moverBytes(since time.Time) (bytes int64) {
	for _, ev := range e.db.Collector().MoverEvents() {
		if ev.Op == "mergeout" && !ev.Time.Before(since) {
			bytes += ev.Bytes
		}
	}
	return bytes
}

func (e *engine) lockWait(since time.Time) (wait time.Duration) {
	for _, ev := range e.db.Collector().LockEvents() {
		if !ev.Time.Before(since) {
			wait += ev.Wait
		}
	}
	return wait
}

// conn is one closed-loop client: a wire connection or an in-process session.
type conn struct {
	wire *server.Client
	sess *core.Session
}

// result is a statement's rows in the form its conn returns them.
type result struct {
	text [][]string // wire
	rows []row      // in-process
}

func (r result) len() int { return len(r.text) + len(r.rows) }

func dial(addr, format string) (*server.Client, error) {
	c, err := server.Dial(addr)
	if err != nil {
		return nil, err
	}
	if format != "text" {
		if err := c.Format(format); err != nil {
			c.Close()
			return nil, err
		}
	}
	return c, nil
}

func wireConn(addr string) (conn, error) {
	c, err := dial(addr, "text")
	return conn{wire: c}, err
}

func (e *engine) sessionConn() conn { return conn{sess: e.db.NewSession()} }

func (c conn) do(sqlText string) (result, error) {
	if c.wire != nil {
		res, err := c.wire.Exec(sqlText)
		if err != nil {
			return result{}, err
		}
		return result{text: res.Rows}, nil
	}
	res, err := c.sess.Execute(sqlText)
	if err != nil {
		return result{}, err
	}
	return result{rows: res.Rows}, nil
}

func (c conn) bytesRead() int64 {
	if c.wire == nil {
		return 0
	}
	return c.wire.BytesRead()
}

func (c conn) close() {
	if c.wire != nil {
		c.wire.Close()
	}
	if c.sess != nil {
		c.sess.Close()
	}
}

// scanSpec names the blocks a statement reads from one projection: every
// block of cols whose key-column range meets [lo, hi) (nil = unbounded). The
// key column leads cols.
type scanSpec struct {
	projection string
	cols       []string
	lo, hi     *value
}

// provider lets optimizer.Plan see node 0's storage, as the cluster's own
// per-node provider does.
type provider struct{ e *engine }

func (p provider) Catalog() *catalog.Catalog { return p.e.db.Catalog() }

func (p provider) ProjectionData(name string) (*storage.Manager, error) {
	proj, err := p.e.db.Catalog().Projection(name)
	if err != nil {
		return nil, err
	}
	return p.e.db.Cluster().Node(0).Mgr(proj, p.e.db.Cluster().ManagerOpts())
}

type blockID struct {
	r   *storage.ContainerReader
	col int
	pos int64
}

// prober runs one client's statements through the layer chain, one public
// entry point at a time, and accumulates the counts the spans do not carry.
type prober struct {
	e       *engine
	wire    bool // the workload's clients speak the wire protocol
	text    *server.Client
	binary  *server.Client
	sess    *core.Session
	plans   map[string]optimizer.ProbeInfo // by fingerprint: replays a plan-cache hit
	encoded map[blockID][]byte             // scanned blocks, re-encoded once
	probeCounts
}

// probeCounts is what a prober counts beside its spans; the clients' counts
// add up to the run's.
type probeCounts struct {
	textWire wireCount
	binWire  wireCount
	scanRows int64 // rows in the key-column blocks the scan probe read
	outRows  int64 // rows the probed statements returned
	scan     unitCost
	decode   unitCost
	encode   unitCost
	encBytes int64
	allocKB  float64 // largest Result.Stats.AllocPeak seen
}

func (c *probeCounts) add(o probeCounts) {
	c.textWire.add(o.textWire)
	c.binWire.add(o.binWire)
	c.scanRows += o.scanRows
	c.outRows += o.outRows
	c.scan.add(o.scan)
	c.decode.add(o.decode)
	c.encode.add(o.encode)
	c.encBytes += o.encBytes
	c.allocKB = max(c.allocKB, o.allocKB)
}

type wireCount struct{ bytes, rows int64 }

// unitCost accumulates time over a number of values.
type unitCost struct {
	ns     int64
	values int64
}

func newProber(e *engine, addr string, wire bool) (*prober, error) {
	text, err := dial(addr, "text")
	if err != nil {
		return nil, err
	}
	binary, err := dial(addr, "binary")
	if err != nil {
		text.Close()
		return nil, err
	}
	return &prober{e: e, wire: wire, text: text, binary: binary, sess: e.db.NewSession(),
		plans: map[string]optimizer.ProbeInfo{}, encoded: map[blockID][]byte{}}, nil
}

func (p *prober) close() {
	p.text.Close()
	p.binary.Close()
	p.sess.Close()
}

// insert probes the write side: Session.Execute(INSERT) and, under it, the
// parse of the same VALUES text. It returns the INSERT's own latency.
func (p *prober) insert(t *tracer, op int64, sqlText string) (time.Duration, error) {
	var err error
	d := t.span(op, "core.insert_batch", "", func() { _, err = p.sess.Execute(sqlText) })
	if err != nil {
		return d, err
	}
	t.span(op, "sql.parse_insert", "core.insert_batch", func() { _, err = sql.Parse(sqlText) })
	return d, err
}

// moverCycle probes one tuple-mover cycle.
func (p *prober) moverCycle(t *tracer, op int64) (moved, merged int, err error) {
	t.span(op, "tuplemover.cycle", "", func() { moved, merged, err = p.e.mover() })
	return moved, merged, err
}

// query probes the read side. Each call below is one the call above it makes
// internally, so a child's span repeats part of its parent's work: Client.Exec
// -> Session.Execute -> Parse / Fingerprint / AnalyzeSelect / RunAtCtx ->
// Plan / AdmitPoolBytes / Drain -> ColumnIter.Next -> DecodeBlock. It returns
// the result and the latency of the call the workload's own clients make
// (Client.Exec or Session.Execute), for the correctness check and
// trace.overhead_pct.
func (p *prober) query(t *tracer, op int64, sqlText string, scans []scanSpec) (res result, native time.Duration, err error) {
	ctx := context.Background()
	var wres, bres *server.Result
	b0 := p.text.BytesRead()
	roundtrip := t.span(op, "server.roundtrip", "", func() { wres, err = p.text.Exec(sqlText) })
	if err != nil {
		return res, 0, err
	}
	p.textWire.bytes += p.text.BytesRead() - b0
	p.textWire.rows += int64(len(wres.Rows))
	p.outRows += int64(len(wres.Rows))

	// The binary frame is an alternative to the text round trip, not a part
	// of it: a root span of its own.
	b0 = p.binary.BytesRead()
	t.span(op, "server.binary_roundtrip", "", func() { bres, err = p.binary.Exec(sqlText) })
	if err != nil {
		return res, 0, err
	}
	p.binWire.bytes += p.binary.BytesRead() - b0
	p.binWire.rows += int64(len(bres.Rows))

	var cres *core.Result
	native = t.span(op, "core.execute", "server.roundtrip", func() { cres, err = p.sess.Execute(sqlText) })
	if err != nil {
		return res, 0, err
	}
	res = result{rows: cres.Rows}
	if p.wire {
		res, native = result{text: wres.Rows}, roundtrip
	}

	var parsed sql.Statement
	t.span(op, "sql.parse", "core.execute", func() { parsed, err = sql.Parse(sqlText) })
	if err != nil {
		return res, 0, err
	}
	sel, ok := parsed.(*sql.SelectStmt)
	if !ok {
		return res, 0, fmt.Errorf("probe: %T is not a SELECT", parsed)
	}
	var fp string
	t.span(op, "sql.fingerprint", "core.execute", func() { fp, _ = sql.Fingerprint(sel) })
	var q *optimizer.LogicalQuery
	t.span(op, "sql.analyze", "core.execute", func() { q, err = sql.AnalyzeSelect(sel, p.e.db.Catalog()) })
	if err != nil {
		return res, 0, err
	}

	// A repeated fingerprint replays the probe metadata, as core does on a
	// plan-cache hit; the per-node plan inside RunAtCtx still runs.
	opts := optimizer.PlanOpts{Parallelism: p.e.parallelism}
	if probe, hit := p.plans[fp]; hit {
		opts.CachedProbe = &probe
	}
	epoch := p.e.db.Txns().Epochs.ReadEpoch()
	var qres *cluster.QueryResult
	t.span(op, "cluster.run", "core.execute", func() { qres, err = p.e.db.Cluster().RunAtCtx(ctx, q, opts, epoch) })
	if err != nil {
		return res, 0, err
	}
	p.plans[fp] = qres.Probe
	if kb := float64(qres.Stats.AllocPeak) / 1024; kb > p.allocKB {
		p.allocKB = kb
	}

	var plan *optimizer.PhysicalPlan
	t.span(op, "optimizer.plan", "cluster.run", func() {
		plan, err = optimizer.Plan(provider{p.e}, q, optimizer.PlanOpts{Parallelism: p.e.parallelism})
	})
	if err != nil {
		return res, 0, err
	}
	t.span(op, "resmgr.admit", "cluster.run", func() {
		grant, aerr := p.e.db.Governor().AdmitPoolBytes(ctx, "", 0)
		grant.Release()
		err = aerr
	})
	if err != nil {
		return res, 0, err
	}
	ectx := exec.NewCtx(epoch)
	if p.e.parallelism > 0 {
		ectx.Parallelism = p.e.parallelism
	}
	ectx.Context = ctx
	t.span(op, "exec.drain", "cluster.run", func() { _, err = exec.Drain(ectx, plan.Root) })
	if err != nil {
		return res, 0, err
	}

	var blocks []blockID
	var vecs []*vector.Vector
	t.span(op, "storage.scan", "exec.drain", func() { blocks, vecs, err = p.readBlocks(scans) })
	if err != nil {
		return res, 0, err
	}
	if err := p.reencode(blocks, vecs); err != nil {
		return res, 0, err
	}
	decode := t.span(op, "encoding.decode", "storage.scan", func() {
		for i, id := range blocks {
			if _, err = encoding.DecodeBlock(p.encoded[id], vecs[i].Typ, false); err != nil {
				return
			}
		}
	})
	p.decode.ns += decode.Nanoseconds()
	for _, v := range vecs {
		p.decode.values += int64(v.Len())
	}
	return res, native, err
}

// readBlocks reads, through ColumnIter.Next, the blocks scans name: the key
// column pruned by its block ranges, the other columns at the surviving
// positions (blocks of one container are row-aligned across its columns).
func (p *prober) readBlocks(scans []scanSpec) (ids []blockID, vecs []*vector.Vector, err error) {
	start := time.Now()
	for _, sc := range scans {
		mgr, err := provider{p.e}.ProjectionData(sc.projection)
		if err != nil {
			return nil, nil, err
		}
		filter := func(e *storage.PidxEntry) bool {
			return e.Min.Null || ((sc.hi == nil || e.Min.Compare(*sc.hi) < 0) &&
				(sc.lo == nil || e.Max.Compare(*sc.lo) >= 0))
		}
		for _, r := range mgr.Containers() {
			var positions []int64
			for i, name := range sc.cols {
				col := r.Meta.ColIndex(name)
				if col < 0 {
					return nil, nil, fmt.Errorf("probe: %s has no column %s", sc.projection, name)
				}
				if i == 0 {
					it := r.NewColumnIter(col, filter)
					for {
						v, pos, err := it.Next()
						if err != nil {
							return nil, nil, err
						}
						if v == nil {
							break
						}
						positions = append(positions, pos)
						ids, vecs = append(ids, blockID{r, col, pos}), append(vecs, v)
						p.scanRows += int64(v.Len())
					}
					continue
				}
				it := r.NewColumnIter(col, nil)
				for _, pos := range positions {
					if err := it.SkipTo(pos); err != nil {
						return nil, nil, err
					}
					v, _, err := it.Next()
					if err != nil {
						return nil, nil, err
					}
					ids, vecs = append(ids, blockID{r, col, pos}), append(vecs, v)
				}
			}
		}
	}
	p.scan.ns += time.Since(start).Nanoseconds()
	for _, v := range vecs {
		p.scan.values += int64(v.Len())
	}
	return ids, vecs, nil
}

// reencode gives every scanned block an encoded form to decode, since the
// stored bytes are not reachable from outside storage: EncodeBlock with the
// kind encoding.Choose picks, timed as the write-side cost of the same
// blocks. A block is encoded once per container, so a workload that keeps
// writing containers keeps feeding encode samples.
func (p *prober) reencode(ids []blockID, vecs []*vector.Vector) error {
	for i, id := range ids {
		if _, ok := p.encoded[id]; ok {
			continue
		}
		kind := encoding.Choose(vecs[i])
		start := time.Now()
		b, err := encoding.EncodeBlock(kind, vecs[i])
		if err != nil {
			return err
		}
		p.encode.ns += time.Since(start).Nanoseconds()
		p.encode.values += int64(vecs[i].Len())
		p.encBytes += int64(len(b))
		p.encoded[id] = b
	}
	return nil
}

// baseline is the tuple-at-a-time C-Store engine of Table 3, loaded with the
// same rows: the correctness oracle of analytic_cold and its comparator.
type baseline struct{ st *cstore.Store }

func newBaseline(lineitem, orders []row) baseline {
	st := cstore.NewStore()
	// lineitem columns: 0 l_orderkey, 1 l_suppkey, 2 l_shipdate,
	// 3 l_extendedprice, 4 l_returnflag; sorted by shipdate, with
	// {orderkey, price, flag} in an orderkey-sorted group behind a join index.
	st.LoadPartial("lineitem", gen.LineitemSchema(), lineitem, 2, 0, []int{0, 3, 4})
	st.Load("orders", gen.OrdersSchema(), orders, 0)
	return baseline{st}
}

// query runs Table 3 query i (0-based; days are the query's date constant)
// and returns its (group key, aggregate) rows.
func (b baseline) query(i int, day value) ([]row, error) {
	li, err := b.st.Table("lineitem")
	if err != nil {
		return nil, err
	}
	ord, err := b.st.Table("orders")
	if err != nil {
		return nil, err
	}
	gt := func(col int) func(row) bool {
		return func(r row) bool { return !r[col].Null && r[col].Compare(day) > 0 }
	}
	eq := func(col int) func(row) bool {
		return func(r row) bool { return !r[col].Null && r[col].Compare(day) == 0 }
	}
	join := func(cols ...int) cstore.Iter { return cstore.HashJoin(li.Scan(cols), 0, ord, 0, []int{1}) }
	switch i {
	case 0:
		return cstore.GroupAgg(cstore.Filter(li.Scan([]int{2}), gt(0)), 0, cstore.CountStar, -1), nil
	case 1:
		return cstore.GroupAgg(cstore.Filter(li.Scan([]int{2, 1}), eq(0)), 1, cstore.CountStar, -1), nil
	case 2:
		return cstore.GroupAgg(cstore.Filter(li.Scan([]int{2, 1}), gt(0)), 1, cstore.CountStar, -1), nil
	case 3:
		return cstore.GroupAgg(cstore.Filter(join(0), gt(1)), 1, cstore.CountStar, -1), nil
	case 4:
		return cstore.GroupAgg(cstore.Filter(join(0, 1), eq(2)), 1, cstore.CountStar, -1), nil
	case 5:
		return cstore.GroupAgg(cstore.Filter(join(0, 1), gt(2)), 1, cstore.CountStar, -1), nil
	case 6:
		return cstore.GroupAgg(cstore.Filter(join(0, 4, 3), gt(3)), 1, cstore.AvgFloat, 2), nil
	}
	return nil, fmt.Errorf("baseline: no query %d", i)
}

func (b baseline) diskBytes(dir string) (int64, error) { return b.st.WriteDisk(dir) }
