package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// config is what the flags set.
type config struct {
	seed    int64
	seconds float64 // measured time of one run
	scale   float64 // data size relative to the documented one (the smoke test shrinks it)
	out     string  // directory for results, span files and the databases of a run
}

// A run's time is split so that one --seconds value sizes both kinds of run:
// an untraced run warms up then measures for --seconds; a traced run warms
// up, measures its untraced counter window and then its traced window, the
// two windows sharing --seconds.
const (
	warmupShare  = 0.2
	counterShare = 0.4
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metricSet map[string]metric

func (m metricSet) set(name, unit string, v float64) { m[name] = metric{v, unit} }

// outcome is one run of one workload in one mode.
type outcome struct {
	Correct   bool      `json:"correct"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Metrics   metricSet `json:"metrics"`
	err       error     // first failed operation, or the error that ended the run
}

// setUp opens a fresh database for w under cfg.out and builds the workload on
// it, with the workload's block-cache budget in force.
func setUp(w workload, cfg config) (*fixture, error) {
	dir, err := os.MkdirTemp(cfg.out, "db-"+w.name+"-")
	if err != nil {
		return nil, err
	}
	budget := w.cache
	if w.cacheScales {
		budget = int64(float64(budget) * cfg.scale)
	}
	setBlockCache(budget)
	fx := &fixture{dir: dir}
	err = fx.timed(func() error {
		fx.e, err = openEngine(dir, w.parallelism)
		return err
	})
	if err == nil {
		err = w.build(fx, cfg)
	}
	if err != nil {
		tearDown(fx)
		return nil, fmt.Errorf("%s set-up: %w", w.name, err)
	}
	return fx, nil
}

func tearDown(fx *fixture) {
	if fx.e != nil {
		fx.e.close()
	}
	setBlockCache(defaultBlockCache)
	os.RemoveAll(fx.dir)
}

// runner drives the clients of one fixture through successive windows; a
// client's connection and random stream carry over from window to window.
type runner struct {
	fx      *fixture
	conns   []conn
	rngs    []*rand.Rand
	probers []*prober // traced runs only
	tracers []*tracer
	stmtSeq atomic.Int64 // op_id of the next traced statement
}

func newRunner(w workload, fx *fixture, cfg config, traced bool) (*runner, error) {
	r := &runner{fx: fx}
	addr := fx.addr
	if traced && addr == "" {
		// The chain starts at Client.Exec on every workload, so in-process
		// workloads get a server for their traced run.
		var err error
		if addr, err = fx.e.serve(); err != nil {
			return nil, err
		}
	}
	origin := time.Now()
	for i := range fx.clients {
		r.rngs = append(r.rngs, rand.New(rand.NewSource(cfg.seed+int64(i)+1)))
		var c conn
		if w.wire {
			var err error
			if c, err = wireConn(addr); err != nil {
				r.close()
				return nil, err
			}
		} else {
			c = fx.e.sessionConn()
		}
		r.conns = append(r.conns, c)
		if traced {
			p, err := newProber(fx.e, addr, w.wire)
			if err != nil {
				r.close()
				return nil, err
			}
			r.probers = append(r.probers, p)
			r.tracers = append(r.tracers, &tracer{origin: origin})
		}
	}
	return r, nil
}

func (r *runner) close() {
	for _, c := range r.conns {
		c.close()
	}
	for _, p := range r.probers {
		p.close()
	}
}

// window is what the clients did between two instants.
type window struct {
	secs       float64
	opMs       []float64   // query clients: latency of each operation
	stmtMs     [][]float64 // query clients: latency by statement position in the operation
	queryStmts int
	writeStmts int
	resultRows int64
	writeRows  int64
	wireBytes  int64
	attempted  int
	failed     int
	err        error
	moverMs    []float64
	moved      int
	merged     int
	// Deltas of runtime.MemStats over the window.
	allocBytes, mallocs, gcPauseNs uint64
	gcCycles                       uint32
}

// run lets every client loop until d has passed and merges what they did.
func (r *runner) run(d time.Duration, traced bool) window {
	parts := make([]window, len(r.fx.clients))
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	var wg sync.WaitGroup
	for i := range r.fx.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			parts[i] = r.loop(i, start.Add(d), traced)
		}()
	}
	wg.Wait()
	total := window{secs: time.Since(start).Seconds()}
	runtime.ReadMemStats(&after)
	total.allocBytes = after.TotalAlloc - before.TotalAlloc
	total.mallocs = after.Mallocs - before.Mallocs
	total.gcPauseNs = after.PauseTotalNs - before.PauseTotalNs
	total.gcCycles = after.NumGC - before.NumGC
	for _, p := range parts {
		total.opMs = append(total.opMs, p.opMs...)
		for pos, ms := range p.stmtMs {
			if pos == len(total.stmtMs) {
				total.stmtMs = append(total.stmtMs, nil)
			}
			total.stmtMs[pos] = append(total.stmtMs[pos], ms...)
		}
		total.queryStmts += p.queryStmts
		total.writeStmts += p.writeStmts
		total.resultRows += p.resultRows
		total.writeRows += p.writeRows
		total.wireBytes += p.wireBytes
		total.attempted += p.attempted
		total.failed += p.failed
		if total.err == nil {
			total.err = p.err
		}
		total.moverMs = append(total.moverMs, p.moverMs...)
		total.moved += p.moved
		total.merged += p.merged
	}
	return total
}

// loop is one client's closed loop: the next operation is generated and sent
// only when the previous one has returned.
func (r *runner) loop(i int, deadline time.Time, traced bool) (w window) {
	c := r.fx.clients[i]
	bytes0 := r.conns[i].bytesRead()
	for time.Now().Before(deadline) {
		o := c.next(r.rngs[i])
		var opTime time.Duration
		var opErr error
		for pos, st := range o.stmts {
			res, d, err := r.execute(i, st, traced)
			if err == nil && st.check != nil {
				err = st.check(res)
			}
			if err != nil && opErr == nil {
				opErr = err
			}
			opTime += d
			if c.writer {
				w.writeStmts++
				if err == nil {
					w.writeRows += int64(st.rows)
				}
				continue
			}
			w.queryStmts++
			w.resultRows += int64(res.len())
			if pos == len(w.stmtMs) {
				w.stmtMs = append(w.stmtMs, nil)
			}
			w.stmtMs[pos] = append(w.stmtMs[pos], d.Seconds()*1e3)
		}
		if o.mover && opErr == nil {
			start := time.Now()
			var moved, merged int
			if traced {
				moved, merged, opErr = r.probers[i].moverCycle(r.tracers[i], r.stmtSeq.Add(1))
			} else {
				moved, merged, opErr = r.fx.e.mover()
			}
			w.moverMs = append(w.moverMs, time.Since(start).Seconds()*1e3)
			w.moved += moved
			w.merged += merged
		}
		w.attempted++
		if opErr != nil {
			w.failed++
			if w.err == nil {
				w.err = opErr
			}
		}
		if !c.writer {
			w.opMs = append(w.opMs, opTime.Seconds()*1e3)
		}
	}
	w.wireBytes = r.conns[i].bytesRead() - bytes0
	return w
}

// execute sends one statement the way client i sends it, or in a traced
// window through the whole probe chain, and returns the latency of the call
// the client itself makes.
func (r *runner) execute(i int, st stmt, traced bool) (result, time.Duration, error) {
	if !traced {
		start := time.Now()
		res, err := r.conns[i].do(st.sql)
		return res, time.Since(start), err
	}
	id := r.stmtSeq.Add(1)
	if st.rows > 0 {
		d, err := r.probers[i].insert(r.tracers[i], id, st.sql)
		return result{}, d, err
	}
	return r.probers[i].query(r.tracers[i], id, st.sql, st.scans)
}

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// runUntraced measures the end-to-end metrics of w: one set-up, a discarded
// warm-up, the timed window, and afterwards the stored-bytes and wire-bytes
// counts that need the database at rest.
func runUntraced(w workload, cfg config) outcome {
	fx, err := setUp(w, cfg)
	if err != nil {
		return outcome{err: err}
	}
	defer tearDown(fx)
	r, err := newRunner(w, fx, cfg, false)
	if err != nil {
		return outcome{err: err}
	}
	r.run(seconds(cfg.seconds*warmupShare), false)
	win := r.run(seconds(cfg.seconds), false)
	r.close()

	m := metricSet{}
	m.set("setup_s", "s", fx.setupSecs)
	m.set("stmt_per_s", "1/s", ratio(float64(win.queryStmts), win.secs))
	m.set("lat_p50_ms", "ms", percentile(win.opMs, 50))
	m.set("lat_p95_ms", "ms", tail(win.opMs, 95))
	m.set("lat_p99_ms", "ms", tail(win.opMs, 99))
	if win.writeStmts > 0 {
		m.set("ingest_rows_per_s", "rows/s", ratio(float64(win.writeRows), win.secs))
	} else {
		m.set("ingest_rows_per_s", "rows/s", ratio(float64(fx.loadRows), fx.loadSecs))
	}
	m.set("alloc_kb_per_stmt", "KiB", ratio(float64(win.allocBytes)/1024, float64(win.queryStmts+win.writeStmts)))

	out := outcome{Attempted: win.attempted, Failed: win.failed, Metrics: m, err: win.err}
	// Mover until quiescent, so stored bytes are those of merged containers
	// and not of whatever the WOS happened to hold when the window closed.
	for {
		moved, merged, err := fx.e.mover()
		if err != nil {
			out.err = err
			return out
		}
		if moved == 0 && merged == 0 {
			break
		}
	}
	st, err := fx.e.storage()
	if err != nil {
		out.err = err
		return out
	}
	m.set("stored_bytes_per_user_byte", "ratio", ratio(float64(st.bytes), float64(fx.userBytes.Load())))
	wireBytes, wireRows := win.wireBytes, win.resultRows
	if !w.wire {
		if wireBytes, wireRows, err = wireReplay(fx, cfg); err != nil {
			out.err = err
			return out
		}
	}
	m.set("wire_bytes_per_row", "bytes", ratio(float64(wireBytes), float64(wireRows)))
	out.Correct = out.Failed == 0 && out.err == nil
	return out
}

// wireReplay sends one operation of each query client of an in-process
// workload through a loopback server once, for the text-protocol bytes its
// result rows cost. The count depends on the results alone, not on timing.
func wireReplay(fx *fixture, cfg config) (bytes, rows int64, err error) {
	addr, err := fx.e.serve()
	if err != nil {
		return 0, 0, err
	}
	c, err := wireConn(addr)
	if err != nil {
		return 0, 0, err
	}
	defer c.close()
	rng := rand.New(rand.NewSource(cfg.seed))
	for _, cl := range fx.clients {
		if cl.writer {
			continue
		}
		for _, st := range cl.next(rng).stmts {
			res, err := c.do(st.sql)
			if err != nil {
				return 0, 0, err
			}
			rows += int64(res.len())
		}
	}
	return c.bytesRead(), rows, nil
}

// runTraced measures the per-layer metrics of w: one set-up, a warm-up, an
// untraced window for the engine's own counters and the baseline latency,
// then a traced window in which every client sends each statement through the
// probe chain. Returns the spans for the span file.
func runTraced(w workload, cfg config) (outcome, []span) {
	fx, err := setUp(w, cfg)
	if err != nil {
		return outcome{err: err}, nil
	}
	defer tearDown(fx)
	r, err := newRunner(w, fx, cfg, true)
	if err != nil {
		return outcome{err: err}, nil
	}
	defer r.close()
	r.run(seconds(cfg.seconds*warmupShare), false)

	// Counter window: untraced, so the engine's counters see only the
	// workload's own statements.
	c0, since, userBytes0 := counters(), time.Now(), fx.userBytes.Load()
	peaks := startSampler(fx.e)
	base := r.run(seconds(cfg.seconds*counterShare), false)
	wosPeak, heapPeak := peaks.stop()
	c1 := counters()
	delta := func(name string) float64 { return float64(c1[name] - c0[name]) }
	st, err := fx.e.storage()
	if err != nil {
		return outcome{err: err}, nil
	}
	written := fx.userBytes.Load() - userBytes0

	traced := r.run(seconds(cfg.seconds*(1-counterShare)), true)
	var spans []span
	var probe probeCounts
	for i, t := range r.tracers {
		spans = append(spans, t.spans...)
		probe.add(r.probers[i].probeCounts)
	}
	dur, self := layerTimes(spans)
	med := func(samples map[string][]float64, name string) float64 { return median(samples[name]) }

	m := metricSet{}
	m.set("server.roundtrip_us", "us", med(dur, "server.roundtrip"))
	m.set("server.self_us", "us", med(self, "server.roundtrip"))
	m.set("server.binary_roundtrip_us", "us", med(dur, "server.binary_roundtrip"))
	m.set("server.text_bytes_per_row", "bytes", probe.textWire.perRow())
	m.set("server.binary_bytes_per_row", "bytes", probe.binWire.perRow())
	m.set("core.execute_us", "us", med(dur, "core.execute"))
	m.set("core.self_us", "us", med(self, "core.execute"))
	m.set("core.insert_batch_us", "us", med(dur, "core.insert_batch"))
	m.set("sql.parse_us", "us", med(dur, "sql.parse"))
	m.set("sql.parse_insert_us", "us", med(dur, "sql.parse_insert"))
	m.set("sql.fingerprint_us", "us", med(dur, "sql.fingerprint"))
	m.set("sql.analyze_us", "us", med(dur, "sql.analyze"))
	m.set("plancache.hit_ratio", "ratio", ratio(delta("plancache.hits"), delta("plancache.hits")+delta("plancache.misses")))
	m.set("plancache.replans", "count", delta("plancache.replans"))
	m.set("plancache.invalidations", "count", delta("plancache.invalidations"))
	m.set("optimizer.plan_us", "us", med(dur, "optimizer.plan"))
	m.set("resmgr.admit_us", "us", med(dur, "resmgr.admit"))
	m.set("resmgr.queue_wait_us", "us", ratio(delta("resmgr.queue_wait_us"), delta("resmgr.admissions")))
	m.set("resmgr.rejections", "count", delta("resmgr.rejections"))
	m.set("cluster.run_us", "us", med(dur, "cluster.run"))
	m.set("cluster.self_us", "us", med(self, "cluster.run"))
	m.set("exec.drain_us", "us", med(dur, "exec.drain"))
	m.set("exec.rows_scanned_per_result_row", "ratio", ratio(float64(probe.scanRows), float64(probe.outRows)))
	m.set("exec.spills", "count", delta("exec.spills"))
	m.set("exec.alloc_peak_kb", "KiB", probe.allocKB)
	m.set("exec.exchange_rows", "count", delta("exec.exchange_rows"))
	m.set("storage.scan_us", "us", med(dur, "storage.scan"))
	m.set("storage.scan_mvalues_per_s", "Mvalues/s", probe.scan.perSecond()/1e6)
	m.set("storage.block_cache_hit_ratio", "ratio", ratio(delta("storage.block_cache_hits"),
		delta("storage.block_cache_hits")+delta("storage.block_cache_misses")))
	m.set("storage.block_cache_evictions", "count", delta("storage.block_cache_evictions"))
	m.set("storage.containers", "count", float64(st.containers))
	m.set("storage.bytes_per_row", "bytes", ratio(float64(st.bytes), float64(st.rows)))
	m.set("storage.wos_rows_peak", "rows", wosPeak)
	m.set("encoding.decode_ns_per_value", "ns", probe.decode.nsPerValue())
	m.set("encoding.encode_ns_per_value", "ns", probe.encode.nsPerValue())
	m.set("encoding.bytes_per_value", "bytes", ratio(float64(probe.encBytes), float64(probe.encode.values)))
	m.set("tuplemover.cycle_ms_p50", "ms", median(base.moverMs))
	m.set("tuplemover.cycle_ms_max", "ms", maxOf(base.moverMs))
	m.set("tuplemover.busy_share", "ratio", ratio(sum(base.moverMs)/1e3, base.secs))
	m.set("tuplemover.rows_moved", "rows", float64(base.moved))
	m.set("tuplemover.merges", "count", float64(base.merged))
	m.set("tuplemover.merged_bytes_per_user_byte", "ratio",
		ratio(float64(fx.e.moverBytes(since)), float64(written)))
	m.set("txn.lock_wait_us_total", "us", float64(fx.e.lockWait(since).Microseconds()))
	m.set("dc.dropped_events", "count", delta("dc.dropped_events"))
	for q := 0; q < 7; q++ {
		ms := 0.0
		if len(base.stmtMs) > 1 && q < len(base.stmtMs) { // only a multi-statement operation has positions
			ms = median(base.stmtMs[q])
		}
		m.set(fmt.Sprintf("query.q%d_ms", q+1), "ms", ms)
	}
	stmts := float64(base.queryStmts + base.writeStmts)
	m.set("runtime.allocs_per_stmt", "count", ratio(float64(base.mallocs), stmts))
	m.set("runtime.gc_pause_ms", "ms", float64(base.gcPauseNs)/1e6)
	m.set("runtime.gc_cycles", "count", float64(base.gcCycles))
	m.set("runtime.heap_inuse_peak_mb", "MiB", heapPeak/(1<<20))
	m.set("client.lat_p999_ms", "ms", percentile(base.opMs, 99.9))
	m.set("client.lat_max_ms", "ms", maxOf(base.opMs))
	m.set("client.samples", "count", float64(len(base.opMs)))
	basePass := median(base.opMs)
	m.set("trace.overhead_pct", "%", 100*ratio(median(traced.opMs)-basePass, basePass))
	// Directly timed work as a share of the round trip; what is left is the
	// three self times, known only by subtraction.
	direct := 0.0
	for _, name := range []string{"sql.parse", "sql.fingerprint", "sql.analyze", "optimizer.plan", "resmgr.admit", "exec.drain"} {
		direct += sum(dur[name])
	}
	m.set("trace.coverage_pct", "%", 100*ratio(direct, sum(dur["server.roundtrip"])))

	out := outcome{Attempted: base.attempted + traced.attempted, Failed: base.failed + traced.failed, Metrics: m, err: base.err}
	if out.err == nil {
		out.err = traced.err
	}
	// The Table 3 row and the threads-not-cache parallel number, once each.
	cstorePass, speedup, disk, parallel := 0.0, 0.0, 0.0, 0.0
	if fx.oracle != nil {
		cstorePass, speedup = fx.oracleMs, ratio(fx.oracleMs, basePass)
		bytes, err := fx.oracle.diskBytes(filepath.Join(fx.dir, "cstore"))
		if err != nil && out.err == nil {
			out.err = err
		}
		disk = ratio(float64(bytes), float64(st.bytes))
	}
	if w.parallelism > 1 {
		serial, err := serialPass(w, fx, cfg)
		if err != nil && out.err == nil {
			out.err = err
		}
		parallel = ratio(serial, basePass)
	}
	m.set("cstore.pass_ms", "ms", cstorePass)
	m.set("cstore.speedup", "ratio", speedup)
	m.set("cstore.disk_ratio", "ratio", disk)
	m.set("exec.parallel_speedup", "ratio", parallel)
	out.Correct = out.Failed == 0 && out.err == nil
	return out, spans
}

// serialPass reopens the fixture's directory with Parallelism 1 and returns
// the median latency in ms of three operations of the first query client, for
// exec.parallel_speedup: same data, same cache budget, one thread.
func serialPass(w workload, fx *fixture, cfg config) (float64, error) {
	serial, err := openEngine(fx.dir, 1)
	if err != nil {
		return 0, err
	}
	c := serial.sessionConn()
	defer c.close()
	rng := rand.New(rand.NewSource(cfg.seed))
	var passes []float64
	for i := 0; i < 4; i++ {
		start := time.Now()
		for _, st := range fx.clients[0].next(rng).stmts {
			res, err := c.do(st.sql)
			if err == nil && st.check != nil {
				err = st.check(res)
			}
			if err != nil {
				return 0, fmt.Errorf("serial pass: %w", err)
			}
		}
		if i > 0 { // the first pass warms up
			passes = append(passes, time.Since(start).Seconds()*1e3)
		}
	}
	return median(passes), nil
}

func (c *wireCount) add(o wireCount)   { c.bytes += o.bytes; c.rows += o.rows }
func (c wireCount) perRow() float64    { return ratio(float64(c.bytes), float64(c.rows)) }
func (c *unitCost) add(o unitCost)     { c.ns += o.ns; c.values += o.values }
func (c unitCost) nsPerValue() float64 { return ratio(float64(c.ns), float64(c.values)) }
func (c unitCost) perSecond() float64  { return ratio(float64(c.values), float64(c.ns)/1e9) }

// sampler polls, every 50 ms, the two peaks no counter keeps: rows in the WOS
// and heap in use.
type sampler struct {
	done     chan struct{}
	finished chan struct{}
	wos      float64
	heap     float64
}

func startSampler(e *engine) *sampler {
	s := &sampler{done: make(chan struct{}), finished: make(chan struct{})}
	go func() {
		defer close(s.finished)
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		for {
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			s.heap = max(s.heap, float64(ms.HeapInuse))
			if st, err := e.storage(); err == nil {
				s.wos = max(s.wos, float64(st.wosRows))
			}
			select {
			case <-s.done:
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

func (s *sampler) stop() (wosRows, heapBytes float64) {
	close(s.done)
	<-s.finished
	return s.wos, s.heap
}
