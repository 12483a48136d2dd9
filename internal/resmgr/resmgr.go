// Package resmgr is the workload and resource management subsystem: a
// resource governor that owns a global memory pool shared by all concurrent
// queries, partitions it into named resource pools with borrow-from-general
// semantics, hands out per-query memory grants, and gates query starts
// through per-pool admission queues with bounded concurrency and queue
// timeouts. Finished statements leave a bounded ring of query profiles that
// the engine exposes as the v_monitor.query_profiles system table.
//
// The paper (§6.1) gives every operator a memory budget so that "all
// operators are capable of handling arbitrary sized inputs ... by
// externalizing"; resmgr supplies the layer above those budgets: where the
// bytes come from when many statements run at once, which statement runs
// next, and how a statement in flight is cancelled and its memory returned.
//
// # Invariants
//
// The governor maintains one global accounting invariant, checked on every
// admission and every mid-flight grant extension:
//
//	granted bytes (g.inUse) + every pool's unfilled reservation ≤ PoolBytes
//
// so that one pool's borrowing can never consume another pool's MEMORYSIZE
// guarantee. Per pool, in-use bytes never exceed the pool's effective
// MAXMEMORYSIZE, and running queries never exceed the pool's concurrency
// bound. A grant is not a fixed ceiling: Grant.Request extends an admitted
// query's grant from the pool's current headroom (own reservation first,
// then borrowed general memory) without re-queueing; outstanding extensions
// count as in-use, so concurrent admissions see them. Requests that no
// future release could ever satisfy — the extended grant would exceed the
// pool's MAXMEMORYSIZE, or the reservations of other pools structurally
// exclude it — fail fast with an error naming the binding limit instead of
// a retriable denial.
//
// Usage:
//
//	gov := resmgr.NewGovernor(resmgr.Config{PoolBytes: 32 << 20, MaxConcurrency: 2})
//	gov.CreatePool(resmgr.PoolConfig{Name: "etl", MemBytes: 8 << 20, MaxConcurrency: 1})
//	ctx = resmgr.WithPool(ctx, "etl")
//	grant, err := gov.Admit(ctx)          // blocks in FIFO order; honors ctx
//	if err != nil { ... }                 // ErrQueueTimeout or ctx.Err()
//	defer grant.Release()                 // returns memory + slot, wakes queue
//	budget := grant.OperatorBudget(nPipelines)
//	if grant.Request(64 << 10) == nil { budget += 64 << 10 } // renegotiate, else spill
package resmgr

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dc"
	"repro/internal/metrics"
	"repro/internal/vlog"
)

// Defaults applied by NewGovernor when Config fields are zero.
const (
	DefaultPoolBytes          = 1 << 30 // 1 GiB global pool
	DefaultMaxConcurrency     = 8
	DefaultQueueTimeout       = 30 * time.Second
	DefaultSlowQueryThreshold = time.Second
)

// Retention of finished statements: the newest ProfileCapacity query
// profiles, and the newest OpProfileCapacity operator records (one per plan
// node of a PROFILEd or slow query).
const (
	ProfileCapacity   = 512
	OpProfileCapacity = 4096
)

// ErrQueueTimeout is returned by Admit when a query waits in the admission
// queue longer than its pool's queue timeout.
var ErrQueueTimeout = errors.New("resmgr: admission queue timeout")

// ErrExtensionDenied is returned by Grant.Request when the pool has no
// headroom for the extension right now. The request was feasible — a later
// retry may succeed once other queries release — but renegotiation never
// queues, so the caller should fall back to externalizing (spilling).
var ErrExtensionDenied = errors.New("resmgr: grant extension denied: pool has no headroom")

// InfeasibleError marks a grant request — admission or mid-flight extension
// — that no release can ever satisfy under the current pool configuration
// (it exceeds the pool's MAXMEMORYSIZE, or other pools' reservations
// structurally exclude it from the global pool). Callers distinguish it
// from retriable queue/headroom failures with errors.As; the message names
// the binding limit.
type InfeasibleError struct{ msg string }

func (e *InfeasibleError) Error() string { return e.msg }

func infeasiblef(format string, args ...interface{}) error {
	return &InfeasibleError{msg: fmt.Sprintf(format, args...)}
}

// Config sets the governor's knobs.
type Config struct {
	// PoolBytes is the global memory pool shared by all running queries.
	PoolBytes int64
	// MaxConcurrency bounds simultaneously running queries per pool (pools
	// may override); excess queries queue FIFO within their pool.
	MaxConcurrency int
	// QueueTimeout bounds time spent queued before Admit fails with
	// ErrQueueTimeout. Negative disables the timeout; zero means default.
	QueueTimeout time.Duration
	// GrantBytes is the memory grant per query in the general pool. Zero
	// derives PoolBytes/MaxConcurrency so a full complement of running
	// queries exactly consumes the pool.
	GrantBytes int64
	// SlowQueryThreshold is the wall time past which a finished query's
	// operator profile is retained even without an explicit PROFILE. Zero
	// means DefaultSlowQueryThreshold; negative disables slow-query capture.
	SlowQueryThreshold time.Duration
	// Logger receives structured slow-query lines when SlowQueryThreshold
	// trips. Nil disables logging (profiles are still retained).
	Logger *vlog.Logger
}

// Stats is a snapshot of governor counters aggregated over all pools.
type Stats struct {
	// Admitted counts queries granted admission (including those that later
	// failed).
	Admitted int64
	// Queued counts admissions that had to wait for a slot or memory.
	Queued int64
	// TimedOut counts admissions that failed with ErrQueueTimeout.
	TimedOut int64
	// Canceled counts admissions abandoned because their context ended
	// while queued.
	Canceled int64
	// Running is the number of queries currently holding a grant.
	Running int
	// Waiting is the current admission queue length across pools.
	Waiting int
	// InUseBytes is pool memory currently granted.
	InUseBytes int64
	// PoolBytes echoes the configured pool size.
	PoolBytes int64
	// PeakRunning is the high-water mark of Running.
	PeakRunning int
	// TotalQueueWait accumulates time queries spent queued.
	TotalQueueWait time.Duration
	// RowsReturned, SpilledBytes aggregate released grants' counters.
	RowsReturned int64
	SpilledBytes int64
	// GrantExtensions / ExtensionBytes count mid-flight renegotiations that
	// succeeded across released grants; DeniedExtensions counts requests
	// refused (the operator spilled instead).
	GrantExtensions  int64
	ExtensionBytes   int64
	DeniedExtensions int64
}

// waiter is one queued admission request.
type waiter struct {
	pool    *pool
	bytes   int64
	ready   chan struct{} // closed by dispatch under g.mu when granted
	granted bool
}

// Governor owns the global pool, the named pools and their admission queues.
type Governor struct {
	cfg Config

	mu      sync.Mutex
	inUse   int64 // bytes granted across all pools
	running int   // queries running across all pools
	pools   map[string]*pool
	order   []string // pool dispatch/listing order (general first)

	// aggregate counters (under mu); per-pool counters live on each pool
	admitted    int64
	queuedTotal int64
	timedOut    int64
	canceled    int64
	peakRunning int
	queueWait   time.Duration
	rows        int64
	spilled     int64
	extensions  int64
	extBytes    int64
	deniedExt   int64

	profileSeq int64 // last query id issued (under mu)

	// Retained query and per-operator profiles; the rings lock themselves.
	profiles   *dc.Ring[QueryProfile]
	opProfiles *dc.Ring[OpProfile]
}

// NewGovernor builds a governor, applying defaults for zero Config fields.
// The built-in general pool backs all unreserved memory.
func NewGovernor(cfg Config) *Governor {
	if cfg.PoolBytes <= 0 {
		cfg.PoolBytes = DefaultPoolBytes
	}
	if cfg.MaxConcurrency <= 0 {
		cfg.MaxConcurrency = DefaultMaxConcurrency
	}
	if cfg.QueueTimeout == 0 {
		cfg.QueueTimeout = DefaultQueueTimeout
	}
	if cfg.GrantBytes <= 0 {
		cfg.GrantBytes = cfg.PoolBytes / int64(cfg.MaxConcurrency)
		if cfg.GrantBytes < MinGrantBytes {
			cfg.GrantBytes = MinGrantBytes
		}
	}
	if cfg.GrantBytes > cfg.PoolBytes {
		cfg.GrantBytes = cfg.PoolBytes
	}
	if cfg.SlowQueryThreshold == 0 {
		cfg.SlowQueryThreshold = DefaultSlowQueryThreshold
	}
	g := &Governor{
		cfg:        cfg,
		pools:      map[string]*pool{},
		profiles:   dc.NewRing[QueryProfile]("query_profiles", ProfileCapacity),
		opProfiles: dc.NewRing[OpProfile]("execution_engine_profiles", OpProfileCapacity),
	}
	g.pools[GeneralPool] = &pool{cfg: PoolConfig{
		Name:           GeneralPool,
		GrantBytes:     cfg.GrantBytes,
		MaxConcurrency: cfg.MaxConcurrency,
		QueueTimeout:   cfg.QueueTimeout,
	}}
	g.order = []string{GeneralPool}
	return g
}

// Config returns the effective (default-applied) configuration.
func (g *Governor) Config() Config { return g.cfg }

// Admit blocks until the query may run, returning its memory grant. The pool
// comes from the context tag (WithPool), defaulting to general; order is
// FIFO within a pool. Fails with ctx.Err() if ctx ends first, or
// ErrQueueTimeout after the pool's queue timeout.
func (g *Governor) Admit(ctx context.Context) (*Grant, error) {
	return g.AdmitPoolBytes(ctx, PoolFromContext(ctx), 0)
}

// AdmitPoolBytes admits against a named pool ("" = general) with an explicit
// grant size (<= 0 takes the pool default). An immediate admission records
// zero queue wait: queue_wait_us means time spent queued, not lock or set-up
// noise.
func (g *Governor) AdmitPoolBytes(ctx context.Context, poolName string, bytes int64) (*Grant, error) {
	enqueued := time.Now()
	if poolName == "" {
		poolName = GeneralPool
	}
	label := LabelFromContext(ctx)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	g.mu.Lock()
	p, ok := g.pools[poolName]
	if !ok {
		g.mu.Unlock()
		return nil, fmt.Errorf("resmgr: pool %q does not exist", poolName)
	}
	if bytes <= 0 {
		bytes = p.grantSize(g)
	}
	if bytes > p.capBytes(g) {
		g.mu.Unlock()
		return nil, infeasiblef("resmgr: grant %d bytes exceeds pool %q limit of %d bytes",
			bytes, poolName, p.capBytes(g))
	}
	// Fail fast on requests no amount of draining can satisfy: even with
	// every other pool idle (reservations fully unfilled), the grant plus
	// all outstanding guarantees must fit the global pool — otherwise the
	// waiter would sit in the queue until timeout (or forever).
	floor := g.feasibilityFloorLocked(p, bytes)
	if floor > g.cfg.PoolBytes {
		g.mu.Unlock()
		return nil, infeasiblef("resmgr: grant %d bytes on pool %q can never be admitted: other pools reserve %d of the %d-byte global pool",
			bytes, poolName, floor-bytes, g.cfg.PoolBytes)
	}
	// Fast path: nothing queued ahead in this pool and resources free.
	if len(p.queue) == 0 && g.canAdmitLocked(p, bytes) {
		g.reserveLocked(p, bytes)
		gr := g.newGrantLocked(p, bytes, 0, label)
		g.mu.Unlock()
		return gr, nil
	}
	w := &waiter{pool: p, bytes: bytes, ready: make(chan struct{})}
	p.queue = append(p.queue, w)
	p.queuedTotal++
	g.queuedTotal++
	queueTimeout := p.timeout(g)
	g.mu.Unlock()

	var timeout <-chan time.Time
	if queueTimeout > 0 {
		t := time.NewTimer(queueTimeout)
		defer t.Stop()
		timeout = t.C
	}
	// On the wake path dispatchLocked has already reserved the resources;
	// only the grant record remains to be made.
	take := func() *Grant {
		wait := time.Since(enqueued)
		g.mu.Lock()
		gr := g.newGrantLocked(p, bytes, wait, label)
		g.mu.Unlock()
		return gr
	}
	select {
	case <-w.ready:
		return take(), nil
	case <-ctx.Done():
		if g.abandon(w, &p.canceled, &g.canceled) {
			return nil, ctx.Err()
		}
		// Granted concurrently with cancellation: take it and release,
		// marking the profile so it does not read as a successful query.
		gr := take()
		gr.SetError(ctx.Err())
		gr.Release()
		return nil, ctx.Err()
	case <-timeout:
		if g.abandon(w, &p.timedOut, &g.timedOut) {
			return nil, ErrQueueTimeout
		}
		return take(), nil // granted just as the timer fired: run it
	}
}

// reservationShortfallLocked sums every pool's unfilled reservation
// (max(0, MEMORYSIZE − in-use)), skipping the given pool — the memory the
// governor must keep claimable for other pools' guarantees. Caller holds
// g.mu.
func (g *Governor) reservationShortfallLocked(skip *pool) int64 {
	var short int64
	for _, name := range g.order {
		q := g.pools[name]
		if q == skip {
			continue
		}
		if s := q.cfg.MemBytes - q.inUse; s > 0 {
			short += s
		}
	}
	return short
}

// feasibilityFloorLocked is the least global memory that must exist for a
// query of the given grant on pool p to ever run: its bytes plus every
// pool's reservation taken as fully unfilled (other queries are transient,
// reservations are not). Admission and grant extension both compare this
// floor against PoolBytes to fail structurally impossible requests fast.
// Caller holds g.mu.
func (g *Governor) feasibilityFloorLocked(p *pool, bytes int64) int64 {
	floor := bytes
	for _, name := range g.order {
		q := g.pools[name]
		if q == p {
			if q.cfg.MemBytes > bytes {
				floor += q.cfg.MemBytes - bytes
			}
			continue
		}
		floor += q.cfg.MemBytes
	}
	return floor
}

// canAdmitLocked decides whether pool p can start a query of the given grant
// right now: a free slot, under the pool's own ceiling, and — the
// borrow-from-general rule — enough global memory left after honoring every
// pool's outstanding reservation. Caller holds g.mu.
func (g *Governor) canAdmitLocked(p *pool, bytes int64) bool {
	if p.running >= p.maxConc(g) {
		return false
	}
	return g.memoryFitsLocked(p, bytes)
}

// memoryFitsLocked is the memory half of admission, shared with mid-flight
// grant extension (which holds its slot already): the added bytes must keep
// the pool under its own ceiling, and — the borrow-from-general rule —
// enough global memory must remain after honoring every pool's outstanding
// reservation (computed as if the bytes were placed), so one pool's
// borrowing can never consume another pool's guarantee. Caller holds g.mu.
func (g *Governor) memoryFitsLocked(p *pool, bytes int64) bool {
	if p.inUse+bytes > p.capBytes(g) {
		return false
	}
	need := g.inUse + bytes + g.reservationShortfallLocked(p)
	if own := p.cfg.MemBytes - (p.inUse + bytes); own > 0 {
		need += own
	}
	return need <= g.cfg.PoolBytes
}

// reserveLocked consumes a slot and bytes from the pool; caller holds g.mu.
func (g *Governor) reserveLocked(p *pool, bytes int64) {
	g.running++
	g.inUse += bytes
	if g.running > g.peakRunning {
		g.peakRunning = g.running
	}
	p.running++
	p.inUse += bytes
	if p.running > p.peakRunning {
		p.peakRunning = p.running
	}
}

// newGrantLocked records an admission whose resources are already reserved;
// caller holds g.mu.
func (g *Governor) newGrantLocked(p *pool, bytes int64, wait time.Duration, label string) *Grant {
	g.admitted++
	g.queueWait += wait
	p.admitted++
	p.queueWait += wait
	metrics.Admissions.Inc()
	metrics.QueueWaitUs.Add(wait.Microseconds())
	metrics.QueueWaitHistUs.Observe(wait.Microseconds())
	// The query id is assigned here, at admission, so in-flight statements
	// already carry the id their profile will retire under — the server can
	// hand it to clients and the Data Collector can stamp events with it.
	g.profileSeq++
	gr := &Grant{gov: g, pool: p, label: label, queueWait: wait,
		runtimeCap: p.cfg.RuntimeCap, parallelism: p.cfg.Parallelism,
		started: time.Now(), queryID: g.profileSeq}
	gr.bytes.Store(bytes)
	return gr
}

// abandon removes w from its pool's queue if it has not been granted,
// bumping the pool and governor counters. Reports whether the waiter was
// still queued.
func (g *Governor) abandon(w *waiter, poolCounter, govCounter *int64) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	if w.granted {
		return false
	}
	q := w.pool.queue
	for i, x := range q {
		if x == w {
			w.pool.queue = append(q[:i], q[i+1:]...)
			break
		}
	}
	*poolCounter++
	*govCounter++
	metrics.Rejections.Inc()
	// The departed waiter may have been the head blocking smaller requests.
	g.dispatchLocked()
	return true
}

// dispatchOrderLocked returns pool names sorted by descending PRIORITY,
// stable on creation order, so a release serves high-priority workloads
// first. Caller holds g.mu.
func (g *Governor) dispatchOrderLocked() []string {
	order := append([]string{}, g.order...)
	sort.SliceStable(order, func(i, j int) bool {
		return g.pools[order[i]].cfg.Priority > g.pools[order[j]].cfg.Priority
	})
	return order
}

// dispatchLocked wakes queued waiters while resources last: FIFO within each
// pool, pools visited in descending priority (creation order on ties). A
// pool's queue head blocks only its own pool — that keeps admission fair
// inside a workload class without letting one saturated class stall the
// others, while PRIORITY decides which class eats a freed slot first.
func (g *Governor) dispatchLocked() {
	for _, name := range g.dispatchOrderLocked() {
		p := g.pools[name]
		for len(p.queue) > 0 {
			w := p.queue[0]
			if !g.canAdmitLocked(p, w.bytes) {
				break
			}
			// Reserve on the waiter's behalf so a burst of releases cannot
			// overcommit the pool before the waiter reschedules.
			g.reserveLocked(p, w.bytes)
			w.granted = true
			p.queue = p.queue[1:]
			close(w.ready)
		}
	}
}

// release returns a grant's resources — the admitted bytes plus every
// mid-flight extension — records its profile and wakes queues.
func (g *Governor) release(gr *Grant) {
	if !g.releaseLocked(gr) {
		return
	}
	// Retain the operator records, stamped with the query id assigned at
	// admission so the two v_monitor tables join — as text, not as the
	// executed plan their Op still points into. Describing an operator is
	// the engine's code: it runs outside the governor's lock.
	for i := range gr.opRecs {
		gr.opRecs[i].QueryID = gr.queryID
		_ = gr.opRecs[i].Op.String()
	}
	g.opProfiles.Append(gr.opRecs...)
}

// releaseLocked is release under the governor's lock; it reports whether
// the grant's operator records are to be retained.
func (g *Governor) releaseLocked(gr *Grant) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	p := gr.pool
	bytes := gr.bytes.Load()
	g.running--
	g.inUse -= bytes
	p.running--
	p.inUse -= bytes
	rows, spilled := gr.rows.Load(), gr.spilledBytes.Load()
	exts, extBytes, denied := gr.extensions.Load(), gr.extensionBytes.Load(), gr.deniedExtensions.Load()
	g.rows += rows
	g.spilled += spilled
	g.extensions += exts
	g.extBytes += extBytes
	g.deniedExt += denied
	p.rows += rows
	p.spilled += spilled
	p.extensions += exts
	p.extBytes += extBytes
	p.deniedExt += denied
	wall := time.Since(gr.started)
	metrics.QueryWallUs.Observe(wall.Microseconds())
	g.profiles.Append(QueryProfile{
		ID:               gr.queryID,
		Pool:             p.cfg.Name,
		Label:            gr.label,
		GrantBytes:       bytes,
		Rows:             rows,
		Spills:           gr.spills.Load(),
		SpilledBytes:     spilled,
		GrantExtensions:  exts,
		ExtensionBytes:   extBytes,
		DeniedExtensions: denied,
		AllocPeak:        gr.allocPeak.Load(),
		QueueWait:        gr.queueWait,
		Wall:             wall,
		Started:          gr.started,
		Status:           profileStatus(gr.errMsg),
		Error:            gr.errMsg,
	})
	slow := g.cfg.SlowQueryThreshold > 0 && wall >= g.cfg.SlowQueryThreshold
	if slow {
		metrics.SlowQueries.Inc()
		g.cfg.Logger.Warnf("slow_query",
			"query_id", gr.queryID,
			"pool", p.cfg.Name,
			"wall_us", wall.Microseconds(),
			"queue_wait_us", gr.queueWait.Microseconds(),
			"spilled_bytes", spilled,
			"rows", rows,
			"label", gr.label,
		)
	}
	g.dispatchLocked()
	return len(gr.opRecs) > 0 && (gr.opProfiled || slow)
}

// RecordFailure retains a query profile for a statement that failed before
// admission (planning or placement errors), so v_monitor.query_profiles
// keeps covering that failure class. No resources are reserved or
// released; the named pool need not exist (the profile is just a record).
func (g *Governor) RecordFailure(poolName, label string, err error) {
	if err == nil {
		return
	}
	if poolName == "" {
		poolName = GeneralPool
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	g.profileSeq++
	g.profiles.Append(QueryProfile{
		ID:      g.profileSeq,
		Pool:    poolName,
		Label:   label,
		Started: time.Now(),
		Status:  "error",
		Error:   err.Error(),
	})
}

// Stats snapshots the aggregate counters.
func (g *Governor) Stats() Stats {
	g.mu.Lock()
	defer g.mu.Unlock()
	waiting := 0
	for _, p := range g.pools {
		waiting += len(p.queue)
	}
	return Stats{
		Admitted:         g.admitted,
		Queued:           g.queuedTotal,
		TimedOut:         g.timedOut,
		Canceled:         g.canceled,
		Running:          g.running,
		Waiting:          waiting,
		InUseBytes:       g.inUse,
		PoolBytes:        g.cfg.PoolBytes,
		PeakRunning:      g.peakRunning,
		TotalQueueWait:   g.queueWait,
		RowsReturned:     g.rows,
		SpilledBytes:     g.spilled,
		GrantExtensions:  g.extensions,
		ExtensionBytes:   g.extBytes,
		DeniedExtensions: g.deniedExt,
	}
}

// String renders the snapshot for \stats-style display.
func (s Stats) String() string {
	return fmt.Sprintf(
		"pool %d/%d bytes, running %d (peak %d), waiting %d, admitted %d (queued %d, timeout %d, canceled %d), queue-wait %s, rows %d, spilled %d bytes, extensions %d (+%d bytes, denied %d)",
		s.InUseBytes, s.PoolBytes, s.Running, s.PeakRunning, s.Waiting,
		s.Admitted, s.Queued, s.TimedOut, s.Canceled, s.TotalQueueWait,
		s.RowsReturned, s.SpilledBytes, s.GrantExtensions, s.ExtensionBytes, s.DeniedExtensions)
}

// Grant is one query's admission: a slice of the pool plus runtime counters
// the executor reports into. All methods are safe on a nil receiver so the
// execution engine can run ungoverned (tests, embedded use) without
// branching. A grant is a negotiated budget, not a fixed ceiling: Request
// extends it mid-flight from the pool's headroom.
type Grant struct {
	gov         *Governor
	pool        *pool
	label       string
	queueWait   time.Duration
	runtimeCap  time.Duration
	parallelism int
	started     time.Time
	queryID     int64  // assigned at admission; QueryProfile.ID at release
	errMsg      string // set by SetError before Release

	// bytes is the current grant size: the admitted bytes plus every
	// successful extension. Written under gov.mu (admission, Request); read
	// lock-free by concurrent pipelines (OperatorBudget, Bytes).
	bytes atomic.Int64

	// opRecs / opProfiled are the executed plan's per-operator records,
	// attached by SetOpProfile from the query's goroutine before Release.
	opRecs     []OpProfile
	opProfiled bool

	released         atomic.Bool
	rows             atomic.Int64
	spilledBytes     atomic.Int64
	spills           atomic.Int64
	allocPeak        atomic.Int64
	extensions       atomic.Int64
	extensionBytes   atomic.Int64
	deniedExtensions atomic.Int64
}

// Bytes is the memory currently granted to the query (admission grant plus
// extensions).
func (gr *Grant) Bytes() int64 {
	if gr == nil {
		return 0
	}
	return gr.bytes.Load()
}

// Request renegotiates the grant mid-flight, asking the governor for extra
// more bytes from the pool's headroom — the pool's own unfilled reservation
// first, then borrowed general memory — without re-queueing. On success the
// grant grows by exactly extra and nil is returned; the extended bytes count
// as in-use immediately, so concurrent admissions and other pools' borrowing
// see them.
//
// A denial is never queued: ErrExtensionDenied means the pool has no
// headroom right now (the caller should externalize instead), while a
// structurally infeasible request — the extended grant would exceed the
// pool's MAXMEMORYSIZE, or other pools' reservations exclude it from the
// global pool for good — fails fast with an error naming the binding limit,
// mirroring the admission-time feasibility check. Both denials are counted
// in the grant's denied_extensions.
func (gr *Grant) Request(extra int64) error {
	if gr == nil {
		return ErrExtensionDenied // ungoverned query: no pool to extend from
	}
	if extra <= 0 {
		return fmt.Errorf("resmgr: grant extension must be positive, got %d", extra)
	}
	g, p := gr.gov, gr.pool
	g.mu.Lock()
	defer g.mu.Unlock()
	// Checked under g.mu: release() also runs under g.mu after flipping the
	// flag, so a Request racing with Release either sees released here or
	// lands its bytes before release() reads them — never a leak.
	if gr.released.Load() {
		return fmt.Errorf("resmgr: grant extension after release")
	}
	cur := gr.bytes.Load()
	// Fail fast on requests no release can ever satisfy, naming the limit.
	if c := p.capBytes(g); cur+extra > c {
		gr.deniedExtensions.Add(1)
		metrics.GrantDenials.Inc()
		return infeasiblef("resmgr: extension of %d bytes on pool %q is infeasible: grant %d + extension exceeds the pool's maxmemorysize of %d bytes",
			extra, p.cfg.Name, cur, c)
	}
	floor := g.feasibilityFloorLocked(p, cur+extra)
	if floor > g.cfg.PoolBytes {
		gr.deniedExtensions.Add(1)
		metrics.GrantDenials.Inc()
		return infeasiblef("resmgr: extension of %d bytes on pool %q is infeasible: other pools reserve %d of the %d-byte global pool",
			extra, p.cfg.Name, floor-(cur+extra), g.cfg.PoolBytes)
	}
	if !g.memoryFitsLocked(p, extra) {
		gr.deniedExtensions.Add(1)
		metrics.GrantDenials.Inc()
		return ErrExtensionDenied
	}
	g.inUse += extra
	p.inUse += extra
	gr.bytes.Add(extra)
	gr.extensions.Add(1)
	gr.extensionBytes.Add(extra)
	metrics.GrantExtensions.Inc()
	return nil
}

// Pool is the name of the pool the grant was admitted on.
func (gr *Grant) Pool() string {
	if gr == nil || gr.pool == nil {
		return ""
	}
	return gr.pool.cfg.Name
}

// OperatorBudget divides the current grant across n concurrent pipelines,
// matching the paper's per-operator budget model. n < 1 is treated as 1.
func (gr *Grant) OperatorBudget(n int) int64 {
	if gr == nil {
		return 0
	}
	if n < 1 {
		n = 1
	}
	b := gr.bytes.Load() / int64(n)
	if b < MinGrantBytes {
		b = MinGrantBytes // floor: an operator can always buffer one batch
	}
	return b
}

// RuntimeCap is the pool's execution wall-time bound at admission time
// (zero = uncapped). Callers wrap the statement's context in a deadline of
// this duration so a runaway statement cancels at the next batch boundary
// and releases its slot.
func (gr *Grant) RuntimeCap() time.Duration {
	if gr == nil {
		return 0
	}
	return gr.runtimeCap
}

// Parallelism is the pool's intra-node parallel degree at admission time
// (zero = engine default). The planner fans parallel shapes out this wide;
// the workers share this one grant, each budgeted a split of it.
func (gr *Grant) Parallelism() int {
	if gr == nil {
		return 0
	}
	return gr.parallelism
}

// QueryID is the id assigned at admission. The grant's retained profile
// appears in v_monitor.query_profiles under the same id, as do the Data
// Collector's phase and event records — it is the engine-wide join key.
func (gr *Grant) QueryID() int64 {
	if gr == nil {
		return 0
	}
	return gr.queryID
}

// QueueWait is how long the query sat in the admission queue.
func (gr *Grant) QueueWait() time.Duration {
	if gr == nil {
		return 0
	}
	return gr.queueWait
}

// ReportRows adds produced rows to the grant's counters.
func (gr *Grant) ReportRows(n int64) {
	if gr == nil {
		return
	}
	gr.rows.Add(n)
}

// ReportSpill records one externalization of b bytes.
func (gr *Grant) ReportSpill(b int64) {
	if gr == nil {
		return
	}
	gr.spills.Add(1)
	gr.spilledBytes.Add(b)
}

// ReportAlloc raises the high-water mark of operator memory observed.
func (gr *Grant) ReportAlloc(b int64) {
	if gr == nil {
		return
	}
	for {
		cur := gr.allocPeak.Load()
		if b <= cur || gr.allocPeak.CompareAndSwap(cur, b) {
			return
		}
	}
}

// SetError marks the grant's query as failed so its retained profile records
// the failure. Must be called by the query's own goroutine before Release.
func (gr *Grant) SetError(err error) {
	if gr == nil || err == nil {
		return
	}
	gr.errMsg = err.Error()
}

// QueryStats is the per-query counter snapshot.
type QueryStats struct {
	// QueryID is the id assigned at admission; 0 for ungoverned queries.
	QueryID      int64
	Rows         int64
	Spills       int64
	SpilledBytes int64
	AllocPeak    int64
	// GrantExtensions / ExtensionBytes record successful mid-flight grant
	// renegotiations; DeniedExtensions counts refused requests (each one
	// typically followed by an operator spill).
	GrantExtensions  int64
	ExtensionBytes   int64
	DeniedExtensions int64
	QueueWait        time.Duration
	WallTime         time.Duration
}

// Stats snapshots the grant's counters; WallTime runs until Release.
func (gr *Grant) Stats() QueryStats {
	if gr == nil {
		return QueryStats{}
	}
	return QueryStats{
		QueryID:          gr.queryID,
		Rows:             gr.rows.Load(),
		Spills:           gr.spills.Load(),
		SpilledBytes:     gr.spilledBytes.Load(),
		AllocPeak:        gr.allocPeak.Load(),
		GrantExtensions:  gr.extensions.Load(),
		ExtensionBytes:   gr.extensionBytes.Load(),
		DeniedExtensions: gr.deniedExtensions.Load(),
		QueueWait:        gr.queueWait,
		WallTime:         time.Since(gr.started),
	}
}

// Release returns the grant to the pool, waking queued queries. Idempotent
// and nil-safe, so error paths can release unconditionally.
func (gr *Grant) Release() {
	if gr == nil || !gr.released.CompareAndSwap(false, true) {
		return
	}
	gr.gov.release(gr)
}
