package resmgr

import (
	"context"
	"fmt"
	"time"

	"repro/internal/dc"
)

// Named resource pools (paper §8, "Workload Management"): Vertica partitions
// query memory into named pools with reserved and maximum sizes. A pool
// guarantees MemBytes to its own queries and may *borrow* beyond that from
// the unreserved GENERAL memory, up to MaxMemBytes. Admission is per pool:
// each pool has its own concurrency slots, queue and queue timeout, so an
// ETL pool saturating its slots never blocks an interactive pool with free
// slots (only shared unreserved memory is contended).

// GeneralPool is the built-in pool backing the unreserved memory; statements
// run in it unless their session selects another pool.
const GeneralPool = "general"

// MinGrantBytes floors per-query grants so an operator can always buffer at
// least one batch.
const MinGrantBytes = 64 << 10

// PoolConfig describes one named pool. Zero fields inherit governor
// defaults; see each field.
type PoolConfig struct {
	Name string
	// MemBytes is memory reserved for this pool: admission of other pools
	// never eats into it. Zero reserves nothing (the pool runs entirely on
	// borrowed general memory).
	MemBytes int64
	// MaxMemBytes caps the pool's total use, bounding how much it can borrow
	// beyond MemBytes. Zero means unlimited borrowing (up to the global
	// pool). Setting MaxMemBytes == MemBytes disables borrowing.
	MaxMemBytes int64
	// GrantBytes fixes the per-query grant. Zero derives
	// MemBytes/PlannedConcurrency (general memory stands in for MemBytes
	// when the pool reserves nothing).
	GrantBytes int64
	// PlannedConcurrency sizes default grants; zero uses MaxConcurrency.
	PlannedConcurrency int
	// MaxConcurrency bounds simultaneously running queries of this pool;
	// zero inherits the governor's MaxConcurrency.
	MaxConcurrency int
	// QueueTimeout bounds queue wait for this pool; zero inherits the
	// governor's, negative disables.
	QueueTimeout time.Duration
	// Priority orders admission dispatch across pools: when a release frees
	// resources, higher-priority pools' queues are served first (FIFO within
	// a pool). Equal priorities keep creation order; general defaults to 0.
	Priority int
	// RuntimeCap bounds a statement's execution wall time: admitted
	// statements run under a context deadline and a runaway statement is
	// cancelled at the next batch boundary, releasing its slot and memory.
	// Zero means uncapped.
	RuntimeCap time.Duration
	// Parallelism is the intra-node parallel degree this pool's statements
	// plan with (Vertica's EXECUTIONPARALLELISM): parallel join/sort/
	// aggregation/DISTINCT shapes fan out this many worker pipelines, all
	// sharing the query's single memory grant (budget split per worker).
	// Zero inherits the engine default.
	Parallelism int
}

// PoolAlter carries ALTER RESOURCE POOL changes; nil fields keep the current
// value.
type PoolAlter struct {
	MemBytes           *int64
	MaxMemBytes        *int64
	GrantBytes         *int64
	PlannedConcurrency *int
	MaxConcurrency     *int
	QueueTimeout       *time.Duration
	Priority           *int
	RuntimeCap         *time.Duration
	Parallelism        *int
}

// PoolStatus is a snapshot of one pool's configuration and counters, the row
// source for v_monitor.resource_pools: its tagged fields are the table's
// columns, in order.
type PoolStatus struct {
	// Config holds the knobs as configured (zero = inherit), the form the
	// catalog persists; the Eff* fields below are what they resolve to.
	Config PoolConfig `vt:"-"`

	Name               string `vt:"name"`
	MemBytes           int64  `vt:"memorysize"`
	EffMaxMemBytes     int64  `vt:"maxmemorysize"`
	EffGrantBytes      int64  `vt:"grantsize"`
	PlannedConcurrency int    `vt:"planned_concurrency"`
	EffMaxConcurrency  int    `vt:"max_concurrency"`
	// EffQueueTimeout is -1ms when the queue timeout is disabled.
	EffQueueTimeout time.Duration `vt:"queue_timeout_ms,ms"`
	Running         int           `vt:"running"`
	Waiting         int           `vt:"waiting"`
	InUseBytes      int64         `vt:"in_use_bytes"`
	BorrowedBytes   int64         `vt:"borrowed_bytes"` // in-use beyond the pool's reservation
	Admitted        int64         `vt:"admitted"`
	Queued          int64         `vt:"queued"`
	TimedOut        int64         `vt:"timed_out"`
	Canceled        int64         `vt:"canceled"`
	PeakRunning     int           `vt:"peak_running"`
	TotalQueueWait  time.Duration `vt:"queue_wait_us,us"`
	Priority        int           `vt:"priority"`
	RuntimeCap      time.Duration `vt:"runtimecap_ms,ms"`
	Parallelism     int           `vt:"parallelism"`
	// Mid-flight grant renegotiation counters, aggregated over released
	// grants (outstanding extensions already show in InUseBytes).
	GrantExtensions  int64 `vt:"grant_extensions"`
	ExtensionBytes   int64 `vt:"extension_bytes"`
	DeniedExtensions int64 `vt:"denied_extensions"`

	RowsReturned int64 `vt:"-"`
	SpilledBytes int64 `vt:"-"`
}

// pool is the runtime state of one named pool. All fields are guarded by the
// governor's mutex.
type pool struct {
	cfg PoolConfig

	inUse   int64
	running int
	queue   []*waiter

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
}

// maxConc is the pool's effective concurrency bound.
func (p *pool) maxConc(g *Governor) int {
	if p.cfg.MaxConcurrency > 0 {
		return p.cfg.MaxConcurrency
	}
	return g.cfg.MaxConcurrency
}

// capBytes is the pool's effective memory ceiling (reservation plus maximum
// borrow), never exceeding the global pool.
func (p *pool) capBytes(g *Governor) int64 {
	if p.cfg.MaxMemBytes > 0 && p.cfg.MaxMemBytes < g.cfg.PoolBytes {
		return p.cfg.MaxMemBytes
	}
	return g.cfg.PoolBytes
}

// grantSize is the pool's effective default per-query grant: the pool's
// reservation divided by its planned concurrency. A pool reserving nothing
// sizes grants like the general pool (global pool over the governor's
// concurrency), so a narrow unreserved pool does not monopolize memory.
func (p *pool) grantSize(g *Governor) int64 {
	b := p.cfg.GrantBytes
	if b <= 0 {
		base := p.cfg.MemBytes
		planned := p.cfg.PlannedConcurrency
		if base <= 0 {
			base = g.cfg.PoolBytes
			if planned <= 0 {
				planned = g.cfg.MaxConcurrency
			}
		}
		if planned <= 0 {
			planned = p.maxConc(g)
		}
		b = base / int64(planned)
	}
	if b < MinGrantBytes {
		b = MinGrantBytes
	}
	if c := p.capBytes(g); b > c {
		b = c
	}
	// Shrink to the unreserved remainder: other pools' reservations are
	// untouchable, so a grant larger than what is left could never be
	// admitted — a legal CREATE RESOURCE POOL must not brick this pool's
	// default admissions. (If reservations leave less than one minimum
	// grant, admission fails fast with the feasibility error instead.)
	avail := g.cfg.PoolBytes
	for _, name := range g.order {
		if q := g.pools[name]; q != p {
			avail -= q.cfg.MemBytes
		}
	}
	if b > avail && avail >= MinGrantBytes {
		b = avail
	}
	return b
}

// timeout is the pool's effective queue timeout (<= 0 disables).
func (p *pool) timeout(g *Governor) time.Duration {
	if p.cfg.QueueTimeout != 0 {
		return p.cfg.QueueTimeout
	}
	return g.cfg.QueueTimeout
}

func (p *pool) statusLocked(g *Governor) PoolStatus {
	borrowed := p.inUse - p.cfg.MemBytes
	if borrowed < 0 {
		borrowed = 0
	}
	timeout := p.timeout(g)
	if timeout < 0 {
		timeout = -time.Millisecond
	}
	return PoolStatus{
		Config:             p.cfg,
		Name:               p.cfg.Name,
		MemBytes:           p.cfg.MemBytes,
		EffMaxMemBytes:     p.capBytes(g),
		EffGrantBytes:      p.grantSize(g),
		PlannedConcurrency: p.cfg.PlannedConcurrency,
		EffMaxConcurrency:  p.maxConc(g),
		EffQueueTimeout:    timeout,
		Running:            p.running,
		Waiting:            len(p.queue),
		InUseBytes:         p.inUse,
		BorrowedBytes:      borrowed,
		Admitted:           p.admitted,
		Queued:             p.queuedTotal,
		TimedOut:           p.timedOut,
		Canceled:           p.canceled,
		PeakRunning:        p.peakRunning,
		TotalQueueWait:     p.queueWait,
		Priority:           p.cfg.Priority,
		RuntimeCap:         p.cfg.RuntimeCap,
		Parallelism:        p.cfg.Parallelism,
		GrantExtensions:    p.extensions,
		ExtensionBytes:     p.extBytes,
		DeniedExtensions:   p.deniedExt,
		RowsReturned:       p.rows,
		SpilledBytes:       p.spilled,
	}
}

// --- pool administration ----------------------------------------------------

// CreatePool registers a named pool. The sum of all reservations (MemBytes)
// must fit the global pool so every reservation stays honorable.
func (g *Governor) CreatePool(cfg PoolConfig) error {
	if cfg.Name == "" {
		return fmt.Errorf("resmgr: pool name is required")
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if _, ok := g.pools[cfg.Name]; ok {
		return fmt.Errorf("resmgr: pool %q already exists", cfg.Name)
	}
	if err := g.validatePoolLocked(cfg, cfg.Name); err != nil {
		return err
	}
	g.pools[cfg.Name] = &pool{cfg: cfg}
	g.order = append(g.order, cfg.Name)
	return nil
}

// AlterPool applies the non-nil fields of a to the named pool and re-runs
// dispatch (loosened limits may admit queued queries immediately).
func (g *Governor) AlterPool(name string, a PoolAlter) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	p, ok := g.pools[name]
	if !ok {
		return fmt.Errorf("resmgr: pool %q does not exist", name)
	}
	cfg := p.cfg
	if a.MemBytes != nil {
		cfg.MemBytes = *a.MemBytes
	}
	if a.MaxMemBytes != nil {
		cfg.MaxMemBytes = *a.MaxMemBytes
	}
	if a.GrantBytes != nil {
		cfg.GrantBytes = *a.GrantBytes
	}
	if a.PlannedConcurrency != nil {
		cfg.PlannedConcurrency = *a.PlannedConcurrency
	}
	if a.MaxConcurrency != nil {
		cfg.MaxConcurrency = *a.MaxConcurrency
	}
	if a.QueueTimeout != nil {
		cfg.QueueTimeout = *a.QueueTimeout
	}
	if a.Priority != nil {
		cfg.Priority = *a.Priority
	}
	if a.RuntimeCap != nil {
		cfg.RuntimeCap = *a.RuntimeCap
	}
	if a.Parallelism != nil {
		cfg.Parallelism = *a.Parallelism
	}
	if err := g.validatePoolLocked(cfg, name); err != nil {
		return err
	}
	p.cfg = cfg
	g.dispatchLocked()
	return nil
}

// validatePoolLocked checks a pool configuration against the governor and
// the other pools' reservations. self is skipped in the reservation sum.
func (g *Governor) validatePoolLocked(cfg PoolConfig, self string) error {
	if cfg.MemBytes < 0 || cfg.MaxMemBytes < 0 || cfg.GrantBytes < 0 {
		return fmt.Errorf("resmgr: pool %q: negative sizes", cfg.Name)
	}
	if cfg.MaxConcurrency < 0 || cfg.PlannedConcurrency < 0 {
		return fmt.Errorf("resmgr: pool %q: negative concurrency", cfg.Name)
	}
	if cfg.RuntimeCap < 0 {
		return fmt.Errorf("resmgr: pool %q: negative runtime cap", cfg.Name)
	}
	if cfg.Parallelism < 0 {
		return fmt.Errorf("resmgr: pool %q: negative parallelism", cfg.Name)
	}
	if cfg.MemBytes > g.cfg.PoolBytes {
		return fmt.Errorf("resmgr: pool %q reserves %d bytes, global pool is %d",
			cfg.Name, cfg.MemBytes, g.cfg.PoolBytes)
	}
	if cfg.MaxMemBytes > 0 && cfg.MaxMemBytes < cfg.MemBytes {
		return fmt.Errorf("resmgr: pool %q: maxmemorysize %d below memorysize %d",
			cfg.Name, cfg.MaxMemBytes, cfg.MemBytes)
	}
	reserved := cfg.MemBytes
	for name, q := range g.pools {
		if name == self {
			continue
		}
		reserved += q.cfg.MemBytes
	}
	if reserved > g.cfg.PoolBytes {
		return fmt.Errorf("resmgr: pool reservations total %d bytes, exceeding the %d-byte global pool",
			reserved, g.cfg.PoolBytes)
	}
	return nil
}

// DropPool removes an idle pool; the built-in general pool cannot be
// dropped, and a pool with running or queued queries refuses.
func (g *Governor) DropPool(name string) error {
	if name == GeneralPool {
		return fmt.Errorf("resmgr: cannot drop the built-in %s pool", GeneralPool)
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	p, ok := g.pools[name]
	if !ok {
		return fmt.Errorf("resmgr: pool %q does not exist", name)
	}
	if p.running > 0 || len(p.queue) > 0 {
		return fmt.Errorf("resmgr: pool %q is busy (%d running, %d queued)", name, p.running, len(p.queue))
	}
	delete(g.pools, name)
	for i, n := range g.order {
		if n == name {
			g.order = append(g.order[:i], g.order[i+1:]...)
			break
		}
	}
	// The dropped pool's reservation returns to general: re-dispatch.
	g.dispatchLocked()
	return nil
}

// HasPool reports whether the named pool exists.
func (g *Governor) HasPool(name string) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	_, ok := g.pools[name]
	return ok
}

// Pools snapshots every pool in creation order (general first).
func (g *Governor) Pools() []PoolStatus {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make([]PoolStatus, 0, len(g.order))
	for _, name := range g.order {
		out = append(out, g.pools[name].statusLocked(g))
	}
	return out
}

// PoolStatus snapshots one pool.
func (g *Governor) PoolStatus(name string) (PoolStatus, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	p, ok := g.pools[name]
	if !ok {
		return PoolStatus{}, false
	}
	return p.statusLocked(g), true
}

// --- query profiles ---------------------------------------------------------

// QueryProfile is the retained accounting of one finished statement, the row
// source for v_monitor.query_profiles.
type QueryProfile struct {
	ID           int64  `vt:"profile_id"`
	Pool         string `vt:"pool"`
	Label        string `vt:"statement"`   // statement text (or caller-supplied tag)
	GrantBytes   int64  `vt:"grant_bytes"` // final grant: admission bytes plus extensions
	Rows         int64  `vt:"rows_produced"`
	Spills       int64  `vt:"spills"`
	SpilledBytes int64  `vt:"spilled_bytes"`
	// GrantExtensions / ExtensionBytes record successful mid-flight grant
	// renegotiations; DeniedExtensions counts refused requests (the operator
	// spilled instead of growing).
	GrantExtensions  int64         `vt:"grant_extensions"`
	ExtensionBytes   int64         `vt:"extension_bytes"`
	DeniedExtensions int64         `vt:"denied_extensions"`
	AllocPeak        int64         `vt:"alloc_peak_bytes"`
	QueueWait        time.Duration `vt:"queue_wait_us,us"`
	Wall             time.Duration `vt:"wall_us,us"`
	Started          time.Time     `vt:"started_at"`
	Status           string        `vt:"status"` // "ok" | "error"
	Error            string        `vt:"error"`  // "" on success
}

// profileStatus is a profile's status column: "error" iff it has error text.
func profileStatus(errMsg string) string {
	if errMsg != "" {
		return "error"
	}
	return "ok"
}

// Profiles returns retained query profiles, oldest first.
func (g *Governor) Profiles() []QueryProfile { return g.profiles.Snapshot() }

// RingStats reports the retention of the governor's two profile rings.
func (g *Governor) RingStats() []dc.RingStats {
	return []dc.RingStats{g.profiles.Stats(), g.opProfiles.Stats()}
}

// --- context tags -----------------------------------------------------------

type ctxKey int

const (
	poolCtxKey ctxKey = iota
	labelCtxKey
)

// WithPool tags a context with the resource pool its statements admit
// against; the zero value routes to the general pool.
func WithPool(ctx context.Context, pool string) context.Context {
	return context.WithValue(ctx, poolCtxKey, pool)
}

// PoolFromContext returns the pool tag ("" when untagged).
func PoolFromContext(ctx context.Context) string {
	if ctx == nil {
		return ""
	}
	s, _ := ctx.Value(poolCtxKey).(string)
	return s
}

// WithLabel tags a context with a human-readable statement label recorded in
// query profiles (typically the SQL text).
func WithLabel(ctx context.Context, label string) context.Context {
	return context.WithValue(ctx, labelCtxKey, label)
}

// LabelFromContext returns the label tag ("" when untagged).
func LabelFromContext(ctx context.Context) string {
	if ctx == nil {
		return ""
	}
	s, _ := ctx.Value(labelCtxKey).(string)
	return s
}
