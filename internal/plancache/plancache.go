// Package plancache is a bounded LRU cache for analyzed query plans, the
// core of the high-QPS serving path: repeated statements skip the
// analyze/probe-plan work that dominates short-query latency. Entries are
// keyed on a literal-normalized AST fingerprint plus the session knobs that
// change planning (pool, parallelism), and each entry records the catalog
// generation and pool epoch it was planned under — any epoch bump (DDL,
// pool changes) makes the entry stale, so invalidation is a single atomic
// increment elsewhere and staleness is detected lazily at lookup. Cached plans never bypass admission: the
// caller re-admits every execution, the cache only skips planning.
package plancache

import (
	"container/list"
	"sync"
	"time"

	"repro/internal/metrics"
	"repro/internal/optimizer"
	"repro/internal/types"
)

// Key identifies a cacheable plan: the normalized statement plus every
// session knob that changes the plan. Epochs are deliberately NOT part of
// the key — they live in the entry so a lookup under a newer epoch finds
// (and retires) the stale entry instead of silently missing it.
type Key struct {
	Fingerprint   string
	Pool          string
	Parallelism   int
	ForceParallel bool
}

// Epochs snapshots the catalog/pool state a plan was built under.
type Epochs struct {
	CatalogGen int64
	PoolEpoch  int64
}

// Entry is a cached plan: the bound logical query with the literal values
// it embeds, plus the probe metadata (projection choice, cost estimates)
// that admission and placement need. Query is reused verbatim only when
// the caller's literals match Literals exactly; otherwise the caller
// re-analyzes and reuses just the probe metadata.
type Entry struct {
	Query    *optimizer.LogicalQuery
	Literals []types.Value

	// Probe is the planning-time physical probe's metadata.
	Probe optimizer.ProbeInfo

	Epochs Epochs

	hits     int64
	inserted time.Time
	lastHit  time.Time
}

// Hits returns how many lookups this entry has served.
func (e *Entry) Hits() int64 { return e.hits }

type cacheItem struct {
	key   Key
	entry *Entry
}

// Cache is a thread-safe bounded LRU plan cache.
type Cache struct {
	mu    sync.Mutex
	cap   int
	items map[Key]*list.Element
	lru   *list.List // front = most recent

	staleHits int64
}

// New returns a cache bounded to capacity entries (minimum 1).
func New(capacity int) *Cache {
	if capacity < 1 {
		capacity = 1
	}
	return &Cache{cap: capacity, items: map[Key]*list.Element{}, lru: list.New()}
}

// Lookup returns the entry for key if it was planned under the given
// epochs. A fingerprint match planned under older epochs is retired on the
// spot and counted as a stale hit — never returned.
func (c *Cache) Lookup(key Key, now Epochs) *Entry {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		metrics.PlanCacheMisses.Inc()
		return nil
	}
	it := el.Value.(*cacheItem)
	if it.entry.Epochs != now {
		c.staleHits++
		c.removeLocked(el)
		metrics.PlanCacheMisses.Inc()
		metrics.PlanCacheInvalidations.Inc()
		return nil
	}
	c.lru.MoveToFront(el)
	it.entry.hits++
	it.entry.lastHit = time.Now()
	metrics.PlanCacheHits.Inc()
	return it.entry
}

// Insert adds (or replaces) the entry for key, evicting the least recently
// used entry when over capacity.
func (c *Cache) Insert(key Key, e *Entry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e.inserted = time.Now()
	if el, ok := c.items[key]; ok {
		el.Value.(*cacheItem).entry = e
		c.lru.MoveToFront(el)
		return
	}
	c.items[key] = c.lru.PushFront(&cacheItem{key: key, entry: e})
	for c.lru.Len() > c.cap {
		oldest := c.lru.Back()
		c.removeLocked(oldest)
		metrics.PlanCacheEvictions.Inc()
	}
}

// InvalidateStale sweeps every entry not planned under the given epochs.
// Lazy lookup-time retirement makes this optional for correctness; the
// sweep keeps v_monitor.plan_cache and the invalidation counter honest
// immediately after DDL rather than on next touch.
func (c *Cache) InvalidateStale(now Epochs) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	var dead []*list.Element
	for _, el := range c.items {
		if el.Value.(*cacheItem).entry.Epochs != now {
			dead = append(dead, el)
		}
	}
	for _, el := range dead {
		c.removeLocked(el)
		metrics.PlanCacheInvalidations.Inc()
	}
	return len(dead)
}

func (c *Cache) removeLocked(el *list.Element) {
	it := el.Value.(*cacheItem)
	delete(c.items, it.key)
	c.lru.Remove(el)
}

// Len returns the live entry count.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}

// Cap returns the configured capacity.
func (c *Cache) Cap() int { return c.cap }

// StaleHits returns how many lookups matched a fingerprint whose entry was
// planned under older epochs (each was retired, never served). A non-zero
// delta across a race test would mean an epoch bump failed to keep a stale
// plan from being considered current — the invariant tests assert on.
func (c *Cache) StaleHits() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.staleHits
}

// Info is one cache entry snapshot for v_monitor.plan_cache.
type Info struct {
	Fingerprint string    `vt:"statement"`
	Pool        string    `vt:"pool"`
	Parallelism int       `vt:"parallelism"`
	Hits        int64     `vt:"hits"`
	EstRows     int64     `vt:"est_rows"`
	EstMemBytes int64     `vt:"est_mem_bytes"`
	Projections []string  `vt:"projections,csv"`
	CatalogGen  int64     `vt:"catalog_generation"`
	PoolEpoch   int64     `vt:"pool_epoch"`
	Inserted    time.Time `vt:"-"`
	LastHit     time.Time `vt:"-"`
}

// Snapshot lists entries most-recently-used first.
func (c *Cache) Snapshot() []Info {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Info, 0, c.lru.Len())
	for el := c.lru.Front(); el != nil; el = el.Next() {
		it := el.Value.(*cacheItem)
		e := it.entry
		out = append(out, Info{
			Fingerprint: it.key.Fingerprint,
			Pool:        it.key.Pool,
			Parallelism: it.key.Parallelism,
			Hits:        e.hits,
			EstMemBytes: e.Probe.EstMemBytes,
			EstRows:     e.Probe.EstRows,
			Projections: append([]string{}, e.Probe.ProjectionsUsed...),
			CatalogGen:  e.Epochs.CatalogGen,
			PoolEpoch:   e.Epochs.PoolEpoch,
			Inserted:    e.inserted,
			LastHit:     e.lastHit,
		})
	}
	return out
}
