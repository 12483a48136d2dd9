package storage

import (
	"sync"
	"sync/atomic"

	"repro/internal/encoding"
	"repro/internal/metrics"
	"repro/internal/types"
	"repro/internal/vector"
)

// Decoded-block cache. ROS containers are immutable — once written they are
// only ever replaced wholesale by the tuple mover — so a block's decoded
// vector can be shared by every scan that reads it, and consumers treat scan
// vectors as read-only. On a hot serving path this turns the dominant
// per-query cost (entropy-decoding the same blocks over and over) into a map
// hit. The cache is process-wide with a byte budget and LRU eviction; entries
// are keyed by reader identity, so a container dropped or retired by
// mergeout simply ages out.
//
// A cold working set recycles instead (docs/ARCHITECTURE.md, "Batch
// lifetime"): an entry counts the cache's reference, a scan's pins and the
// Retains of batches that view it, and at zero its vector goes to a free
// list of its type, counted against the budget, for the next decode to
// overwrite. Vectors handed out unpinned (DecodeBlock) are never recycled.

// DefaultBlockCacheBytes is the initial cache budget.
const DefaultBlockCacheBytes = 64 << 20

// A decode that would leave less than budget/recycleSlack free first moves
// up to maxVictims least recently used blocks to the free lists, so that
// the room blocks of unequal sizes leave behind is not filled by new vectors.
const recycleSlack, maxVictims = 8, 8

type blockKey struct {
	r            *ContainerReader
	col          int
	offset       int64 // block offset within the column file
	preserveRuns bool
}

// blockEntry owns one vector for its whole life: cached, pinned or free.
type blockEntry struct {
	key  blockKey
	v    *vector.Vector
	size int64
	refs atomic.Int64 // exec.Run never gives its Retains back: 64 bits
	keep bool         // never to be recycled (guarded by the cache's mutex)

	prev, next *blockEntry // its neighbours in the LRU while cached
}

// Retain implements vector.Owner.
func (e *blockEntry) Retain() { e.refs.Add(1) }

// Release implements vector.Owner: the last reference frees the vector.
func (e *blockEntry) Release() {
	switch n := e.refs.Add(-1); {
	case n == 0:
		sharedBlockCache.mu.Lock()
		sharedBlockCache.freeLocked(e)
		sharedBlockCache.mu.Unlock()
	case n < 0:
		panic("storage: block released more often than it was pinned or retained")
	}
}

type blockCache struct {
	mu      sync.Mutex
	budget  int64
	used    int64 // bytes of cached and free entries
	entries map[blockKey]*blockEntry
	// The LRU, linked through the entries so that caching one allocates
	// nothing: head is the most recently used.
	head, tail *blockEntry
	free       map[types.Type][]*blockEntry
}

var sharedBlockCache = &blockCache{budget: DefaultBlockCacheBytes, entries: map[blockKey]*blockEntry{},
	free: map[types.Type][]*blockEntry{}}

func (c *blockCache) pushFrontLocked(e *blockEntry) {
	e.prev, e.next = nil, c.head
	if c.head != nil {
		c.head.prev = e
	} else {
		c.tail = e
	}
	c.head = e
}

func (c *blockCache) unlinkLocked(e *blockEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		c.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		c.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

// SetBlockCacheBudget resizes the decoded-block cache, evicting down to the
// new budget. A budget <= 0 disables caching entirely.
func SetBlockCacheBudget(bytes int64) {
	c := sharedBlockCache
	c.mu.Lock()
	defer c.mu.Unlock()
	c.budget = bytes
	c.makeRoomLocked(0)
}

// RecycleProbe is a test seam that only tests install: every vector is
// scribbled over as it enters a free list, and recycles are counted.
type RecycleProbe struct {
	Recycled atomic.Int64 // vectors a decode took off a free list
}

var recycleProbe atomic.Pointer[RecycleProbe]

// SetRecycleProbe installs p; nil removes it.
func SetRecycleProbe(p *RecycleProbe) { recycleProbe.Store(p) }

// pin looks k up and takes a reference for the caller; keep marks a vector
// handed out unpinned. nil on a miss.
func (c *blockCache) pin(k blockKey, keep bool) *blockEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[k]
	if !ok {
		metrics.BlockCacheMisses.Inc()
		return nil
	}
	metrics.BlockCacheHits.Inc()
	c.unlinkLocked(e)
	c.pushFrontLocked(e)
	e.refs.Add(1)
	e.keep = e.keep || keep
	return e
}

// take returns a free entry of type t with a reference for the caller, nil
// when there is none, first freeing LRU blocks when the cache is too full
// for est more bytes (recycleSlack).
func (c *blockCache) take(t types.Type, est int64) *blockEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i := 0; i < maxVictims && len(c.free[t]) == 0 && c.used+est > c.budget-c.budget/recycleSlack && c.tail != nil; i++ {
		c.evictLocked(c.tail)
	}
	fl := c.free[t]
	if len(fl) == 0 {
		return nil
	}
	e := fl[len(fl)-1]
	c.free[t] = fl[:len(fl)-1]
	c.used -= e.size
	if p := recycleProbe.Load(); p != nil {
		p.Recycled.Add(1)
	}
	e.refs.Store(1)
	return e
}

// admit caches e, decoded for k, unless it is larger than the whole budget
// or a racing decode cached k first; e keeps the caller's reference.
func (c *blockCache) admit(k blockKey, e *blockEntry) {
	e.key, e.size = k, vectorFootprint(e.v)
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, dup := c.entries[k]; dup || e.size > c.budget {
		return
	}
	c.makeRoomLocked(e.size)
	e.refs.Add(1)
	c.entries[k] = e
	c.pushFrontLocked(e)
	c.used += e.size
	metrics.BlockCacheBytes.Set(c.used)
}

// makeRoomLocked frees bytes until n more fit the budget: free vectors
// first, then LRU blocks. A block nothing else holds is dropped, since
// freeing it would make no room; a pinned one may be freed when unpinned.
func (c *blockCache) makeRoomLocked(n int64) {
	for t, fl := range c.free {
		for ; c.used+n > c.budget && len(fl) > 0; fl = fl[1:] {
			c.used -= fl[0].size
			fl[0] = nil
		}
		c.free[t] = fl
	}
	for c.used+n > c.budget && c.tail != nil {
		e := c.tail
		e.keep = e.keep || e.refs.Load() == 1
		c.evictLocked(e)
	}
	metrics.BlockCacheBytes.Set(c.used)
}

// evictLocked takes e out of the cache, dropping the cache's reference.
func (c *blockCache) evictLocked(e *blockEntry) {
	c.unlinkLocked(e)
	delete(c.entries, e.key)
	c.used -= e.size
	metrics.BlockCacheEvictions.Inc()
	if e.refs.Add(-1) == 0 {
		c.freeLocked(e)
	}
	metrics.BlockCacheBytes.Set(c.used)
}

// freeLocked puts e, which nothing references any more, on its free list,
// making room for it, unless it is kept or larger than the budget.
func (c *blockCache) freeLocked(e *blockEntry) {
	if e.keep || e.size > c.budget {
		return
	}
	c.makeRoomLocked(e.size)
	if recycleProbe.Load() != nil {
		scribble(e.v)
	}
	c.free[e.v.Typ] = append(c.free[e.v.Typ], e)
	c.used += e.size
}

// scribble overwrites a free vector's values with implausible ones.
func scribble(v *vector.Vector) {
	fill(v.Ints, -0x5eed_dead_beef)
	fill(v.Floats, -1.5e300)
	fill(v.Strs, "\x00recycled")
	fill(v.Nulls, true)
}

func fill[T any](s []T, x T) {
	for i := range s {
		s[i] = x
	}
}

// vectorFootprint approximates a decoded vector's heap size in bytes.
func vectorFootprint(v *vector.Vector) int64 {
	n := int64(cap(v.Ints))*8 + int64(cap(v.Floats))*8 + int64(cap(v.Nulls)) + int64(len(v.RunLens))*8
	for _, s := range v.Strs {
		n += int64(len(s)) + 16
	}
	return n + 64 // struct overhead
}

// dictScratch lends a decode the scratch for its block's dictionary
// (BLOCK_DICT's values, Compressed Common Delta's deltas and symbols, a
// SCALED block's integer dictionary): nothing keeps a dictionary past its
// decode, so warm scratch serves one decode after another.
var dictScratch = sync.Pool{New: func() any { return new(vector.Vector) }}

// decode decodes block k of rows rows into a free vector, or a new one, and
// admits it; the caller holds a reference.
func (r *ContainerReader) decode(k blockKey, data []byte, rows int64, keep bool) (*vector.Vector, error) {
	c, t := sharedBlockCache, r.Meta.Cols[k.col].Typ
	e := c.take(t, rows*8+64)
	if e == nil {
		e = &blockEntry{v: &vector.Vector{Typ: t}}
		e.v.Owner = e
		e.refs.Store(1)
	}
	var scratch *vector.Vector
	if kind, _ := encoding.BlockKind(data); kind == encoding.BlockDict || kind == encoding.CompressedCommonDelta || kind == encoding.Scaled {
		scratch = dictScratch.Get().(*vector.Vector)
		defer dictScratch.Put(scratch)
	}
	if err := encoding.DecodeInto(e.v, data, k.preserveRuns, scratch); err != nil {
		return nil, err
	}
	e.keep = keep
	c.admit(k, e)
	return e.v, nil
}
