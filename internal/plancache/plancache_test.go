package plancache

import (
	"fmt"
	"testing"

	"repro/internal/metrics"
	"repro/internal/optimizer"
)

func key(fp string) Key { return Key{Fingerprint: fp, Pool: "general", Parallelism: 1} }

func entry(ep Epochs) *Entry {
	return &Entry{Epochs: ep, Probe: optimizer.ProbeInfo{EstMemBytes: 1 << 20, EstRows: 10,
		ProjectionsUsed: []string{"t_super"}}}
}

func TestLookupHitMissAndCounters(t *testing.T) {
	c := New(4)
	ep := Epochs{CatalogGen: 1}
	hits0, miss0 := metrics.PlanCacheHits.Value(), metrics.PlanCacheMisses.Value()

	if c.Lookup(key("q1"), ep) != nil {
		t.Fatal("hit on empty cache")
	}
	c.Insert(key("q1"), entry(ep))
	e := c.Lookup(key("q1"), ep)
	if e == nil {
		t.Fatal("miss after insert")
	}
	if e.Hits() != 1 {
		t.Fatalf("hits = %d", e.Hits())
	}
	// A different pool is a different key.
	if c.Lookup(Key{Fingerprint: "q1", Pool: "other", Parallelism: 1}, ep) != nil {
		t.Fatal("pool not part of key")
	}
	if d := metrics.PlanCacheHits.Value() - hits0; d != 1 {
		t.Fatalf("hit counter delta = %d", d)
	}
	if d := metrics.PlanCacheMisses.Value() - miss0; d != 2 {
		t.Fatalf("miss counter delta = %d", d)
	}
}

func TestLRUEviction(t *testing.T) {
	c := New(2)
	ep := Epochs{}
	ev0 := metrics.PlanCacheEvictions.Value()
	c.Insert(key("a"), entry(ep))
	c.Insert(key("b"), entry(ep))
	c.Lookup(key("a"), ep) // a is now most recent
	c.Insert(key("c"), entry(ep))
	if c.Len() != 2 {
		t.Fatalf("len = %d", c.Len())
	}
	if c.Lookup(key("b"), ep) != nil {
		t.Fatal("LRU entry b survived eviction")
	}
	if c.Lookup(key("a"), ep) == nil || c.Lookup(key("c"), ep) == nil {
		t.Fatal("recently used entries evicted")
	}
	if d := metrics.PlanCacheEvictions.Value() - ev0; d != 1 {
		t.Fatalf("eviction counter delta = %d", d)
	}
}

func TestStaleEntryRetiredOnLookup(t *testing.T) {
	c := New(4)
	old := Epochs{CatalogGen: 1}
	now := Epochs{CatalogGen: 2}
	c.Insert(key("q"), entry(old))
	if c.Lookup(key("q"), now) != nil {
		t.Fatal("stale entry served")
	}
	if c.StaleHits() != 1 {
		t.Fatalf("stale hits = %d", c.StaleHits())
	}
	if c.Len() != 0 {
		t.Fatal("stale entry not retired")
	}
	// A pool-epoch bump is equally invalidating.
	c.Insert(key("q"), entry(now))
	if c.Lookup(key("q"), Epochs{CatalogGen: 2, PoolEpoch: 1}) != nil {
		t.Fatal("pool-stale entry served")
	}
}

func TestInvalidateStaleSweep(t *testing.T) {
	c := New(8)
	old := Epochs{PoolEpoch: 1}
	now := Epochs{PoolEpoch: 2}
	for i := 0; i < 3; i++ {
		c.Insert(key(fmt.Sprintf("old%d", i)), entry(old))
	}
	c.Insert(key("fresh"), entry(now))
	if n := c.InvalidateStale(now); n != 3 {
		t.Fatalf("swept %d", n)
	}
	if c.Len() != 1 || c.Lookup(key("fresh"), now) == nil {
		t.Fatal("fresh entry lost in sweep")
	}
}

func TestInsertReplacesAndSnapshotOrder(t *testing.T) {
	c := New(4)
	ep := Epochs{}
	c.Insert(key("a"), entry(ep))
	c.Insert(key("b"), entry(ep))
	e2 := entry(ep)
	e2.Probe.EstRows = 99
	c.Insert(key("a"), e2) // replace moves a to front
	if c.Len() != 2 {
		t.Fatalf("len = %d", c.Len())
	}
	snap := c.Snapshot()
	if len(snap) != 2 || snap[0].Fingerprint != "a" || snap[0].EstRows != 99 {
		t.Fatalf("snapshot = %+v", snap)
	}
	if snap[1].Fingerprint != "b" {
		t.Fatalf("snapshot order = %+v", snap)
	}
	if snap[0].Projections[0] != "t_super" {
		t.Fatalf("projections = %v", snap[0].Projections)
	}
}

func TestZeroCapacityClampsToOne(t *testing.T) {
	c := New(0)
	if c.Cap() != 1 {
		t.Fatalf("cap = %d", c.Cap())
	}
	c.Insert(key("a"), entry(Epochs{}))
	c.Insert(key("b"), entry(Epochs{}))
	if c.Len() != 1 {
		t.Fatalf("len = %d", c.Len())
	}
}
