package storage

import (
	"testing"

	"repro/internal/metrics"
	"repro/internal/types"
)

// TestBlockCacheHitOnRepeatedDecode: decoding the same block twice serves
// the second decode from the cache, returning the identical vector.
func TestBlockCacheHitOnRepeatedDecode(t *testing.T) {
	defer SetBlockCacheBudget(DefaultBlockCacheBytes)
	SetBlockCacheBudget(DefaultBlockCacheBytes) // reset LRU state across tests
	r, _ := writeTestContainer(t, t.TempDir(), 200)
	pidx, err := r.Pidx(0)
	if err != nil {
		t.Fatal(err)
	}
	hits0 := metrics.BlockCacheHits.Value()
	v1, err := r.DecodeBlock(0, &pidx[0], false)
	if err != nil {
		t.Fatal(err)
	}
	v2, err := r.DecodeBlock(0, &pidx[0], false)
	if err != nil {
		t.Fatal(err)
	}
	if v1 != v2 {
		t.Fatal("second decode did not return the cached vector")
	}
	if d := metrics.BlockCacheHits.Value() - hits0; d != 1 {
		t.Fatalf("hit counter delta = %d", d)
	}
	// preserveRuns requests a different vector shape: it must not alias the
	// flat cached entry.
	v3, err := r.DecodeBlock(1, &pidx[0], true)
	if err != nil {
		t.Fatal(err)
	}
	v4, err := r.DecodeBlock(1, &pidx[0], false)
	if err != nil {
		t.Fatal(err)
	}
	if v3 == v4 {
		t.Fatal("preserveRuns variants share a cache entry")
	}
}

// TestBlockCacheBudgetAndEviction: inserts beyond the budget evict the
// least-recently-used entries, and a zero budget disables caching.
func TestBlockCacheBudgetAndEviction(t *testing.T) {
	defer SetBlockCacheBudget(DefaultBlockCacheBytes)
	r, _ := writeTestContainer(t, t.TempDir(), 640) // 10 blocks of 64 rows
	pidx, err := r.Pidx(0)
	if err != nil {
		t.Fatal(err)
	}

	// Budget for roughly two 64-row int blocks (64*8 + overhead each).
	SetBlockCacheBudget(1200)
	ev0 := metrics.BlockCacheEvictions.Value()
	for i := 0; i < len(pidx); i++ {
		if _, err := r.DecodeBlock(0, &pidx[i], false); err != nil {
			t.Fatal(err)
		}
	}
	if used := BlockCacheUsed(); used > 1200 {
		t.Fatalf("cache used %d bytes, budget 1200", used)
	}
	if metrics.BlockCacheEvictions.Value() == ev0 {
		t.Fatal("no evictions despite exceeding the budget")
	}

	// Zero budget: nothing is retained.
	SetBlockCacheBudget(0)
	if used := BlockCacheUsed(); used != 0 {
		t.Fatalf("cache not emptied by zero budget: %d bytes", used)
	}
	if _, err := r.DecodeBlock(0, &pidx[0], false); err != nil {
		t.Fatal(err)
	}
	if used := BlockCacheUsed(); used != 0 {
		t.Fatalf("zero-budget cache retained %d bytes", used)
	}
}

// TestBlockCacheDistinctColumns: blocks of different columns and types cache
// under distinct keys and decode to their own values.
func TestBlockCacheDistinctColumns(t *testing.T) {
	defer SetBlockCacheBudget(DefaultBlockCacheBytes)
	SetBlockCacheBudget(DefaultBlockCacheBytes)
	r, _ := writeTestContainer(t, t.TempDir(), 128)
	for c, typ := range []types.Type{types.Int64, types.Varchar, types.Float64} {
		pidx, err := r.Pidx(c)
		if err != nil {
			t.Fatal(err)
		}
		v, err := r.DecodeBlock(c, &pidx[0], false)
		if err != nil {
			t.Fatal(err)
		}
		if v.Typ != typ {
			t.Fatalf("col %d decoded as %s, want %s", c, v.Typ, typ)
		}
		again, err := r.DecodeBlock(c, &pidx[0], false)
		if err != nil {
			t.Fatal(err)
		}
		if again != v {
			t.Fatalf("col %d second decode missed the cache", c)
		}
	}
}
