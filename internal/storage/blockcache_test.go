package storage

import (
	"fmt"
	"path/filepath"
	"testing"

	"repro/internal/encoding"
	"repro/internal/metrics"
	"repro/internal/types"
	"repro/internal/vector"
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
	if used := cacheUsed(); used > 1200 {
		t.Fatalf("cache used %d bytes, budget 1200", used)
	}
	if metrics.BlockCacheEvictions.Value() == ev0 {
		t.Fatal("no evictions despite exceeding the budget")
	}

	// Zero budget: nothing is retained.
	SetBlockCacheBudget(0)
	if used := cacheUsed(); used != 0 {
		t.Fatalf("cache not emptied by zero budget: %d bytes", used)
	}
	if _, err := r.DecodeBlock(0, &pidx[0], false); err != nil {
		t.Fatal(err)
	}
	if used := cacheUsed(); used != 0 {
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

// TestPinnedBlockRecycles: a pinned block that is evicted goes to the free
// list once its pin is released, scribbled over while the probe is
// installed, and the next decode of its type overwrites it.
func TestPinnedBlockRecycles(t *testing.T) {
	defer SetBlockCacheBudget(DefaultBlockCacheBytes)
	p := &RecycleProbe{}
	SetRecycleProbe(p)
	defer SetRecycleProbe(nil)
	r, _ := writeTestContainer(t, t.TempDir(), 640) // 10 blocks of 64 rows
	pidx, err := r.Pidx(0)
	if err != nil {
		t.Fatal(err)
	}
	SetBlockCacheBudget(1200) // about two 64-row int blocks
	v0, err := r.PinBlock(0, &pidx[0], false)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < 4; i++ { // evicts block 0, which its pin keeps
		v, err := r.PinBlock(0, &pidx[i], false)
		if err != nil {
			t.Fatal(err)
		}
		v.Owner.Release()
	}
	if v0.Ints[5] != 5 || p.Recycled.Load() == 0 {
		t.Fatalf("pinned block reads %d after evictions (want 5); %d recycled", v0.Ints[5], p.Recycled.Load())
	}
	v0.Owner.Release()
	if v0.Ints[5] == 5 {
		t.Fatal("an evicted block was not scribbled over when its last pin went")
	}
	v, err := r.PinBlock(0, &pidx[9], false)
	if err != nil {
		t.Fatal(err)
	}
	defer v.Owner.Release()
	if v.Ints[0] != 9*64 || v.Ints[63] != 9*64+63 {
		t.Fatalf("recycled decode reads %d..%d", v.Ints[0], v.Ints[63])
	}
}

// TestColumnIterVectorsNeverRecycled: vectors handed out unpinned — by
// ColumnIter (DecodeBlock) and by encoding.DecodeBlock — keep their values
// while pinned decodes of ten times the budget recycle around them.
func TestColumnIterVectorsNeverRecycled(t *testing.T) {
	defer SetBlockCacheBudget(DefaultBlockCacheBytes)
	p := &RecycleProbe{}
	SetRecycleProbe(p)
	defer SetRecycleProbe(nil)
	const budget = 2000
	SetBlockCacheBudget(budget)
	kept, _ := writeTestContainer(t, t.TempDir(), 640)
	var vecs []*vector.Vector
	var want []string
	for c := 0; c < 3; c++ {
		it := kept.NewColumnIter(c, nil)
		for {
			v, _, err := it.Next()
			if err != nil {
				t.Fatal(err)
			}
			if v == nil {
				break
			}
			vecs, want = append(vecs, v), append(want, fmt.Sprint(v.Ints, v.Floats, v.Strs))
		}
	}
	data, err := kept.colData(0)
	if err != nil {
		t.Fatal(err)
	}
	pidx, _ := kept.Pidx(0)
	fresh, err := encoding.DecodeBlock(data[pidx[0].Offset:pidx[0].Offset+pidx[0].Length], types.Int64, false)
	if err != nil {
		t.Fatal(err)
	}
	if fresh.Owner != nil {
		t.Fatal("encoding.DecodeBlock returned a cache-owned vector")
	}
	vecs, want = append(vecs, fresh), append(want, fmt.Sprint(fresh.Ints, fresh.Floats, fresh.Strs))

	other, _ := writeTestContainer(t, t.TempDir(), 640)
	decoded := int64(0)
	for decoded < 10*budget {
		for c := 0; c < 3; c++ {
			pidx, _ := other.Pidx(c)
			for i := range pidx {
				v, err := other.PinBlock(c, &pidx[i], false)
				if err != nil {
					t.Fatal(err)
				}
				decoded += vectorFootprint(v)
				v.Owner.Release()
			}
		}
	}
	if p.Recycled.Load() == 0 {
		t.Fatal("the pinned decodes recycled nothing")
	}
	for i, v := range vecs {
		if got := fmt.Sprint(v.Ints, v.Floats, v.Strs); got != want[i] {
			t.Fatalf("unpinned vector %d changed under recycling:\n got %.80s\nwant %.80s", i, got, want[i])
		}
	}
}

// TestPinCachedBlockAllocatesNothing: pinning a cached block and releasing
// the pin is a map hit and two atomic adds.
func TestPinCachedBlockAllocatesNothing(t *testing.T) {
	defer SetBlockCacheBudget(DefaultBlockCacheBytes)
	SetBlockCacheBudget(DefaultBlockCacheBytes)
	r, _ := writeTestContainer(t, t.TempDir(), 200)
	pidx, err := r.Pidx(0)
	if err != nil {
		t.Fatal(err)
	}
	if v, err := r.PinBlock(0, &pidx[0], false); err != nil {
		t.Fatal(err)
	} else {
		v.Owner.Release()
	}
	allocs := testing.AllocsPerRun(100, func() {
		v, _ := r.PinBlock(0, &pidx[0], false)
		v.Owner.Release()
	})
	if allocs != 0 {
		t.Fatalf("pin + release of a cached block allocates %.1f times", allocs)
	}
}

func cacheUsed() int64 {
	sharedBlockCache.mu.Lock()
	defer sharedBlockCache.mu.Unlock()
	return sharedBlockCache.used
}

// TestWarmScaledDecodeAllocatesNothing: a SCALED block (prices in cents,
// NULLs among them, their integers stored with a dictionary) decodes through
// the block cache into a recycled vector and a recycled dictionary scratch
// without allocating: the integers land in the vector's own Ints, which it
// keeps from one block to the next, and are divided in place.
func TestWarmScaledDecodeAllocatesNothing(t *testing.T) {
	defer SetBlockCacheBudget(DefaultBlockCacheBytes)
	const rows, blockRows = 640, 64
	price := vector.New(types.Float64, rows)
	for i := 0; i < rows; i++ {
		if i%7 == 3 {
			price.AppendNull()
		} else {
			price.AppendValue(types.NewFloat(float64(999+i%37*25) / 100))
		}
	}
	meta := &ContainerMeta{ID: "ros_00000001", Projection: "p1", MinEpoch: 1, MaxEpoch: 1,
		Cols: []ColumnSpec{{Name: "price", Typ: types.Float64, Enc: encoding.Auto}}}
	dir := filepath.Join(t.TempDir(), meta.ID)
	if _, err := writeBatch(dir, meta, vector.NewBatch(price), WriterOpts{BlockRows: blockRows}); err != nil {
		t.Fatal(err)
	}
	r, err := OpenContainer(dir)
	if err != nil {
		t.Fatal(err)
	}
	pidx, _ := r.Pidx(0)
	data, _ := r.colData(0)
	for _, e := range pidx {
		// kind, row count, null flag, bitmap, exponent, then the integers' kind
		outer, _ := encoding.BlockKind(data[e.Offset:])
		inner, _ := encoding.BlockKind(data[e.Offset+1+1+1+blockRows/8+1:])
		if outer != encoding.Scaled || inner != encoding.BlockDict && inner != encoding.CompressedCommonDelta {
			t.Fatalf("block at %d stored as %s of %s, want %s of a dictionary kind", e.Offset, outer, inner, encoding.Scaled)
		}
	}
	SetBlockCacheBudget(4 * (2*8*blockRows + blockRows + 64)) // about four decoded blocks of the ten
	p := &RecycleProbe{}
	SetRecycleProbe(p)
	defer SetRecycleProbe(nil)
	i := 0
	decode := func() {
		b := i % len(pidx)
		v, err := r.PinBlock(0, &pidx[b], false)
		if err != nil {
			t.Fatal(err)
		}
		for j := range v.Len() {
			if row := b*blockRows + j; v.NullAt(j) != price.NullAt(row) || !v.NullAt(j) && v.Floats[j] != price.Floats[row] {
				t.Fatalf("block %d row %d = %v, want %v", b, j, v.ValueAt(j), price.ValueAt(row))
			}
		}
		v.Owner.Release()
		i++
	}
	for range 3 * len(pidx) {
		decode()
	}
	recycled := p.Recycled.Load()
	if allocs := testing.AllocsPerRun(100, decode); allocs != 0 || p.Recycled.Load() == recycled {
		t.Fatalf("a warm decode of a %s block allocates %.1f times (%d recycled)", encoding.Scaled, allocs, p.Recycled.Load()-recycled)
	}
}
