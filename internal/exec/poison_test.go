package exec

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/storage"
	"repro/internal/tuplemover"
	"repro/internal/txn"
	"repro/internal/types"
)

// poisonBudget is about one of the oracles' 16- and 32-row blocks: the cache
// holds next to nothing, so a block a scan gives up is soon evicted,
// scribbled over and decoded into again.
const poisonBudget = 512

// poisonBlocks runs the rest of the test at a block-cache budget of bytes
// with the recycle probe installed (docs/ARCHITECTURE.md, "Batch lifetime"):
// an operator that keeps a batch past its loan without Retain reads
// scribbled values, and an oracle fails. The test must recycle something.
func poisonBlocks(t *testing.T, bytes int64) {
	p := &storage.RecycleProbe{}
	storage.SetRecycleProbe(p)
	storage.SetBlockCacheBudget(bytes)
	t.Cleanup(func() {
		storage.SetRecycleProbe(nil)
		storage.SetBlockCacheBudget(storage.DefaultBlockCacheBytes)
		if n := p.Recycled.Load(); n == 0 && !t.Failed() {
			t.Error("no block was recycled: the poisoned run checked nothing")
		} else {
			t.Logf("recycled %d vectors", n)
		}
	})
}

// storedScan stores rows in two ROS containers of blockRows-row blocks,
// sorted on column key, and returns a scan of every column and the epoch to
// read at.
func storedScan(t *testing.T, schema *types.Schema, rows []types.Row, key, blockRows int) (*Scan, types.Epoch) {
	t.Helper()
	mgr, err := storage.NewManager(t.TempDir(), schema, storage.ManagerOpts{})
	if err != nil {
		t.Fatal(err)
	}
	em := txn.NewEpochManager()
	place := storage.NewPlacement("p", schema, []int{key}, nil)
	place.BlockRows = blockRows
	tm, err := tuplemover.New(tuplemover.Config{Mgr: mgr, Epochs: em, Place: place})
	if err != nil {
		t.Fatal(err)
	}
	for _, part := range [][]types.Row{rows[:len(rows)/2], rows[len(rows)/2:]} {
		if len(part) == 0 {
			continue
		}
		if _, err := appendRows(mgr.WOS(), part, em.CommitDML()); err != nil {
			t.Fatal(err)
		}
		if _, err := tm.Moveout(); err != nil {
			t.Fatal(err)
		}
	}
	all := make([]int, schema.Len())
	for i := range all {
		all[i] = i
	}
	return NewScan("p", mgr, schema, all), em.ReadEpoch()
}

// TestHashJoinOraclePoisoned is the hash-join oracle over stored inputs with
// their blocks poisoned: serial, with a build that switches to sort-merge,
// and as a fan of four workers whose scans claim blocks from one cursor.
func TestHashJoinOraclePoisoned(t *testing.T) {
	poisonBlocks(t, poisonBudget)
	outerSchema, innerSchema := joinSideSchema("v"), joinSideSchema("w")
	for _, c := range joinCases(rand.New(rand.NewSource(20120827))) {
		for _, typ := range allJoinTypes {
			want := refJoin(t, typ, c.outer, c.inner, c.keys, c.keys, c.residual, 4, 4)
			for _, budget := range []int64{64 << 20, 512} {
				outer, oe := storedScan(t, outerSchema, c.outer, 3, 16)
				inner, ie := storedScan(t, innerSchema, c.inner, 0, 16)
				ctx := NewCtx(max(oe, ie))
				ctx.MemBudget = budget
				name := fmt.Sprintf("%s/%s/budget=%d", c.name, typ, budget)
				outerJoin := typ == RightOuterJoin || typ == FullOuterJoin
				if !outerJoin || budget > 512 {
					j, err := NewHashJoin(typ, outer, inner, c.keys, c.keys)
					if err != nil {
						t.Fatal(err)
					}
					j.Residual = c.residual
					diffRows(t, name, drainCapped(t, ctx, j), want)
				}
				if outerJoin {
					continue // a fan closes before these
				}
				js, err := FanHashJoin(typ, outer.Fan(4), inner, c.keys, c.keys)
				if err != nil {
					t.Fatal(err)
				}
				workers := make([]Operator, len(js))
				for w, j := range js {
					j.Residual = c.residual
					workers[w] = j
				}
				diffRows(t, name+"/fan", drainCapped(t, ctx, NewParallelUnion(workers...)), want)
			}
		}
	}
}

// TestScanRecyclesDecodedBlocks: once a projection eight times the block
// cache has been scanned, a second pass decodes every block into a vector a
// previous block gave back, and allocates under 5 % of what it decodes.
func TestScanRecyclesDecodedBlocks(t *testing.T) {
	schema := types.NewSchema(
		types.Column{Name: "id", Typ: types.Int64},
		types.Column{Name: "grp", Typ: types.Int64},
		types.Column{Name: "price", Typ: types.Float64},
		types.Column{Name: "tag", Typ: types.Varchar},
	)
	const blocks, blockRows = 16, storage.DefaultBlockRows
	rows := make([]types.Row, blocks*blockRows)
	for i := range rows {
		rows[i] = types.Row{types.NewInt(int64(i)), types.NewInt(int64(i % 7)),
			types.NewFloat(float64(i%100) / 4), types.NewString(fmt.Sprintf("tag-%d", i%5))}
	}
	scan, epoch := storedScan(t, schema, rows, 0, blockRows)
	decoded := int64(len(rows)) * 4 * 8 // a value slot per row and column
	storage.SetBlockCacheBudget(decoded / 8)
	t.Cleanup(func() { storage.SetBlockCacheBudget(storage.DefaultBlockCacheBytes) })
	pass := func() {
		ctx := NewCtx(epoch)
		if err := scan.Open(ctx); err != nil {
			t.Fatal(err)
		}
		n := 0
		for {
			b, err := scan.Next(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if b == nil {
				break
			}
			n += b.Len()
		}
		if err := scan.Close(ctx); err != nil {
			t.Fatal(err)
		}
		if n != len(rows) {
			t.Fatalf("scan read %d rows, want %d", n, len(rows))
		}
	}
	pass()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	pass()
	runtime.ReadMemStats(&after)
	alloc := int64(after.TotalAlloc - before.TotalAlloc)
	t.Logf("second pass allocated %d bytes for %d decoded (%.2f %%)", alloc, decoded, 100*float64(alloc)/float64(decoded))
	if alloc*20 >= decoded {
		t.Errorf("second pass allocated %d bytes, want < 5 %% of the %d it decodes", alloc, decoded)
	}
}
