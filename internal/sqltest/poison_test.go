package sqltest

import (
	"testing"

	"repro/internal/storage"
)

// poisonBudget is about one block of the oracles' small tables, whose
// containers hold a block per column: the cache holds next to nothing, so a
// block a scan gives up is soon evicted, scribbled over and decoded into
// again.
const poisonBudget = 4 << 10

// poisonBlocks runs the rest of the test at a block-cache budget of bytes
// with the recycle probe installed (docs/ARCHITECTURE.md, "Batch lifetime"):
// an operator that keeps a batch past its loan without Retain reads
// scribbled values, and the oracle fails. The test must recycle something.
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
