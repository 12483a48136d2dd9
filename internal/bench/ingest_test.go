package bench

import (
	"testing"
	"time"

	"repro/internal/storage"
)

// TestContinuousIngestShort is the CI burst of the continuous-ingest
// scenario (run under -race by `make test-metamorphic`): concurrent
// writers, a continuously running tuple mover, and live + pinned TLP
// readers for a few hundred milliseconds. Any TLP violation, pinned-epoch
// drift, or concurrency fault fails the run.
func TestContinuousIngestShort(t *testing.T) { continuousIngestShort(t) }

// TestContinuousIngestShortPoisoned is the burst with every block a scan
// gives up scribbled over and decoded into again (poisonBlocks), at a
// budget of about one of its blocks.
func TestContinuousIngestShortPoisoned(t *testing.T) {
	poisonBlocks(t, 4<<10)
	continuousIngestShort(t)
}

func continuousIngestShort(t *testing.T) {
	dur := 400 * time.Millisecond
	if testing.Short() {
		dur = 200 * time.Millisecond
	}
	rep, err := RunContinuousIngest(IngestConfig{
		Dir:      t.TempDir(),
		Duration: dur,
		Seed:     7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.RowsIngested == 0 {
		t.Error("no rows ingested")
	}
	if rep.MoverCycles == 0 {
		t.Error("tuple mover never ran")
	}
	if rep.RowsMovedOut == 0 {
		t.Error("no rows moved out of the WOS — the scenario exercised nothing")
	}
	if rep.TLPChecks == 0 {
		t.Error("no TLP checks completed")
	}
	t.Logf("ingested %d rows (%.0f rows/s), %d mover cycles (%d rows moved, %d merges), %d reader queries (%d TLP checks), p50=%v p99=%v",
		rep.RowsIngested, rep.IngestRowsPerSec, rep.MoverCycles, rep.RowsMovedOut, rep.Merges,
		rep.ReaderQueries, rep.TLPChecks, rep.P50, rep.P99)
}

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
