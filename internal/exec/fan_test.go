package exec

import (
	"context"
	"errors"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/storage"
	"repro/internal/types"
	"repro/internal/vector"
)

// TestFanScanReadsEachMorselOnce fans a scan over several containers, deleted
// rows and the WOS out to four workers: together they must return exactly
// the rows one scan does.
func TestFanScanReadsEachMorselOnce(t *testing.T) {
	checkGoroutines(t)
	f := newExecFixture(t, 3000, 7, 3) // 3 containers of 64-row blocks
	var wos []types.Row
	for i := 5000; i < 5100; i++ {
		wos = append(wos, types.Row{types.NewInt(int64(i)), types.NewInt(1), types.NewFloat(1)})
	}
	appendRows(f.mgr.WOS(), wos, f.em.CommitDML())
	f.mgr.DVs().Add(f.mgr.Containers()[1].Meta.ID, []storage.DVEntry{{Pos: 3, Epoch: f.em.CommitDML()}})
	serial := f.ctx()
	want, err := Drain(serial, f.scan(0, 1))
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != 3099 {
		t.Fatalf("serial scan: %d rows, want 3099", len(want))
	}
	ctx := f.ctx()
	got, err := Drain(ctx, NewParallelUnion(f.scan(0, 1).Fan(4)...))
	if err != nil {
		t.Fatal(err)
	}
	if g, w := renderSorted(got), renderSorted(want); strings.Join(g, "\n") != strings.Join(w, "\n") {
		t.Fatalf("fan read %d rows, one scan %d (first difference: %s)", len(g), len(w), firstDiff(g, w))
	}
	if n, once := ctx.BlocksRead.Load(), serial.BlocksRead.Load(); n != once {
		t.Errorf("fan read %d blocks, want each of the %d once", n, once)
	}
}

// buildSource is a join's inner input under the test's control: rows keyed
// 0..batches*rowsPer-1, failing with errBuildDied or cancelling the query at
// a given batch.
type buildSource struct {
	batches, rowsPer int
	failAt, cancelAt int // batch indexes; -1 never
	cancel           context.CancelFunc
	produced         int
}

var errBuildDied = errors.New("build input died")

func (s *buildSource) Schema() *types.Schema { return exchangeSchema() }
func (s *buildSource) Open(*Ctx) error       { s.produced = 0; return nil }
func (s *buildSource) Close(*Ctx) error      { return nil }
func (s *buildSource) Describe() string      { return "BuildSource" }

func (s *buildSource) Next(*Ctx) (*vector.Batch, error) {
	switch s.produced {
	case s.failAt:
		time.Sleep(20 * time.Millisecond) // let the other workers queue on the build
		return nil, errBuildDied
	case s.cancelAt:
		s.cancel()
	case s.batches:
		return nil, nil
	}
	b := vector.NewBatchForSchema(s.Schema(), s.rowsPer)
	for i := 0; i < s.rowsPer; i++ {
		k := int64(s.produced*s.rowsPer + i)
		b.AppendRow(types.Row{types.NewInt(k), types.NewInt(k % 7)})
	}
	s.produced++
	return b, nil
}

// errRecorder passes a worker's batches through and keeps the error its
// pipeline surfaced; at its first batch it waits at arrive, when set.
type errRecorder struct {
	single
	err    error
	arrive func()
}

func (r *errRecorder) Schema() *types.Schema { return r.child.Schema() }
func (r *errRecorder) Open(ctx *Ctx) error   { return r.openChild(ctx) }
func (r *errRecorder) Close(ctx *Ctx) error  { return r.closeChild(ctx) }
func (r *errRecorder) Describe() string      { return "ErrRecorder" }

func (r *errRecorder) Next(ctx *Ctx) (*vector.Batch, error) {
	b, err := r.child.Next(ctx)
	if err != nil && r.err == nil {
		r.err = err
	}
	if b != nil && r.arrive != nil {
		r.arrive()
		r.arrive = nil
	}
	return b, err
}

// sharedBuildFan builds four workers — each joining 8 batches of its own
// outer rows — that probe one shared build of inner, each under an
// errRecorder.
func sharedBuildFan(t *testing.T, inner Operator) []*errRecorder {
	const ways = 4
	outers := make([]Operator, ways)
	for w := range outers {
		outers[w] = &batchSource{schema: exchangeSchema(), batches: 8, rowsPer: 512, failAt: -1, base: w * 8 * 512}
	}
	joins, err := FanHashJoin(InnerJoin, outers, inner, []int{0}, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	recs := make([]*errRecorder, ways)
	for w, j := range joins {
		recs[w] = &errRecorder{single: single{child: j}}
	}
	return recs
}

func asOperators(recs []*errRecorder) []Operator {
	ops := make([]Operator, len(recs))
	for i, r := range recs {
		ops[i] = r
	}
	return ops
}

// runWorkers runs each worker pipeline on a goroutine of its own until it
// ends or fails, the way the operator closing a fan does, then closes them.
func runWorkers(ctx *Ctx, workers []Operator) {
	for _, w := range workers {
		if err := w.Open(ctx); err != nil {
			panic(err)
		}
	}
	var wg sync.WaitGroup
	for _, w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if b, err := w.Next(ctx); b == nil || err != nil {
					return
				}
			}
		}()
	}
	wg.Wait()
	for _, w := range workers {
		w.Close(ctx)
	}
}

// TestFanSharedBuildLeaksNothing drives a fan whose workers probe one
// shared build through the ways it can stop early. Every worker must
// surface the error, no goroutine may outlive the query, and no spill run
// may stay behind.
func TestFanSharedBuildLeaksNothing(t *testing.T) {
	const rows = 4 * 8 * 512 // the build: one key per outer row
	newCtx := func(t *testing.T, budget int64) (*Ctx, context.CancelFunc) {
		cctx, cancel := context.WithCancel(context.Background())
		ctx := NewCtx(1)
		ctx.Context, ctx.MemBudget, ctx.TempDir = cctx, budget, t.TempDir()
		t.Cleanup(func() {
			cancel()
			if runs, _ := filepath.Glob(filepath.Join(ctx.TempDir, "spill-*.run")); len(runs) > 0 {
				t.Errorf("spill runs left behind: %v", runs)
			}
		})
		return ctx, cancel
	}
	everyWorker := func(t *testing.T, recs []*errRecorder, want error) {
		t.Helper()
		for w, r := range recs {
			if !errors.Is(r.err, want) {
				t.Errorf("worker %d surfaced %v, want %v", w, r.err, want)
			}
		}
	}

	t.Run("build-input-fails", func(t *testing.T) {
		checkGoroutines(t)
		ctx, _ := newCtx(t, 64<<20)
		recs := sharedBuildFan(t, &buildSource{batches: rows / 512, rowsPer: 512, failAt: 2, cancelAt: -1})
		if _, err := Drain(ctx, NewParallelUnion(asOperators(recs)...)); !errors.Is(err, errBuildDied) {
			t.Fatalf("query err = %v, want the build input's", err)
		}
		everyWorker(t, recs, errBuildDied)
	})

	t.Run("cancel-mid-build", func(t *testing.T) {
		checkGoroutines(t)
		ctx, cancel := newCtx(t, 64<<20)
		recs := sharedBuildFan(t, &buildSource{batches: rows / 512, rowsPer: 512, failAt: -1, cancelAt: 3, cancel: cancel})
		if _, err := Drain(ctx, NewParallelUnion(asOperators(recs)...)); !errors.Is(err, context.Canceled) {
			t.Fatalf("query err = %v, want context.Canceled", err)
		}
		everyWorker(t, recs, context.Canceled)
	})

	t.Run("cancel-mid-probe-after-spill", func(t *testing.T) {
		checkGoroutines(t)
		// 4 KiB cannot hold the build: it is sorted and spilled, once, and
		// every worker merge-joins its outer rows against it. The query is
		// cancelled once every worker has joined its first batch.
		ctx, cancel := newCtx(t, 4<<10)
		recs := sharedBuildFan(t, &buildSource{batches: rows / 512, rowsPer: 512, failAt: -1, cancelAt: -1})
		var arrived sync.WaitGroup
		arrived.Add(len(recs))
		for _, r := range recs {
			r.arrive = func() {
				arrived.Done()
				arrived.Wait()
				cancel()
			}
		}
		runWorkers(ctx, asOperators(recs))
		everyWorker(t, recs, context.Canceled)
		if ctx.Spills.Load() == 0 || ctx.SpilledBytes.Load() == 0 {
			t.Error("the shared build did not spill")
		}
		for w, r := range recs {
			if j := r.child.(*HashJoin); !j.spilled {
				t.Errorf("worker %d did not switch to sort-merge", w)
			}
		}
	})

	t.Run("consumer-closes-early", func(t *testing.T) {
		checkGoroutines(t)
		ctx, _ := newCtx(t, 4<<10) // spilled, so the early close has runs to remove
		recs := sharedBuildFan(t, &buildSource{batches: rows / 512, rowsPer: 512, failAt: -1, cancelAt: -1})
		got, err := Drain(ctx, NewLimit(NewParallelUnion(asOperators(recs)...), 0, 10))
		if err != nil || len(got) != 10 {
			t.Fatalf("LIMIT 10 over the fan: %d rows, err %v", len(got), err)
		}
	})
}

// A batch a fan worker's scan emits selects its rows with the worker's own
// scratch, which the worker's next block overwrites; the ParallelUnion
// retains the batch before it moves on, and Retain copies the selection.
// Every batch here is kept to the end of the stream, past every worker's
// last block, and must still read its own rows. SIP leaves two rows in
// three of the upper half's blocks (a selection, not a range) and empties
// the lower half's, whose key blocks, poisoned, recycle.
func TestRetainedSelectedViewSurvivesItsProducer(t *testing.T) {
	for _, poisoned := range []bool{false, true} {
		t.Run(map[bool]string{false: "plain", true: "poisoned"}[poisoned], func(t *testing.T) {
			checkGoroutines(t)
			if poisoned {
				poisonBlocks(t, 1<<10) // one of the fixture's 64-row blocks
			}
			f := newExecFixture(t, 2048, 5, 2)
			dim := types.NewSchema(types.Column{Name: "id", Typ: types.Int64})
			var build []types.Row
			want := map[int64]bool{}
			for k := int64(1024); k < 2048; k++ {
				if k%3 != 0 {
					build = append(build, types.Row{types.NewInt(k)})
					want[k] = true
				}
			}
			sip := NewSIPFilter([]int{0}, "upper")
			sip.table.Store(builtTable(dim, []int{0}, build))
			scans := f.scan(0, 1).Fan(4)
			for _, s := range scans {
				s.(*Scan).SIPs = []*SIPFilter{sip}
			}
			u := NewParallelUnion(scans...)
			ctx := f.ctx()
			if err := u.Open(ctx); err != nil {
				t.Fatal(err)
			}
			var kept []*vector.Batch
			var held []vector.Owner
			for {
				b, err := u.Next(ctx)
				if err != nil {
					t.Fatal(err)
				}
				if b == nil {
					break
				}
				held = b.Retain(held)
				kept = append(kept, b)
			}
			selected := 0
			for _, b := range kept {
				if b.Sel != nil {
					selected++
				}
				for _, r := range b.Rows() {
					if k := r[0].I; !want[k] || r[1].I != k%5 {
						t.Fatalf("a kept batch reads row %v, which SIP dropped or its block does not hold", r)
					}
					delete(want, r[0].I)
				}
			}
			vector.Release(held)
			if err := u.Close(ctx); err != nil {
				t.Fatal(err)
			}
			if len(want) != 0 || selected == 0 {
				t.Errorf("%d rows missing; %d of %d batches selected, want some", len(want), selected, len(kept))
			}
		})
	}
}
