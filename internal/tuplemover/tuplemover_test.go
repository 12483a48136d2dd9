package tuplemover

import (
	"fmt"
	"testing"

	"repro/internal/storage"
	"repro/internal/txn"
	"repro/internal/types"
	"repro/internal/vector"
)

// rowKeys sets pl's partition and local-segment functions from row-at-a-time
// ones; a nil one leaves its function unset.
func rowKeys(pl *storage.Placement, part func(types.Row) string, seg func(types.Row) int) {
	if part != nil {
		pl.PartitionOf = func(b *vector.Batch) (*vector.Vector, error) {
			parts := vector.New(types.Varchar, b.Len())
			for _, r := range b.Rows() {
				parts.AppendValue(types.NewString(part(r)))
			}
			return parts, nil
		}
	}
	if seg != nil {
		pl.LocalSegmentOf = func(b *vector.Batch) ([]int, error) {
			segs := make([]int, b.Len())
			for i, r := range b.Rows() {
				segs[i] = seg(r)
			}
			return segs, nil
		}
	}
}

// appendRows pivots rows into one batch of the WOS's schema and appends it
// at epoch e.
func appendRows(w *storage.WOS, rows []types.Row, e types.Epoch) (int64, error) {
	return w.AppendBatch(vector.BatchFromRows(w.Schema(), rows), e)
}

type fixture struct {
	mgr *storage.Manager
	em  *txn.EpochManager
	tm  *TupleMover
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	schema := types.NewSchema(
		types.Column{Name: "k", Typ: types.Int64},
		types.Column{Name: "v", Typ: types.Varchar},
	)
	mgr, err := storage.NewManager(t.TempDir(), schema, storage.ManagerOpts{})
	if err != nil {
		t.Fatal(err)
	}
	em := txn.NewEpochManager()
	place := storage.NewPlacement("p_test", schema, []int{0}, nil)
	place.BlockRows = 32
	tm, err := New(Config{Mgr: mgr, Epochs: em, Place: place, StrataBase: 256})
	if err != nil {
		t.Fatal(err)
	}
	return &fixture{mgr: mgr, em: em, tm: tm}
}

func (f *fixture) load(t *testing.T, n int, epoch types.Epoch) {
	t.Helper()
	rows := make([]types.Row, n)
	for i := range rows {
		rows[i] = types.Row{types.NewInt(int64(n - i)), types.NewString(fmt.Sprintf("v%d", i))}
	}
	if _, err := appendRows(f.mgr.WOS(), rows, epoch); err != nil {
		t.Fatal(err)
	}
}

// rosRows reads every stored ROS row (user columns only), container by
// container.
func (f *fixture) rosRows(t *testing.T) []types.Row {
	t.Helper()
	var out []types.Row
	err := f.mgr.ForEachStored(0, types.MaxEpoch, func(target string, _ int64, b *vector.Batch) error {
		if target != storage.WOSTarget {
			for _, r := range pivot(nil, b) {
				out = append(out, r.Row)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestMoveoutDrainsWOSAndAdvancesLGE(t *testing.T) {
	f := newFixture(t)
	f.load(t, 100, f.em.CommitDML())
	moved, err := f.tm.Moveout()
	if err != nil {
		t.Fatal(err)
	}
	if moved != 100 {
		t.Fatalf("moved %d rows", moved)
	}
	if f.mgr.WOS().Len() != 0 {
		t.Error("WOS not drained")
	}
	if len(f.mgr.Containers()) != 1 {
		t.Fatalf("containers = %d", len(f.mgr.Containers()))
	}
	if got := f.em.LGE("p_test"); got != f.em.Current() {
		t.Errorf("LGE = %d, want %d", got, f.em.Current())
	}
	// Rows must be sorted by the projection sort key.
	rows := f.rosRows(t)
	for i := 1; i < len(rows); i++ {
		if rows[i-1].Compare(rows[i], []int{0}) > 0 {
			t.Fatalf("rows out of order at %d", i)
		}
	}
}

func TestMoveoutStampsEpochColumn(t *testing.T) {
	f := newFixture(t)
	e := f.em.CommitDML()
	f.load(t, 10, e)
	if _, err := f.tm.Moveout(); err != nil {
		t.Fatal(err)
	}
	c := f.mgr.Containers()[0]
	if c.Meta.ColIndex(storage.EpochColumn) < 0 {
		t.Fatal("no epoch column stored")
	}
	rows, err := storedRows(f.mgr, c)
	if err != nil {
		t.Fatal(err)
	}
	for pos, r := range rows {
		if r.Epoch != e {
			t.Fatalf("epoch[%d] = %d, want %d", pos, r.Epoch, e)
		}
	}
	if c.Meta.MinEpoch != e || c.Meta.MaxEpoch != e {
		t.Error("container epoch range wrong")
	}
}

func TestMoveoutTranslatesWOSDeleteVectors(t *testing.T) {
	f := newFixture(t)
	e := f.em.CommitDML()
	// Rows get keys n-i: WOS pos 0 has key 5, pos 4 has key 1.
	f.load(t, 5, e)
	delEpoch := f.em.CommitDML()
	// Delete WOS positions 0 (key 5) and 4 (key 1).
	f.mgr.DVs().Add(storage.WOSTarget, []storage.DVEntry{
		{Pos: 0, Epoch: delEpoch}, {Pos: 4, Epoch: delEpoch},
	})
	if _, err := f.tm.Moveout(); err != nil {
		t.Fatal(err)
	}
	c := f.mgr.Containers()[0]
	dvs := f.mgr.DVs().Get(c.Meta.ID)
	if len(dvs) != 2 {
		t.Fatalf("translated DVs = %+v", dvs)
	}
	// After sort by key, key 1 is at container pos 0 and key 5 at pos 4.
	if dvs[0].Pos != 0 || dvs[1].Pos != 4 {
		t.Errorf("translated positions = %d, %d", dvs[0].Pos, dvs[1].Pos)
	}
	if len(f.mgr.DVs().Get(storage.WOSTarget)) != 0 {
		t.Error("WOS delete vectors not cleared after translation")
	}
}

func TestMoveoutPreservesPartitionBoundaries(t *testing.T) {
	schema := types.NewSchema(
		types.Column{Name: "k", Typ: types.Int64},
		types.Column{Name: "month", Typ: types.Int64},
	)
	mgr, _ := storage.NewManager(t.TempDir(), schema, storage.ManagerOpts{})
	em := txn.NewEpochManager()
	place := storage.NewPlacement("p", schema, []int{0}, nil)
	rowKeys(place, func(r types.Row) string { return fmt.Sprintf("m%d", r[1].I) }, nil)
	tm, _ := New(Config{Mgr: mgr, Epochs: em, Place: place})
	e := em.CommitDML()
	var rows []types.Row
	for i := 0; i < 30; i++ {
		rows = append(rows, types.Row{types.NewInt(int64(i)), types.NewInt(int64(i % 3))})
	}
	appendRows(mgr.WOS(), rows, e)
	if _, err := tm.Moveout(); err != nil {
		t.Fatal(err)
	}
	if len(mgr.Containers()) != 3 {
		t.Fatalf("containers = %d, want 3 (one per partition)", len(mgr.Containers()))
	}
	for _, c := range mgr.Containers() {
		if c.Meta.Partition == "" {
			t.Error("partition key missing")
		}
		if c.Meta.RowCount != 10 {
			t.Errorf("partition %s has %d rows", c.Meta.Partition, c.Meta.RowCount)
		}
	}
}

func TestMergeoutReducesContainerCount(t *testing.T) {
	f := newFixture(t)
	for i := 0; i < 4; i++ {
		f.load(t, 50, f.em.CommitDML())
		if _, err := f.tm.Moveout(); err != nil {
			t.Fatal(err)
		}
	}
	if len(f.mgr.Containers()) != 4 {
		t.Fatalf("pre-merge containers = %d", len(f.mgr.Containers()))
	}
	merges, err := f.tm.Mergeout()
	if err != nil {
		t.Fatal(err)
	}
	if merges != 1 {
		t.Fatalf("merges = %d", merges)
	}
	if len(f.mgr.Containers()) != 1 {
		t.Fatalf("post-merge containers = %d", len(f.mgr.Containers()))
	}
	c := f.mgr.Containers()[0]
	if c.Meta.RowCount != 200 {
		t.Errorf("merged rows = %d", c.Meta.RowCount)
	}
	if c.Meta.MergeLevel != 1 {
		t.Errorf("merge level = %d", c.Meta.MergeLevel)
	}
	// Output is globally sorted.
	rows := f.rosRows(t)
	for i := 1; i < len(rows); i++ {
		if rows[i-1].Compare(rows[i], []int{0}) > 0 {
			t.Fatalf("merged rows out of order at %d", i)
		}
	}
}

func TestMergeoutElidesRowsDeletedBeforeAHM(t *testing.T) {
	f := newFixture(t)
	f.load(t, 20, f.em.CommitDML())
	f.tm.Moveout()
	f.load(t, 20, f.em.CommitDML())
	f.tm.Moveout()
	// Delete positions 0..4 of the first container at the current epoch.
	first := f.mgr.Containers()[0].Meta.ID
	delEpoch := f.em.CommitDML()
	var dvs []storage.DVEntry
	for p := int64(0); p < 5; p++ {
		dvs = append(dvs, storage.DVEntry{Pos: p, Epoch: delEpoch})
	}
	f.mgr.DVs().Add(first, dvs)
	// Advance AHM past the delete epoch.
	f.em.SetLGE("p_test", f.em.Current())
	f.em.AdvanceAHM()
	if _, err := f.tm.Mergeout(); err != nil {
		t.Fatal(err)
	}
	if len(f.mgr.Containers()) != 1 {
		t.Fatalf("containers = %d", len(f.mgr.Containers()))
	}
	c := f.mgr.Containers()[0]
	if c.Meta.RowCount != 35 {
		t.Errorf("rows after elision = %d, want 35", c.Meta.RowCount)
	}
	if got := f.mgr.DVs().Get(c.Meta.ID); len(got) != 0 {
		t.Errorf("elided rows left DV entries: %+v", got)
	}
}

func TestMergeoutKeepsRecentDeletesAsTranslatedDVs(t *testing.T) {
	f := newFixture(t)
	f.load(t, 10, f.em.CommitDML())
	f.tm.Moveout()
	f.load(t, 10, f.em.CommitDML())
	f.tm.Moveout()
	first := f.mgr.Containers()[0].Meta.ID
	delEpoch := f.em.CommitDML()
	f.mgr.DVs().Add(first, []storage.DVEntry{{Pos: 0, Epoch: delEpoch}})
	// AHM stays at 0: the delete is recent history and must survive.
	if _, err := f.tm.Mergeout(); err != nil {
		t.Fatal(err)
	}
	c := f.mgr.Containers()[0]
	if c.Meta.RowCount != 20 {
		t.Errorf("recent-delete row was elided: rows = %d", c.Meta.RowCount)
	}
	got := f.mgr.DVs().Get(c.Meta.ID)
	if len(got) != 1 || got[0].Epoch != delEpoch {
		t.Fatalf("translated DV = %+v", got)
	}
}

func TestMergeoutPreservesPartitionAndSegmentBoundaries(t *testing.T) {
	schema := types.NewSchema(types.Column{Name: "k", Typ: types.Int64})
	mgr, _ := storage.NewManager(t.TempDir(), schema, storage.ManagerOpts{})
	em := txn.NewEpochManager()
	place := storage.NewPlacement("p", schema, []int{0}, nil)
	rowKeys(place, func(r types.Row) string { return fmt.Sprintf("m%d", r[0].I%2) }, func(r types.Row) int { return int(r[0].I % 3) })
	tm, _ := New(Config{Mgr: mgr, Epochs: em, Place: place})
	for i := 0; i < 3; i++ {
		var rows []types.Row
		for j := 0; j < 60; j++ {
			rows = append(rows, types.Row{types.NewInt(int64(j))})
		}
		appendRows(mgr.WOS(), rows, em.CommitDML())
		if _, err := tm.Moveout(); err != nil {
			t.Fatal(err)
		}
	}
	// 2 partitions x 3 segments... but partition m0 only pairs with segs
	// {0,2,1} etc.; just record the pre-merge group set.
	type gk struct {
		p string
		s int
	}
	pre := map[gk]bool{}
	for _, c := range mgr.Containers() {
		pre[gk{c.Meta.Partition, c.Meta.LocalSegment}] = true
	}
	for {
		n, err := tm.Mergeout()
		if err != nil {
			t.Fatal(err)
		}
		if n == 0 {
			break
		}
	}
	post := map[gk]bool{}
	for _, c := range mgr.Containers() {
		post[gk{c.Meta.Partition, c.Meta.LocalSegment}] = true
	}
	if len(post) != len(pre) {
		t.Errorf("merge crossed boundaries: pre %d groups, post %d", len(pre), len(post))
	}
	for k := range post {
		if !pre[k] {
			t.Errorf("unexpected group %+v after merge", k)
		}
	}
}

func TestStrataBoundsRewrites(t *testing.T) {
	// Property from §4: by choosing strata sizes exponentially, the number
	// of times any tuple is rewritten is bounded by the number of strata.
	f := newFixture(t)
	const loads = 16
	for i := 0; i < loads; i++ {
		f.load(t, 40, f.em.CommitDML())
		if _, err := f.tm.Moveout(); err != nil {
			t.Fatal(err)
		}
		if _, err := f.tm.Mergeout(); err != nil {
			t.Fatal(err)
		}
	}
	maxLevel := 0
	totalBytes := int64(0)
	for _, c := range f.mgr.Containers() {
		if c.Meta.MergeLevel > maxLevel {
			maxLevel = c.Meta.MergeLevel
		}
		totalBytes += c.Meta.SizeBytes
	}
	// Upper bound: number of strata spanned by total data volume.
	strataBound := f.tm.Stratum(totalBytes) + 1
	if maxLevel > strataBound {
		t.Errorf("tuple rewritten %d times, strata bound %d", maxLevel, strataBound)
	}
}

func TestStratum(t *testing.T) {
	mgr := mustMgr(t)
	tm, _ := New(Config{
		Mgr:        mgr,
		Epochs:     txn.NewEpochManager(),
		Place:      storage.NewPlacement("p", mgr.Schema(), nil, nil),
		StrataBase: 1024,
	})
	cases := map[int64]int{0: 0, 1023: 0, 1024: 1, 2047: 1, 2048: 2, 4096: 3}
	for size, want := range cases {
		if got := tm.Stratum(size); got != want {
			t.Errorf("Stratum(%d) = %d, want %d", size, got, want)
		}
	}
}

func mustMgr(t *testing.T) *storage.Manager {
	t.Helper()
	m, err := storage.NewManager(t.TempDir(), types.NewSchema(types.Column{Name: "k", Typ: types.Int64}), storage.ManagerOpts{})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestRunFullCycle(t *testing.T) {
	f := newFixture(t)
	for i := 0; i < 3; i++ {
		f.load(t, 30, f.em.CommitDML())
	}
	moved, merges, err := f.tm.Run()
	if err != nil {
		t.Fatal(err)
	}
	if moved != 90 {
		t.Errorf("moved = %d", moved)
	}
	if merges != 0 {
		// A single moveout produces one container; no merge needed.
		t.Errorf("merges = %d, want 0", merges)
	}
	if f.mgr.RowCount() != 90 {
		t.Errorf("ROS rows = %d", f.mgr.RowCount())
	}
}

func TestMoveoutEmptyWOSStillAdvancesLGE(t *testing.T) {
	f := newFixture(t)
	f.em.CommitDML()
	moved, err := f.tm.Moveout()
	if err != nil || moved != 0 {
		t.Fatalf("moveout: %d, %v", moved, err)
	}
	if f.em.LGE("p_test") != f.em.Current() {
		t.Error("LGE not advanced on empty moveout")
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("New without Mgr/Epochs/Place should fail")
	}
}
