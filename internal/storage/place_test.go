package storage

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/encoding"
	"repro/internal/types"
	"repro/internal/vector"
)

func placeFixture(t *testing.T) (*Manager, *Placement) {
	t.Helper()
	schema := types.NewSchema(
		types.Column{Name: "k", Typ: types.Int64},
		types.Column{Name: "month", Typ: types.Int64},
		types.Column{Name: "name", Typ: types.Varchar, Nullable: true},
	)
	m, err := NewManager(t.TempDir(), schema, ManagerOpts{})
	if err != nil {
		t.Fatal(err)
	}
	pl := NewPlacement("p", schema, []int{0}, map[string]encoding.Kind{"month": encoding.RLE})
	pl.BlockRows = 16
	pl.PartitionOf = func(b *vector.Batch) (*vector.Vector, error) {
		parts := vector.New(types.Varchar, b.Len())
		for _, month := range b.Cols[1].Ints {
			parts.AppendValue(types.NewString(fmt.Sprintf("m%d", month)))
		}
		return parts, nil
	}
	pl.LocalSegmentOf = func(b *vector.Batch) ([]int, error) {
		segs := make([]int, b.Len())
		for i, k := range b.Cols[0].Ints {
			segs[i] = int(k % 2)
		}
		return segs, nil
	}
	return m, pl
}

// placeOf returns the partition key and the local segment pl gives row r.
func placeOf(pl *Placement, r types.Row) (string, int) {
	b := &vector.Batch{Cols: make([]*vector.Vector, len(r))}
	for c, v := range r {
		b.Cols[c] = vector.New(v.Typ, 1)
		b.Cols[c].AppendValue(v)
	}
	parts, _ := pl.PartitionOf(b)
	segs, _ := pl.LocalSegmentOf(b)
	return parts.ValueAt(0).String(), segs[0]
}

// testRow is one stored row as the tests see it: the user columns and the
// commit and delete epochs.
type testRow struct {
	Row            types.Row
	Epoch, Deleted types.Epoch
}

// readRow is a testRow read back, with the target and position it was read
// from.
type readRow struct {
	target string
	pos    int64
	testRow
}

// storedBatch pivots rows into one stored batch of pl's columns.
func storedBatch(pl *Placement, rows []testRow) *vector.Batch {
	b := &vector.Batch{Cols: make([]*vector.Vector, len(pl.Cols)+1)}
	for c, spec := range pl.Cols {
		b.Cols[c] = vector.New(spec.Typ, len(rows))
	}
	b.Cols[len(pl.Cols)] = vector.New(types.Int64, len(rows))
	for _, r := range rows {
		b.AppendRow(append(slices.Clone(r.Row), types.NewInt(int64(r.Epoch)), types.NewInt(int64(r.Deleted))))
	}
	return b
}

// pivot appends the live rows of stored batch b, whose row 0 is at position
// first of target, to out, pivoted with Batch.Rows: the tests' row view of
// the stored-batch form.
func pivot(out []readRow, target string, first int64, b *vector.Batch) []readRow {
	for k, r := range b.Rows() {
		i := k
		if b.Sel != nil {
			i = b.Sel[k]
		}
		n := len(r) - 2
		out = append(out, readRow{target, first + int64(i), testRow{r[:n:n], types.Epoch(r[n].I), types.Epoch(r[n+1].I)}})
	}
	return out
}

// readRows reads the rows m stores with commit epoch in (lo, hi] through
// ForEachStored.
func readRows(t *testing.T, m *Manager, lo, hi types.Epoch) []readRow {
	t.Helper()
	var out []readRow
	err := m.ForEachStored(lo, hi, func(target string, first int64, b *vector.Batch) error {
		out = pivot(out, target, first, b)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func randomStored(rng *rand.Rand, n int, maxEpoch int) []testRow {
	rows := make([]testRow, n)
	for i := range rows {
		name := types.NewString(fmt.Sprintf("n%d", rng.Intn(7)))
		if rng.Intn(6) == 0 {
			name = types.NewNull(types.Varchar)
		}
		rows[i] = testRow{
			Row:   types.Row{types.NewInt(int64(rng.Intn(50))), types.NewInt(int64(rng.Intn(3))), name},
			Epoch: types.Epoch(1 + rng.Intn(maxEpoch)),
		}
		if rng.Intn(4) == 0 {
			rows[i].Deleted = rows[i].Epoch + types.Epoch(rng.Intn(5))
		}
	}
	return rows
}

func storedKey(r testRow) string { return fmt.Sprintf("%s@%d-%d", r.Row, r.Epoch, r.Deleted) }

func containerByID(m *Manager, id string) *ContainerReader {
	for _, r := range m.Containers() {
		if r.Meta.ID == id {
			return r
		}
	}
	return nil
}

// TestPlacedRowsReadBack: what WriteBatches puts into containers is what
// ForEachStored reads out — same rows, commit and delete epochs — with every
// container holding one partition × local segment in stable sort order. The
// same rows moved out of a WOS, across a chunk boundary and from a partly
// drained chunk, with delete vectors on WOS positions, make byte-identical
// containers.
func TestPlacedRowsReadBack(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m, pl := placeFixture(t)
	in := randomStored(rng, vector.DefaultBatchSize+300, 9)
	// Commits reach the WOS in epoch order.
	sort.SliceStable(in, func(i, j int) bool { return in[i].Epoch < in[j].Epoch })
	written, err := pl.WriteBatches(m, []*vector.Batch{storedBatch(pl, in)})
	if err != nil {
		t.Fatal(err)
	}
	if len(written) != 6 {
		t.Fatalf("wrote %d containers, want 3 partitions x 2 segments", len(written))
	}
	if got := len(m.Containers()); got != 0 {
		t.Fatalf("WriteBatches published %d containers; publishing is the caller's", got)
	}
	if err := m.PublishWritten(written); err != nil {
		t.Fatal(err)
	}
	if mem := m.DVs().MemTargets(); len(mem) != 0 {
		t.Errorf("PublishWritten left delete vectors unpersisted: %v", mem)
	}
	var want, got []string
	for _, r := range in {
		want = append(want, storedKey(r))
	}
	var prev readRow
	for _, r := range readRows(t, m, 0, types.MaxEpoch) {
		target, pos := r.target, r.pos
		got = append(got, storedKey(r.testRow))
		c := containerByID(m, target)
		if part, seg := placeOf(pl, r.Row); part != c.Meta.Partition || seg != c.Meta.LocalSegment {
			t.Errorf("%s (%s, %d) holds %v", target, c.Meta.Partition, c.Meta.LocalSegment, r.Row)
		}
		if r.Epoch < c.Meta.MinEpoch || r.Epoch > c.Meta.MaxEpoch {
			t.Errorf("%s: epoch %d outside meta %d..%d", target, r.Epoch, c.Meta.MinEpoch, c.Meta.MaxEpoch)
		}
		if target == prev.target && prev.Row.Compare(r.Row, pl.SortKey) > 0 {
			t.Errorf("%s not sorted at %d", target, pos)
		}
		prev = r
	}
	sort.Strings(want)
	sort.Strings(got)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("read back %d rows, wrote %d; multisets differ", len(got), len(want))
	}
	// The epoch window filters on commit epoch and prunes by container meta.
	n := 0
	for _, r := range readRows(t, m, 3, 5) {
		if r.Epoch <= 3 || r.Epoch > 5 {
			t.Errorf("epoch %d outside (3,5]", r.Epoch)
		}
		n++
	}
	wantN := 0
	for _, r := range in {
		if r.Epoch > 3 && r.Epoch <= 5 {
			wantN++
		}
	}
	if n != wantN {
		t.Errorf("window (3,5] yielded %d rows, want %d", n, wantN)
	}

	wm, _ := placeFixture(t)
	const drained = 10 // rows moved out before: the first chunk is drained in part
	pad := make([]types.Row, drained)
	for i := range pad {
		pad[i] = in[0].Row
	}
	if _, err := appendRows(wm.WOS(), pad, 0); err != nil {
		t.Fatal(err)
	}
	wm.WOS().DrainThrough(drained - 1)
	var dvs []DVEntry
	for lo := 0; lo < len(in); {
		hi := lo
		var rows []types.Row
		for ; hi < len(in) && in[hi].Epoch == in[lo].Epoch; hi++ {
			rows = append(rows, in[hi].Row)
		}
		first, err := appendRows(wm.WOS(), rows, in[lo].Epoch)
		if err != nil {
			t.Fatal(err)
		}
		for i := lo; i < hi; i++ {
			if in[i].Deleted != 0 {
				dvs = append(dvs, DVEntry{Pos: first + int64(i-lo), Epoch: in[i].Deleted})
			}
		}
		lo = hi
	}
	wm.DVs().Add(WOSTarget, dvs)
	batches, through := wm.WOSBatches(types.MaxEpoch)
	if len(batches) != 2 || through != int64(drained+len(in)-1) {
		t.Fatalf("WOSBatches: %d batches through %d, want 2 through %d", len(batches), through, drained+len(in)-1)
	}
	// The containers' IDs come from the manager's counter: the two managers
	// name theirs alike.
	fromWOS, err := pl.WriteBatches(wm, batches)
	if err != nil {
		t.Fatal(err)
	}
	if len(fromWOS) != len(written) {
		t.Fatalf("the WOS path wrote %d containers, the row path %d", len(fromWOS), len(written))
	}
	for i, w := range written {
		if !reflect.DeepEqual(fromWOS[i].DVs, w.DVs) {
			t.Errorf("container %s: the WOS path's delete vector differs", w.Meta.ID)
		}
		sameFiles(t, filepath.Join(m.Dir(), w.Meta.ID), filepath.Join(wm.Dir(), fromWOS[i].Meta.ID))
	}
}

// sameFiles fails unless directories a and b hold the same files, byte for
// byte.
func sameFiles(t *testing.T, a, b string) {
	t.Helper()
	ents, err := os.ReadDir(a)
	if err != nil {
		t.Fatal(err)
	}
	if other, err := os.ReadDir(b); err != nil || len(other) != len(ents) {
		t.Fatalf("%s holds %d files, %s %d (%v)", a, len(ents), b, len(other), err)
	}
	for _, e := range ents {
		x, err := os.ReadFile(filepath.Join(a, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		y, err := os.ReadFile(filepath.Join(b, e.Name()))
		if err != nil || !bytes.Equal(x, y) {
			t.Errorf("%s differs between %s and %s (%v)", e.Name(), a, b, err)
		}
	}
}

// TestPlaceIsStable: equal sort keys keep their input order, so a commit's
// rows stay together and the epoch column keeps its long runs.
func TestPlaceIsStable(t *testing.T) {
	m, pl := placeFixture(t)
	pl.PartitionOf, pl.LocalSegmentOf = nil, nil
	var in []testRow
	for i := 0; i < 40; i++ {
		in = append(in, testRow{Row: types.Row{types.NewInt(int64(i % 4)), types.NewInt(0), types.NewString(fmt.Sprint(i))}, Epoch: 1})
	}
	written, err := pl.WriteBatches(m, []*vector.Batch{storedBatch(pl, in)})
	if err != nil || len(written) != 1 {
		t.Fatalf("containers = %d, err = %v", len(written), err)
	}
	if err := m.PublishWritten(written); err != nil {
		t.Fatal(err)
	}
	last := map[int64]int{}
	for _, r := range readRows(t, m, 0, types.MaxEpoch) {
		var seq int
		fmt.Sscan(r.Row[2].S, &seq)
		if prev, ok := last[r.Row[0].I]; ok && seq < prev {
			t.Fatalf("key %d: input order %d came after %d", r.Row[0].I, seq, prev)
		}
		last[r.Row[0].I] = seq
	}
}

// TestStoredReaderMatchesDVStore is the reader's seeded case: for WOS and ROS
// targets alike, the positions it reports deleted by a snapshot epoch are
// DVStore.DeletedAt's, whether the entries are in memory, persisted, or were
// written with the container.
func TestStoredReaderMatchesDVStore(t *testing.T) {
	rng := rand.New(rand.NewSource(20120827))
	m, pl := placeFixture(t)
	for i := 0; i < 3; i++ {
		written, err := pl.WriteBatches(m, []*vector.Batch{storedBatch(pl, randomStored(rng, 120, 6))})
		if err != nil {
			t.Fatal(err)
		}
		if err := m.PublishWritten(written); err != nil {
			t.Fatal(err)
		}
	}
	for e := types.Epoch(7); e < 10; e++ {
		var rows []types.Row
		for _, r := range randomStored(rng, 25, 1) {
			rows = append(rows, r.Row)
		}
		if _, err := appendRows(m.WOS(), rows, e); err != nil {
			t.Fatal(err)
		}
	}
	// Later deletes: some persisted, some left in memory, some on the WOS.
	for i, c := range m.Containers() {
		taken := map[int64]bool{} // positions the container was written deleted
		for _, e := range m.DVs().Get(c.Meta.ID) {
			taken[e.Pos] = true
		}
		var entries []DVEntry
		for pos := int64(0); pos < c.Meta.RowCount; pos++ {
			if !taken[pos] && rng.Intn(5) == 0 {
				entries = append(entries, DVEntry{Pos: pos, Epoch: types.Epoch(8 + rng.Intn(6))})
			}
		}
		m.DVs().Add(c.Meta.ID, entries)
		if i%2 == 0 {
			if err := m.DVs().Persist(c.Meta.ID); err != nil {
				t.Fatal(err)
			}
		}
	}
	var wosDVs []DVEntry
	for pos := int64(0); pos < int64(m.WOS().Len()); pos += int64(1 + rng.Intn(4)) {
		wosDVs = append(wosDVs, DVEntry{Pos: pos, Epoch: types.Epoch(10 + rng.Intn(4))})
	}
	m.DVs().Add(WOSTarget, wosDVs)

	for snap := types.Epoch(0); snap <= 15; snap++ {
		got := map[string][]int64{}
		seen := map[string]int64{}
		for _, r := range readRows(t, m, 0, types.MaxEpoch) {
			target, pos := r.target, r.pos
			if pos != seen[target] {
				t.Fatalf("%s: position %d follows %d", target, pos, seen[target]-1)
			}
			seen[target]++
			if r.Deleted != 0 && r.Deleted <= snap {
				got[target] = append(got[target], pos)
			}
		}
		targets := []string{WOSTarget}
		for _, c := range m.Containers() {
			targets = append(targets, c.Meta.ID)
		}
		for _, target := range targets {
			want := m.DVs().DeletedAt(target, snap)
			if len(want) == 0 && len(got[target]) == 0 {
				continue
			}
			if !reflect.DeepEqual(got[target], want) {
				t.Errorf("snapshot %d, %s: reader says deleted %v, DVStore says %v", snap, target, got[target], want)
			}
		}
	}
	// A retired container still reads with the vector it retired with.
	c := m.Containers()[0]
	want := m.DVs().Get(c.Meta.ID)
	if err := m.Remove(c.Meta.ID); err != nil {
		t.Fatal(err)
	}
	var rows []readRow
	next := m.StoredBatches(c)
	b, err := next()
	for ; b != nil; b, err = next() {
		rows = pivot(rows, c.Meta.ID, int64(len(rows)), b)
	}
	var gotDVs []DVEntry
	for _, r := range rows {
		if r.Deleted != 0 {
			gotDVs = append(gotDVs, DVEntry{Pos: r.pos, Epoch: r.Deleted})
		}
	}
	if err != nil || !reflect.DeepEqual(gotDVs, want) {
		t.Errorf("retired container: reader says %v (err %v), retired with %v", gotDVs, err, want)
	}
}

// TestWriteRunFailureLeavesNothing: a run that cannot be written removes its
// directory, and WriteBatches discards the runs written before it.
func TestWriteRunFailureLeavesNothing(t *testing.T) {
	m, pl := placeFixture(t)
	rows := []testRow{
		{Row: types.Row{types.NewInt(1), types.NewInt(0), types.NewString("a")}, Epoch: 1},
		{Row: types.Row{types.NewInt(2), types.NewInt(1), types.NewString("b")}, Epoch: 1}, // later partition
	}
	short := storedBatch(pl, rows) // without its delete epochs
	short.Cols = short.Cols[:len(pl.Cols)]
	if _, err := pl.WriteBatches(m, []*vector.Batch{short}); err == nil || !strings.Contains(err.Error(), "expects 5") {
		t.Fatalf("err = %v, want the batch-width error", err)
	}
	// The second container cannot start: its temporary directory's name is
	// taken by a file. The first, written already, is discarded.
	taken := filepath.Join(m.Dir(), "ros_00000001.tmp")
	if err := os.WriteFile(taken, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := pl.WriteBatches(m, []*vector.Batch{storedBatch(pl, rows)}); err == nil {
		t.Fatal("a container whose directory cannot be made was written")
	}
	os.Remove(taken)
	pl.PartitionOf = func(*vector.Batch) (*vector.Vector, error) { return nil, fmt.Errorf("boom") }
	if _, err := pl.WriteBatches(m, []*vector.Batch{storedBatch(pl, rows[:1])}); err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("err = %v, want the partition error", err)
	}
	ents, err := os.ReadDir(m.Dir())
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if strings.HasPrefix(e.Name(), "ros_") {
			t.Errorf("failed writes left %s behind", e.Name())
		}
	}
}
