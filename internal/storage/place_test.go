package storage

import (
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/encoding"
	"repro/internal/types"
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
	pl.PartitionOf = func(r types.Row) (string, error) { return fmt.Sprintf("m%d", r[1].I), nil }
	pl.LocalSegmentOf = func(r types.Row) int { return int(r[0].I % 2) }
	return m, pl
}

func randomStored(rng *rand.Rand, n int, maxEpoch int) []StoredRow {
	rows := make([]StoredRow, n)
	for i := range rows {
		name := types.NewString(fmt.Sprintf("n%d", rng.Intn(7)))
		if rng.Intn(6) == 0 {
			name = types.NewNull(types.Varchar)
		}
		rows[i] = StoredRow{
			Row:   types.Row{types.NewInt(int64(rng.Intn(50))), types.NewInt(int64(rng.Intn(3))), name},
			Epoch: types.Epoch(1 + rng.Intn(maxEpoch)),
		}
		if rng.Intn(4) == 0 {
			rows[i].Deleted = rows[i].Epoch + types.Epoch(rng.Intn(5))
		}
	}
	return rows
}

func storedKey(r StoredRow) string { return fmt.Sprintf("%s@%d-%d", r.Row, r.Epoch, r.Deleted) }

func containerByID(m *Manager, id string) *ContainerReader {
	for _, r := range m.Containers() {
		if r.Meta.ID == id {
			return r
		}
	}
	return nil
}

// TestPlacedRowsReadBack: what Place + WriteRun put into containers is what
// ForEachStored reads out — same rows, commit and delete epochs — with every
// container holding one partition × local segment in stable sort order.
func TestPlacedRowsReadBack(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m, pl := placeFixture(t)
	in := randomStored(rng, 300, 9)
	written, err := pl.WriteRows(m, in)
	if err != nil {
		t.Fatal(err)
	}
	if len(written) != 6 {
		t.Fatalf("wrote %d containers, want 3 partitions x 2 segments", len(written))
	}
	if got := len(m.Containers()); got != 0 {
		t.Fatalf("WriteRows published %d containers; publishing is the caller's", got)
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
	var prev StoredRow
	prevTarget := ""
	err = m.ForEachStored(0, types.MaxEpoch, func(target string, pos int64, r StoredRow) error {
		got = append(got, storedKey(r))
		c := containerByID(m, target)
		if part, _ := pl.PartitionOf(r.Row); part != c.Meta.Partition || pl.LocalSegmentOf(r.Row) != c.Meta.LocalSegment {
			t.Errorf("%s (%s, %d) holds %v", target, c.Meta.Partition, c.Meta.LocalSegment, r.Row)
		}
		if r.Epoch < c.Meta.MinEpoch || r.Epoch > c.Meta.MaxEpoch {
			t.Errorf("%s: epoch %d outside meta %d..%d", target, r.Epoch, c.Meta.MinEpoch, c.Meta.MaxEpoch)
		}
		if target == prevTarget && prev.Row.Compare(r.Row, pl.SortKey) > 0 {
			t.Errorf("%s not sorted at %d", target, pos)
		}
		prev, prevTarget = r, target
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(want)
	sort.Strings(got)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("read back %d rows, wrote %d; multisets differ", len(got), len(want))
	}
	// The epoch window filters on commit epoch and prunes by container meta.
	n := 0
	m.ForEachStored(3, 5, func(_ string, _ int64, r StoredRow) error {
		if r.Epoch <= 3 || r.Epoch > 5 {
			t.Errorf("epoch %d outside (3,5]", r.Epoch)
		}
		n++
		return nil
	})
	wantN := 0
	for _, r := range in {
		if r.Epoch > 3 && r.Epoch <= 5 {
			wantN++
		}
	}
	if n != wantN {
		t.Errorf("window (3,5] yielded %d rows, want %d", n, wantN)
	}
}

// TestPlaceIsStable: equal sort keys keep their input order, so a commit's
// rows stay together and the epoch column keeps its long runs.
func TestPlaceIsStable(t *testing.T) {
	_, pl := placeFixture(t)
	pl.PartitionOf, pl.LocalSegmentOf = nil, nil
	var in []StoredRow
	for i := 0; i < 40; i++ {
		in = append(in, StoredRow{Row: types.Row{types.NewInt(int64(i % 4)), types.NewInt(0), types.NewString(fmt.Sprint(i))}, Epoch: 1})
	}
	runs, err := pl.Place(in)
	if err != nil || len(runs) != 1 {
		t.Fatalf("runs = %d, err = %v", len(runs), err)
	}
	last := map[int64]int{}
	for _, r := range runs[0].Rows {
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
		written, err := pl.WriteRows(m, randomStored(rng, 120, 6))
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
		if _, err := m.WOS().Append(rows, e); err != nil {
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
		err := m.ForEachStored(0, types.MaxEpoch, func(target string, pos int64, r StoredRow) error {
			if pos != seen[target] {
				t.Fatalf("%s: position %d follows %d", target, pos, seen[target]-1)
			}
			seen[target]++
			if r.Deleted != 0 && r.Deleted <= snap {
				got[target] = append(got[target], pos)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
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
	var gotDVs []DVEntry
	err := m.ContainerRows(c, 0, types.MaxEpoch, func(_ string, pos int64, r StoredRow) error {
		if r.Deleted != 0 {
			gotDVs = append(gotDVs, DVEntry{Pos: pos, Epoch: r.Deleted})
		}
		return nil
	})
	if err != nil || !reflect.DeepEqual(gotDVs, want) {
		t.Errorf("retired container: reader says %v (err %v), retired with %v", gotDVs, err, want)
	}
}

// TestWriteRunFailureLeavesNothing: a run that cannot be written removes its
// directory, and WriteRows discards the runs written before it.
func TestWriteRunFailureLeavesNothing(t *testing.T) {
	m, pl := placeFixture(t)
	rows := []StoredRow{
		{Row: types.Row{types.NewInt(1), types.NewInt(0), types.NewString("a")}, Epoch: 1},
		{Row: types.Row{types.NewInt(2), types.NewInt(1)}, Epoch: 1}, // short row, later partition
	}
	if _, err := pl.WriteRows(m, rows); err == nil || !strings.Contains(err.Error(), "expects 4") {
		t.Fatalf("err = %v, want the row-width error", err)
	}
	pl.PartitionOf = func(types.Row) (string, error) { return "", fmt.Errorf("boom") }
	if _, err := pl.WriteRows(m, rows[:1]); err == nil || !strings.Contains(err.Error(), "boom") {
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
