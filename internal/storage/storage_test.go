package storage

import (
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/encoding"
	"repro/internal/types"
	"repro/internal/vector"
)

func testMeta(id string) *ContainerMeta {
	return &ContainerMeta{
		ID:         id,
		Projection: "p1",
		Cols: []ColumnSpec{
			{Name: "a", Typ: types.Int64, Enc: encoding.Auto},
			{Name: "b", Typ: types.Varchar, Enc: encoding.RLE},
			{Name: "v", Typ: types.Float64, Enc: encoding.Auto},
		},
		MinEpoch: 1, MaxEpoch: 1,
	}
}

// partitionsOf lists the distinct partition keys the ROS holds, sorted.
func partitionsOf(m *Manager) []string {
	var out []string
	for _, r := range m.Containers() {
		if !slices.Contains(out, r.Meta.Partition) {
			out = append(out, r.Meta.Partition)
		}
	}
	slices.Sort(out)
	return out
}

// readColumns reads whole columns of a container, block by block, through
// its column iterators.
func readColumns(t *testing.T, r *ContainerReader, cols ...int) *vector.Batch {
	t.Helper()
	out := vector.NewBatch()
	for _, c := range cols {
		full := vector.New(r.Meta.Cols[c].Typ, int(r.Meta.RowCount))
		it := r.NewColumnIter(c, nil)
		for {
			v, _, err := it.Next()
			if err != nil {
				t.Fatal(err)
			}
			if v == nil {
				break
			}
			full.AppendFrom(v.Expand(), nil)
		}
		out.Cols = append(out.Cols, full)
	}
	return out
}

func buildBatch(n int) *vector.Batch {
	a := vector.New(types.Int64, n)
	b := vector.New(types.Varchar, n)
	v := vector.New(types.Float64, n)
	for i := 0; i < n; i++ {
		a.AppendValue(types.NewInt(int64(i)))
		b.AppendValue(types.NewString([]string{"cpu", "mem", "disk"}[i/(n/3+1)]))
		v.AppendValue(types.NewFloat(float64(i) * 0.5))
	}
	return vector.NewBatch(a, b, v)
}

// writeBatch writes a whole in-memory batch as one container.
func writeBatch(dir string, meta *ContainerMeta, b *vector.Batch, opts WriterOpts) (*ContainerMeta, error) {
	w, err := NewContainerWriter(dir, meta, opts)
	if err != nil {
		return nil, err
	}
	if err := w.Append(b); err != nil {
		w.Abort()
		return nil, err
	}
	return w.Close()
}

func writeTestContainer(t *testing.T, dir string, n int) (*ContainerReader, *ContainerMeta) {
	t.Helper()
	meta := testMeta("ros_00000001")
	got, err := writeBatch(filepath.Join(dir, meta.ID), meta, buildBatch(n), WriterOpts{BlockRows: 64})
	if err != nil {
		t.Fatal(err)
	}
	r, err := OpenContainer(filepath.Join(dir, meta.ID))
	if err != nil {
		t.Fatal(err)
	}
	return r, got
}

func TestContainerWriteReadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	r, meta := writeTestContainer(t, dir, 200)
	if meta.RowCount != 200 {
		t.Fatalf("RowCount = %d", meta.RowCount)
	}
	if meta.SizeBytes <= 0 {
		t.Fatal("SizeBytes not recorded")
	}
	batch := readColumns(t, r, 0, 1, 2)
	if batch.Len() != 200 {
		t.Fatalf("read %d rows", batch.Len())
	}
	if batch.Cols[0].Ints[123] != 123 {
		t.Error("int column wrong")
	}
	if batch.Cols[2].Floats[10] != 5.0 {
		t.Error("float column wrong")
	}
}

// TestWriterGivesEncoderBack: a writer hands its pooled Encoder back once,
// whether it closes, aborts, or fails to close.
func TestWriterGivesEncoderBack(t *testing.T) {
	dir := t.TempDir()
	closed, err := NewContainerWriter(filepath.Join(dir, "a"), testMeta("a"), WriterOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if err := closed.Append(buildBatch(10)); err != nil {
		t.Fatal(err)
	}
	if _, err := closed.Close(); err != nil {
		t.Fatal(err)
	}
	aborted, err := NewContainerWriter(filepath.Join(dir, "b"), testMeta("b"), WriterOpts{})
	if err != nil {
		t.Fatal(err)
	}
	aborted.Abort()
	aborted.Abort()
	failed, err := NewContainerWriter(filepath.Join(dir, "c"), testMeta("c"), WriterOpts{})
	if err != nil {
		t.Fatal(err)
	}
	os.RemoveAll(filepath.Join(dir, "c.tmp")) // the rename into place fails
	if _, err := failed.Close(); err == nil {
		t.Fatal("Close published a container whose directory is gone")
	}
	for name, w := range map[string]*ContainerWriter{"closed": closed, "aborted": aborted, "failed": failed} {
		if w.enc != nil {
			t.Errorf("%s writer still holds its Encoder", name)
		}
	}
}

func TestContainerTwoFilesPerColumn(t *testing.T) {
	// Paper §3.7: "Vertica stores two files per column within a ROS
	// container: one with the actual column data, and one with a position
	// index."
	dir := t.TempDir()
	r, _ := writeTestContainer(t, dir, 100)
	ents, err := os.ReadDir(r.Dir)
	if err != nil {
		t.Fatal(err)
	}
	dat, pidx, other := 0, 0, 0
	for _, e := range ents {
		switch filepath.Ext(e.Name()) {
		case ".dat":
			dat++
		case ".pidx":
			pidx++
		case ".json":
			other++
		default:
			t.Errorf("unexpected file %s", e.Name())
		}
	}
	if dat != 3 || pidx != 3 || other != 1 {
		t.Errorf("files: %d dat, %d pidx, %d meta; want 3/3/1", dat, pidx, other)
	}
}

func TestPositionIndexMinMax(t *testing.T) {
	dir := t.TempDir()
	r, _ := writeTestContainer(t, dir, 200)
	pidx, err := r.Pidx(0)
	if err != nil {
		t.Fatal(err)
	}
	// 200 rows at 64/block = 4 blocks.
	if len(pidx) != 4 {
		t.Fatalf("pidx blocks = %d, want 4", len(pidx))
	}
	if pidx[0].Min.I != 0 || pidx[0].Max.I != 63 {
		t.Errorf("block 0 min/max = %v/%v", pidx[0].Min, pidx[0].Max)
	}
	if pidx[3].FirstPos != 192 || pidx[3].RowCount != 8 {
		t.Errorf("block 3 firstPos/rows = %d/%d", pidx[3].FirstPos, pidx[3].RowCount)
	}
}

func TestBlockPruning(t *testing.T) {
	dir := t.TempDir()
	r, _ := writeTestContainer(t, dir, 256)
	// Scan column a with filter a >= 200: only the last block (192..255)
	// should be decoded.
	bound := types.NewInt(200)
	blocks := 0
	it := r.NewColumnIter(0, func(e *PidxEntry) bool { return e.Max.Compare(bound) >= 0 })
	for {
		v, first, err := it.Next()
		if err != nil {
			t.Fatal(err)
		}
		if v == nil {
			break
		}
		blocks++
		if first != 192 {
			t.Errorf("unpruned block at pos %d", first)
		}
	}
	if blocks != 1 {
		t.Errorf("decoded %d blocks, want 1", blocks)
	}
}

func TestColumnIterSkipTo(t *testing.T) {
	dir := t.TempDir()
	r, _ := writeTestContainer(t, dir, 256)
	it := r.NewColumnIter(0, nil)
	if err := it.SkipTo(130); err != nil {
		t.Fatal(err)
	}
	v, first, err := it.Next()
	if err != nil || v == nil {
		t.Fatal(err)
	}
	if first != 128 {
		t.Errorf("SkipTo landed at block starting %d, want 128", first)
	}
}

func TestRLEBlocksPreserveRunsThroughReader(t *testing.T) {
	dir := t.TempDir()
	r, _ := writeTestContainer(t, dir, 99) // "b" column has 3 long runs
	it := r.NewColumnIter(1, nil)
	it.PreserveRuns = true
	v, _, err := it.Next()
	if err != nil || v == nil {
		t.Fatal(err)
	}
	if !v.IsRLE() {
		t.Error("expected run-length vector from RLE block")
	}
}

func TestWOSAppendSnapshotDrain(t *testing.T) {
	schema := types.NewSchema(types.Column{Name: "a", Typ: types.Int64})
	w := NewWOS(schema, 1<<20)
	rows := []types.Row{{types.NewInt(1)}, {types.NewInt(2)}}
	p0, err := appendRows(w, rows, 5)
	if err != nil || p0 != 0 {
		t.Fatalf("Append: %d, %v", p0, err)
	}
	p1, _ := appendRows(w, []types.Row{{types.NewInt(3)}}, 7)
	if p1 != 2 {
		t.Fatalf("second Append pos = %d", p1)
	}
	if got := wosRows(w.Chunks(5)); got != 2 {
		t.Errorf("Chunks(5) = %d rows", got)
	}
	if got := wosRows(w.Chunks(7)); got != 3 {
		t.Errorf("Chunks(7) = %d rows", got)
	}
	if drained := w.DrainUpTo(5); drained != 2 {
		t.Errorf("DrainUpTo = %d", drained)
	}
	if w.Len() != 1 {
		t.Errorf("post-drain Len = %d", w.Len())
	}
	// Remaining row keeps its position.
	snap := w.Chunks(types.MaxEpoch)
	if len(snap) != 1 || snap[0].First != 2 || snap[0].Len() != 1 || snap[0].Cols[0].Ints[0] != 3 {
		t.Errorf("post-drain views = %+v", snap)
	}
}

func TestWOSTruncate(t *testing.T) {
	schema := types.NewSchema(types.Column{Name: "a", Typ: types.Int64})
	w := NewWOS(schema, 1<<20)
	appendRows(w, []types.Row{{types.NewInt(1)}}, 3)
	appendRows(w, []types.Row{{types.NewInt(2)}}, 9)
	if removed := w.Truncate(5); removed != 1 {
		t.Errorf("Truncate removed %d, want 1", removed)
	}
	if w.Len() != 1 {
		t.Errorf("Len = %d", w.Len())
	}
}

func TestWOSSaturation(t *testing.T) {
	schema := types.NewSchema(types.Column{Name: "s", Typ: types.Varchar})
	w := NewWOS(schema, 100)
	if w.Saturated() {
		t.Error("empty WOS saturated")
	}
	appendRows(w, []types.Row{{types.NewString("0123456789012345678901234567890123456789012345678901234567890123456789012345678901234567890123456789")}}, 1)
	if !w.Saturated() {
		t.Error("WOS should be saturated")
	}
}

func TestWOSArityCheck(t *testing.T) {
	schema := types.NewSchema(types.Column{Name: "a", Typ: types.Int64})
	w := NewWOS(schema, 0)
	two := vector.NewBatch(vector.NewFromInts(types.Int64, []int64{1}), vector.NewFromInts(types.Int64, []int64{2}))
	if _, err := w.AppendBatch(two, 1); err == nil {
		t.Error("arity mismatch should error")
	}
}

func TestDVStoreLifecycle(t *testing.T) {
	dir := t.TempDir()
	s, err := NewDVStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	s.Add("ros_1", []DVEntry{{Pos: 10, Epoch: 5}, {Pos: 3, Epoch: 6}})
	got := s.Get("ros_1")
	if len(got) != 2 || got[0].Pos != 3 {
		t.Errorf("Get = %+v", got)
	}
	if del := s.DeletedAt("ros_1", 5); len(del) != 1 || del[0] != 10 {
		t.Errorf("DeletedAt(5) = %v", del)
	}
	if del := s.DeletedAt("ros_1", 6); len(del) != 2 {
		t.Errorf("DeletedAt(6) = %v", del)
	}
	// Persist and reload from disk.
	if err := s.Persist("ros_1"); err != nil {
		t.Fatal(err)
	}
	s2, err := NewDVStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := s2.Get("ros_1"); len(got) != 2 {
		t.Errorf("reloaded Get = %+v", got)
	}
	if err := s2.Drop("ros_1"); err != nil {
		t.Fatal(err)
	}
	if got := s2.Get("ros_1"); len(got) != 0 {
		t.Error("Drop did not clear entries")
	}
}

func TestDVStoreMemTargetsAndRewrite(t *testing.T) {
	s, _ := NewDVStore(t.TempDir())
	s.Add(WOSTarget, []DVEntry{{Pos: 1, Epoch: 2}})
	s.Add("ros_2", []DVEntry{{Pos: 0, Epoch: 2}})
	mt := s.MemTargets()
	if len(mt) != 2 {
		t.Errorf("MemTargets = %v", mt)
	}
	s.Rewrite(WOSTarget, nil)
	if len(s.Get(WOSTarget)) != 0 {
		t.Error("Rewrite(nil) should clear")
	}
	s.Rewrite("ros_2", []DVEntry{{Pos: 9, Epoch: 3}, {Pos: 4, Epoch: 3}})
	got := s.Get("ros_2")
	if len(got) != 2 || got[0].Pos != 4 {
		t.Errorf("Rewrite result = %+v", got)
	}
}

func newTestManager(t *testing.T) *Manager {
	t.Helper()
	schema := types.NewSchema(
		types.Column{Name: "a", Typ: types.Int64},
		types.Column{Name: "b", Typ: types.Varchar},
		types.Column{Name: "v", Typ: types.Float64},
	)
	m, err := NewManager(t.TempDir(), schema, ManagerOpts{})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func managerAddContainer(t *testing.T, m *Manager, partition string, seg int, n int) *ContainerMeta {
	t.Helper()
	id, dir := m.NewContainerID()
	meta := testMeta(id)
	meta.Partition = partition
	meta.LocalSegment = seg
	got, err := writeBatch(dir, meta, buildBatch(n), WriterOpts{BlockRows: 64})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.SwapContainers(got, nil, nil); err != nil {
		t.Fatal(err)
	}
	return got
}

func TestManagerPublishListRemove(t *testing.T) {
	m := newTestManager(t)
	managerAddContainer(t, m, "2012-03", 0, 100)
	managerAddContainer(t, m, "2012-04", 1, 50)
	if len(m.Containers()) != 2 {
		t.Fatalf("containers = %d", len(m.Containers()))
	}
	if m.RowCount() != 150 {
		t.Errorf("RowCount = %d", m.RowCount())
	}
	if m.TotalBytes() <= 0 {
		t.Error("TotalBytes not accumulated")
	}
	held := m.Containers()[0] // as a scan's view holds it
	first := held.Meta.ID
	if err := m.Remove(first); err != nil {
		t.Fatal(err)
	}
	if len(m.Containers()) != 1 {
		t.Error("Remove did not drop container")
	}
	// A removed container's reader is retired: queries take no locks, so an
	// in-flight scan whose view holds the old container set must still be
	// able to read a consistent, preloaded image.
	if _, retired := held.RetiredDVs(); !retired {
		t.Error("removed container's reader is not marked retired")
	}
	if got := readColumns(t, held, 0).Len(); got != int(held.Meta.RowCount) {
		t.Errorf("retired reader read %d of %d preloaded rows", got, held.Meta.RowCount)
	}
	for _, live := range m.Containers() {
		if live.Meta.ID == first {
			t.Error("removed container still listed by Containers()")
		}
	}
}

func TestManagerReopen(t *testing.T) {
	schema := types.NewSchema(
		types.Column{Name: "a", Typ: types.Int64},
		types.Column{Name: "b", Typ: types.Varchar},
		types.Column{Name: "v", Typ: types.Float64},
	)
	dir := t.TempDir()
	m, err := NewManager(dir, schema, ManagerOpts{})
	if err != nil {
		t.Fatal(err)
	}
	managerAddContainer(t, m, "p", 0, 80)
	m2, err := NewManager(dir, schema, ManagerOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if len(m2.Containers()) != 1 || m2.RowCount() != 80 {
		t.Fatalf("reopen: %d containers, %d rows", len(m2.Containers()), m2.RowCount())
	}
	// ID allocation must continue past existing containers.
	id, _ := m2.NewContainerID()
	if id == m2.Containers()[0].Meta.ID {
		t.Error("NewContainerID reused an existing ID")
	}
}

func TestManagerDropPartition(t *testing.T) {
	m := newTestManager(t)
	managerAddContainer(t, m, "2012-03", 0, 100)
	managerAddContainer(t, m, "2012-03", 1, 100)
	managerAddContainer(t, m, "2012-04", 0, 100)
	if got := partitionsOf(m); len(got) != 2 {
		t.Fatalf("Partitions = %v", got)
	}
	rows, err := m.DropPartition("2012-03")
	if err != nil {
		t.Fatal(err)
	}
	if rows != 200 {
		t.Errorf("dropped %d rows, want 200", rows)
	}
	if got := partitionsOf(m); len(got) != 1 || got[0] != "2012-04" {
		t.Errorf("remaining partitions = %v", got)
	}
}

func TestManagerBackupHardlink(t *testing.T) {
	m := newTestManager(t)
	meta := managerAddContainer(t, m, "p", 0, 64)
	backup := filepath.Join(t.TempDir(), "backup")
	if err := m.SnapshotHardlink(backup); err != nil {
		t.Fatal(err)
	}
	// Remove the live container; backup must still open.
	if err := m.Remove(meta.ID); err != nil {
		t.Fatal(err)
	}
	r, err := OpenContainer(filepath.Join(backup, meta.ID))
	if err != nil {
		t.Fatal(err)
	}
	if b := readColumns(t, r, 0); b.Len() != 64 {
		t.Fatalf("backup read: rows=%d", b.Len())
	}
}

func TestFigure2Layout(t *testing.T) {
	// Paper Figure 2: a node with PARTITION BY month/year and 3 local
	// segments holds 14 ROS containers over 4 partition keys; each column's
	// data within a container is a single file, two columns -> 28 data files.
	m := newTestManager(t)
	partitions := []string{"3/2012", "4/2012", "5/2012", "6/2012"}
	// Distribution from the figure: some partitions have containers in all 3
	// local segments, some have extras from unmerged loads.
	layout := []struct {
		part string
		seg  int
	}{
		{"3/2012", 0}, {"3/2012", 1}, {"3/2012", 2},
		{"4/2012", 0}, {"4/2012", 1}, {"4/2012", 2},
		{"5/2012", 0}, {"5/2012", 1}, {"5/2012", 2},
		{"6/2012", 0}, {"6/2012", 0}, {"6/2012", 1}, {"6/2012", 1}, {"6/2012", 2},
	}
	for _, l := range layout {
		id, dir := m.NewContainerID()
		meta := &ContainerMeta{
			ID: id, Projection: "p1", Partition: l.part, LocalSegment: l.seg,
			Cols: []ColumnSpec{
				{Name: "cid", Typ: types.Int64, Enc: encoding.Auto},
				{Name: "price", Typ: types.Float64, Enc: encoding.Auto},
			},
		}
		a := vector.NewFromInts(types.Int64, []int64{1, 2, 3})
		v := vector.NewFromFloats([]float64{100, 98.5, 99})
		if _, err := writeBatch(dir, meta, vector.NewBatch(a, v), WriterOpts{}); err != nil {
			t.Fatal(err)
		}
		rd, err := OpenContainer(dir)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.SwapContainers(rd.Meta, nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(m.Containers()); got != 14 {
		t.Fatalf("containers = %d, want 14", got)
	}
	if got := partitionsOf(m); len(got) != 4 {
		t.Fatalf("partitions = %v", got)
	}
	_ = partitions
	// Count user data files: 14 containers x 2 columns = 28 .dat files.
	dat := 0
	for _, r := range m.Containers() {
		ents, err := os.ReadDir(r.Dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range ents {
			if filepath.Ext(e.Name()) == ".dat" {
				dat++
			}
		}
	}
	if dat != 28 {
		t.Errorf("user data files = %d, want 28", dat)
	}
	// Local segment boundaries are respected per partition.
	for _, r := range m.Containers() {
		if r.Meta.LocalSegment < 0 || r.Meta.LocalSegment >= 3 {
			t.Errorf("container %s in invalid local segment %d", r.Meta.ID, r.Meta.LocalSegment)
		}
	}
}

func TestValueMarshalRoundTrip(t *testing.T) {
	vals := []types.Value{
		types.NewInt(-5), types.NewInt(1 << 60), types.NewFloat(3.14),
		types.NewString("hello"), types.NewString(""), types.NewNull(types.Int64),
		types.NewBool(true), types.NewTimestampMicros(1345500000000000),
	}
	for _, v := range vals {
		buf := marshalValue(nil, v)
		got, n, err := unmarshalValue(buf, v.Typ)
		if err != nil || n != len(buf) {
			t.Fatalf("unmarshal %v: %v (n=%d, len=%d)", v, err, n, len(buf))
		}
		if got.Null != v.Null || (!v.Null && got.Compare(v) != 0) {
			t.Errorf("round trip %v -> %v", v, got)
		}
	}
}
