package storage

import (
	"fmt"
	"path/filepath"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"repro/internal/txn"
	"repro/internal/types"
	"repro/internal/vector"
)

// appendRows pivots rows into one batch of the WOS's schema and appends it
// at epoch e.
func appendRows(w *WOS, rows []types.Row, e types.Epoch) (int64, error) {
	return w.AppendBatch(vector.BatchFromRows(w.Schema(), rows), e)
}

func wosRows(views []WOSChunk) int {
	n := 0
	for i := range views {
		n += views[i].Len()
	}
	return n
}

func wosSchema() *types.Schema {
	return types.NewSchema(
		types.Column{Name: "k", Typ: types.Int64},
		types.Column{Name: "s", Typ: types.Varchar, Nullable: true},
	)
}

// wosRow is row i of the WOS tests: k = i, s NULL every fifth row.
func wosRow(i int) types.Row {
	s := types.NewString(fmt.Sprintf("s%d", i))
	if i%5 == 0 {
		s = types.NewNull(types.Varchar)
	}
	return types.Row{types.NewInt(int64(i)), s}
}

// checkView fails unless view holds rows first.. of wosRow, positions equal
// to k.
func checkView(t *testing.T, v *WOSChunk) {
	t.Helper()
	for i := range v.Len() {
		want := wosRow(int(v.First) + i)
		if got := v.Cols[0].Ints[i]; got != want[0].I {
			t.Fatalf("view at %d: row %d has k %d, want %d", v.First, i, got, want[0].I)
		}
		if got := v.Cols[1].ValueAt(i); got.Null != want[1].Null || got.S != want[1].S {
			t.Fatalf("view at %d: row %d has s %v, want %v", v.First, i, got, want[1])
		}
	}
}

// TestWOSViewUnderAppend: a view taken while another goroutine keeps
// appending into the same chunk reads exactly its rows, every time (run
// under -race: the appends write past the view's length, never into it).
func TestWOSViewUnderAppend(t *testing.T) {
	w := NewWOS(wosSchema(), 0)
	next := 0
	appendRows := func(n int, e types.Epoch) {
		rows := make([]types.Row, n)
		for i := range rows {
			rows[i] = wosRow(next + i)
		}
		if _, err := appendRows(w, rows, e); err != nil {
			t.Error(err)
		}
		next += n
	}
	appendRows(3, 1) // the first row is NULL: the chunk's null column starts
	views := w.Chunks(1)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for e := types.Epoch(2); next < vector.DefaultBatchSize+300; e++ {
			appendRows(7, e)
		}
	}()
	for range 200 {
		checkView(t, &views[0])
		if got := w.Chunks(1); wosRows(got) != 3 {
			t.Fatalf("Chunks(1) shows %d rows while appends go on, want 3", wosRows(got))
		}
	}
	wg.Wait()
	if views[0].Len() != 3 {
		t.Fatalf("the view grew to %d rows", views[0].Len())
	}
	checkView(t, &views[0])
	all := w.Chunks(types.MaxEpoch)
	if len(all) != 2 || wosRows(all) != next || all[1].First != vector.DefaultBatchSize {
		t.Fatalf("%d rows in %d views, the second at %d; want %d rows, a chunk boundary at %d", wosRows(all), len(all), all[len(all)-1].First, next, vector.DefaultBatchSize)
	}
	for i := range all {
		checkView(t, &all[i])
	}
}

// TestWOSEpochsRiseWithPosition: commits append under the transaction
// manager's commit lock, so however transactions interleave, the epochs of
// the WOS never fall as positions rise — what makes a snapshot's rows a
// prefix. An append that would break the order is refused.
func TestWOSEpochsRiseWithPosition(t *testing.T) {
	w := NewWOS(wosSchema(), 0)
	tm := txn.NewManager()
	var wg sync.WaitGroup
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 50 {
				tx := tm.Begin()
				rows := []types.Row{wosRow(g*1000 + i), wosRow(g*1000 + i + 500)}
				tx.StageCommit(true, func(e types.Epoch) error {
					_, err := appendRows(w, rows, e)
					return err
				})
				if _, err := tm.Commit(tx); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	var prev int64
	views := w.Chunks(types.MaxEpoch)
	for _, v := range views {
		for _, e := range v.Epochs.Ints {
			if e < prev {
				t.Fatalf("epoch %d follows %d", e, prev)
			}
			prev = e
		}
	}
	if got := wosRows(views); got != 400 {
		t.Fatalf("%d rows, want 400", got)
	}
	if _, err := appendRows(w, []types.Row{wosRow(0)}, types.Epoch(prev-1)); err == nil {
		t.Fatal("an append at an older epoch was accepted")
	}
}

// TestWOSDrainKeepsPositions drains across a chunk boundary and into the
// middle of a chunk: the rows left keep their positions and values, no
// drained row is held, and the footprint is the columnar estimate of what
// is left.
func TestWOSDrainKeepsPositions(t *testing.T) {
	w := NewWOS(wosSchema(), 0)
	const n = vector.DefaultBatchSize + 1000
	for lo := 0; lo < n; lo += 500 {
		rows := make([]types.Row, 0, 500)
		for i := lo; i < min(lo+500, n); i++ {
			rows = append(rows, wosRow(i))
		}
		if _, err := appendRows(w, rows, types.Epoch(1+lo/500)); err != nil {
			t.Fatal(err)
		}
	}
	wantBytes := func(from int) int64 {
		var b int64
		for i := from; i < n; i++ {
			b += 8 + 8 + 16 // k, the epoch, the string header
			if r := wosRow(i); !r[1].Null {
				b += int64(len(r[1].S))
			}
		}
		return b
	}
	if got, want := w.Bytes(), wantBytes(0); got != want {
		t.Fatalf("Bytes = %d, want %d", got, want)
	}
	for _, through := range []int{99, vector.DefaultBatchSize + 10, n - 1} {
		w.DrainThrough(int64(through))
		if w.Len() != n-through-1 {
			t.Fatalf("after draining through %d: Len %d, want %d", through, w.Len(), n-through-1)
		}
		if got, want := w.Bytes(), wantBytes(through+1); got != want {
			t.Fatalf("after draining through %d: Bytes %d, want %d", through, got, want)
		}
		views := w.Chunks(types.MaxEpoch)
		if wosRows(views) != w.Len() || (len(views) > 0 && views[0].First != int64(through+1)) {
			t.Fatalf("after draining through %d: views of %d rows from %v", through, wosRows(views), views)
		}
		for i := range views {
			checkView(t, &views[i])
		}
		if len(w.chunks) > 0 && w.chunks[0].first != int64(through+1) {
			t.Fatalf("after draining through %d: the first chunk starts at %d; drained rows are held", through, w.chunks[0].first)
		}
	}
	// The partly drained chunk still takes rows, at the next position.
	if p, err := appendRows(w, []types.Row{wosRow(n)}, 99); err != nil || p != n {
		t.Fatalf("Append after drains: position %d (%v), want %d", p, err, n)
	}
}

// TestWOSTruncateAcrossChunks cuts the WOS inside its second chunk, then
// appends: a view taken before the cut still reads exactly its rows, the
// discarded positions are not reused, and the footprint is what is left.
func TestWOSTruncateAcrossChunks(t *testing.T) {
	w := NewWOS(wosSchema(), 0)
	const n = vector.DefaultBatchSize + 1000
	for lo := 0; lo < n; lo += 500 {
		rows := make([]types.Row, 0, 500)
		for i := lo; i < min(lo+500, n); i++ {
			rows = append(rows, wosRow(i))
		}
		if _, err := appendRows(w, rows, types.Epoch(1+lo/500)); err != nil {
			t.Fatal(err)
		}
	}
	before := w.Chunks(types.MaxEpoch)
	kept := w.Chunks(9) // the first 4 500 rows
	if removed := w.Truncate(9); removed != n-wosRows(kept) {
		t.Fatalf("Truncate removed %d rows, want %d", removed, n-wosRows(kept))
	}
	if w.Len() != wosRows(kept) || w.Bytes() != chunkBytes(w.chunks[0], 0, vector.DefaultBatchSize)+chunkBytes(w.chunks[1], 0, w.chunks[1].len()) {
		t.Fatalf("after Truncate: Len %d, Bytes %d", w.Len(), w.Bytes())
	}
	p, err := appendRows(w, []types.Row{{types.NewInt(-1), types.NewString("new")}}, 10)
	if err != nil || p != n {
		t.Fatalf("Append after Truncate: position %d (%v), want %d", p, err, n)
	}
	for i := range before {
		checkView(t, &before[i])
	}
	after := w.Chunks(9)
	if len(after) != 2 || wosRows(after) != wosRows(kept) {
		t.Fatalf("after Truncate: %d rows in %d views, want %d", wosRows(after), len(after), wosRows(kept))
	}
	for i := range after {
		checkView(t, &after[i])
	}
	if all := w.Chunks(types.MaxEpoch); len(all) != 3 || all[2].First != n || all[2].Len() != 1 {
		t.Fatalf("the row appended after Truncate is not alone at position %d: %+v", n, all)
	}
}

// TestWOSSmallAppendIsSmall: a WOS holds what its rows take, not a chunk's
// capacity — one WOS per projection per node, so a one-row insert into a
// fresh one must cost a few hundred bytes, not a 4 096-row chunk.
func TestWOSSmallAppendIsSmall(t *testing.T) {
	row := []types.Row{wosRow(1)}
	least := uint64(1 << 62)
	for range 5 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		w := NewWOS(wosSchema(), 0)
		if _, err := appendRows(w, row, 1); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	if least >= 2<<10 {
		t.Fatalf("a one-row append into a fresh WOS allocates %d bytes", least)
	}
}

// TestWOSHoldsNoRows: the WOS stores columns; no types.Row or types.Value
// is reachable from its fields.
func TestWOSHoldsNoRows(t *testing.T) {
	seen := map[reflect.Type]bool{}
	var walk func(reflect.Type, string)
	walk = func(typ reflect.Type, path string) {
		if seen[typ] {
			return
		}
		seen[typ] = true
		if typ == reflect.TypeOf(types.Row(nil)) || typ == reflect.TypeOf(types.Value{}) {
			t.Errorf("storage.WOS holds a %s at %s", typ, path)
			return
		}
		switch typ.Kind() {
		case reflect.Pointer, reflect.Slice, reflect.Array:
			walk(typ.Elem(), path+"[]")
		case reflect.Struct:
			for i := range typ.NumField() {
				f := typ.Field(i)
				walk(f.Type, path+"."+f.Name)
			}
		}
	}
	walk(reflect.TypeOf(WOS{}), "WOS")
}

// TestContainerWriterReusesBuffers: a warm writer takes its per-column
// write buffers and pending vectors from the pool, so opening, filling and
// closing a small container allocates far less than one 64 KiB buffer. The
// pool may drop what it holds (a collection, or at random under -race), so
// the cheapest of several writes is the one measured.
func TestContainerWriterReusesBuffers(t *testing.T) {
	dir := t.TempDir()
	cols := []ColumnSpec{{Name: "a", Typ: types.Int64}, {Name: "b", Typ: types.Varchar}, {Name: "c", Typ: types.Float64}}
	b := vector.NewBatch(vector.NewFromInts(types.Int64, []int64{1, 2, 3}),
		vector.NewFromStrings([]string{"x", "y", "z"}), vector.NewFromFloats([]float64{1, 2, 3}))
	least := uint64(1 << 62)
	for i := range 20 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		w, err := NewContainerWriter(filepath.Join(dir, fmt.Sprint(i)), &ContainerMeta{ID: fmt.Sprint(i), Cols: cols}, WriterOpts{})
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Append(b); err != nil {
			t.Fatal(err)
		}
		if _, err := w.Close(); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	if least >= 64<<10 {
		t.Fatalf("a warm small container allocates %d bytes; its buffers are not reused", least)
	}
}
