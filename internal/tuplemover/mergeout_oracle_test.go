package tuplemover

import (
	"flag"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"repro/internal/encoding"
	"repro/internal/storage"
	"repro/internal/txn"
	"repro/internal/types"
	"repro/internal/vector"
)

// Mergeout differential oracle: random containers of one projection — sort
// keys of one to three nullable INT / FLOAT (NaN among them) / VARCHAR /
// TIMESTAMP columns with heavy duplicates, forced RLE or dictionary
// encodings, 16-row blocks, two partitions × two local segments, one to
// eight loads, deletes written with the rows and added later, committed
// before, at and after the AHM — are merged group by group, and each output
// is compared row for row, commit and delete epochs included, with the naive
// reference: the inputs' rows concatenated in container-ID order, those
// deleted at or before the AHM dropped, stably sorted on the key.

var (
	mergeoutSeed  = flag.Int64("mergeout.seed", 20120827, "seed of TestMergeoutOracle (a failure prints the seed to re-run)")
	mergeoutCases = flag.Int("mergeout.cases", 60, "cases TestMergeoutOracle draws")
)

var mergeoutBase = time.Date(2012, 8, 27, 0, 0, 0, 0, time.UTC)

func mergeoutValue(rng *rand.Rand, typ types.Type) types.Value {
	if rng.Intn(6) == 0 {
		return types.NewNull(typ)
	}
	switch typ {
	case types.Float64:
		return types.NewFloat([]float64{-1.5, 0, 2.25, math.NaN()}[rng.Intn(4)])
	case types.Varchar:
		return types.NewString([]string{"", "a", "ab", "b"}[rng.Intn(4)])
	case types.Timestamp:
		return types.NewTimestamp(mergeoutBase.Add(time.Duration(rng.Intn(3)) * time.Hour))
	default:
		return types.NewInt(int64(rng.Intn(4) - 1))
	}
}

// mergeoutCase is one drawn set-up. Column 0 numbers the rows in arrival
// order, so a tie left in the wrong order shows; column 1 picks the
// partition and the local segment; the rest are the sort key.
type mergeoutCase struct {
	schema *types.Schema
	encs   map[string]encoding.Kind
	loads  [][]storedRow // load l commits at epoch l+1
	ahm    types.Epoch
}

// deleteEpoch is a delete of a row committed at epoch e: before, at or after
// the AHM, never before the row.
func (c *mergeoutCase) deleteEpoch(rng *rand.Rand, e types.Epoch) types.Epoch {
	return max(e, c.ahm+types.Epoch(rng.Intn(3))-1)
}

func newMergeoutCase(rng *rand.Rand) *mergeoutCase {
	c := &mergeoutCase{encs: map[string]encoding.Kind{}}
	cols := []types.Column{{Name: "id", Typ: types.Int64}, {Name: "place", Typ: types.Int64}}
	for i, n := 0, 1+rng.Intn(3); i < n; i++ {
		col := types.Column{Name: fmt.Sprintf("k%d", i+1), Nullable: true,
			Typ: []types.Type{types.Int64, types.Float64, types.Varchar, types.Timestamp}[rng.Intn(4)]}
		if k := []encoding.Kind{encoding.Auto, encoding.RLE, encoding.BlockDict}[rng.Intn(3)]; k != encoding.Auto {
			c.encs[col.Name] = k
		}
		cols = append(cols, col)
	}
	c.schema = types.NewSchema(cols...)
	loads := 1 + rng.Intn(8)
	c.ahm = types.Epoch(1 + rng.Intn(loads+2))
	id := 0
	for l := range loads {
		rows := make([]storedRow, []int{0, 1 + rng.Intn(20), 20 + rng.Intn(150)}[rng.Intn(3)])
		for i := range rows {
			r := types.Row{types.NewInt(int64(id)), types.NewInt(int64(rng.Intn(4)))}
			for _, col := range cols[2:] {
				r = append(r, mergeoutValue(rng, col.Typ))
			}
			rows[i] = storedRow{Row: r, Epoch: types.Epoch(l + 1)}
			if rng.Intn(5) == 0 {
				rows[i].Deleted = c.deleteEpoch(rng, rows[i].Epoch)
			}
			id++
		}
		c.loads = append(c.loads, rows)
	}
	return c
}

func (c *mergeoutCase) keys() []int {
	keys := make([]int, c.schema.Len()-2)
	for i := range keys {
		keys[i] = i + 2
	}
	return keys
}

// refMergeout is the reference: rows concatenated in container-ID order, the
// ones deleted at or before the AHM dropped, stably sorted on the key.
func refMergeout(concat []storedRow, keys []int, ahm types.Epoch) []storedRow {
	var out []storedRow
	for _, r := range concat {
		if r.Deleted == 0 || r.Deleted > ahm {
			out = append(out, r)
		}
	}
	slices.SortStableFunc(out, func(a, b storedRow) int { return a.Row.Compare(b.Row, keys) })
	return out
}

// storedRow is one stored row as the tests see it: the user columns and the
// commit and delete epochs.
type storedRow struct {
	Row            types.Row
	Epoch, Deleted types.Epoch
}

// pivot appends the live rows of stored batch b to out, pivoted with
// Batch.Rows: the tests' row view of the stored-batch form.
func pivot(out []storedRow, b *vector.Batch) []storedRow {
	for _, r := range b.Rows() {
		n := len(r) - 2
		out = append(out, storedRow{r[:n:n], types.Epoch(r[n].I), types.Epoch(r[n+1].I)})
	}
	return out
}

// storedRows reads a container through the batch reader.
func storedRows(mgr *storage.Manager, r *storage.ContainerReader) ([]storedRow, error) {
	var out []storedRow
	next := mgr.StoredBatches(r)
	for {
		b, err := next()
		if b == nil || err != nil {
			return out, err
		}
		out = pivot(out, b)
	}
}

// storedBatch pivots rows into one stored batch of place's columns.
func storedBatch(place *storage.Placement, rows []storedRow) *vector.Batch {
	b := &vector.Batch{Cols: make([]*vector.Vector, len(place.Cols)+1)}
	for c, spec := range place.Cols {
		b.Cols[c] = vector.New(spec.Typ, len(rows))
	}
	b.Cols[len(place.Cols)] = vector.New(types.Int64, len(rows))
	for _, r := range rows {
		b.AppendRow(append(slices.Clone(r.Row), types.NewInt(int64(r.Epoch)), types.NewInt(int64(r.Deleted))))
	}
	return b
}

// sameStored compares two row lists row for row, epochs included; a NaN
// equals a NaN.
func sameStored(got, want []storedRow) error {
	for i := 0; i < len(got) && i < len(want); i++ {
		g, w := got[i], want[i]
		same := len(g.Row) == len(w.Row) && g.Epoch == w.Epoch && g.Deleted == w.Deleted
		for c := 0; same && c < len(g.Row); c++ {
			same = g.Row[c].Null == w.Row[c].Null && g.Row[c].Compare(w.Row[c]) == 0
		}
		if !same {
			return fmt.Errorf("row %d = %s@%d-%d, want %s@%d-%d", i, g.Row, g.Epoch, g.Deleted, w.Row, w.Epoch, w.Deleted)
		}
	}
	if len(got) != len(want) {
		return fmt.Errorf("%d rows, want %d", len(got), len(want))
	}
	return nil
}

// run loads the case, merges every partition × local segment — the inputs
// handed over in a shuffled order — and checks each output.
func (c *mergeoutCase) run(rng *rand.Rand, dir string) error {
	mgr, err := storage.NewManager(dir, c.schema, storage.ManagerOpts{})
	if err != nil {
		return err
	}
	place := storage.NewPlacement("p", c.schema, c.keys(), c.encs)
	place.BlockRows = 16
	rowKeys(place, func(r types.Row) string { return fmt.Sprintf("p%d", r[1].I%2) }, func(r types.Row) int { return int(r[1].I / 2) })
	tm, err := New(Config{Mgr: mgr, Epochs: txn.NewEpochManager(), Place: place})
	if err != nil {
		return err
	}
	for _, rows := range c.loads {
		written, err := place.WriteBatches(mgr, []*vector.Batch{storedBatch(place, rows)})
		if err == nil {
			err = mgr.PublishWritten(written)
		}
		if err != nil {
			return err
		}
	}
	// Later deletes, left in the delete vector store's memory.
	groups := map[mergeGroup][]*storage.ContainerReader{}
	for _, r := range mgr.Containers() {
		taken := map[int64]bool{}
		for _, e := range mgr.DVs().Get(r.Meta.ID) {
			taken[e.Pos] = true
		}
		rows, err := storedRows(mgr, r)
		if err != nil {
			return err
		}
		var later []storage.DVEntry
		for pos, sr := range rows {
			if !taken[int64(pos)] && rng.Intn(6) == 0 {
				later = append(later, storage.DVEntry{Pos: int64(pos), Epoch: c.deleteEpoch(rng, sr.Epoch)})
			}
		}
		mgr.DVs().Add(r.Meta.ID, later)
		k := mergeGroup{r.Meta.Partition, r.Meta.LocalSegment}
		groups[k] = append(groups[k], r)
	}
	for k, inputs := range groups {
		var concat []storedRow
		for _, r := range inputs { // Containers() is in ID order
			rows, err := storedRows(mgr, r)
			if err != nil {
				return err
			}
			concat = append(concat, rows...)
		}
		want := refMergeout(concat, c.keys(), c.ahm)
		before := map[string]bool{}
		for _, r := range mgr.Containers() {
			before[r.Meta.ID] = true
		}
		shuffled := slices.Clone(inputs)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		if err := tm.mergeContainers(shuffled, k.part, k.seg, c.ahm); err != nil {
			return err
		}
		var out *storage.ContainerReader
		for _, r := range mgr.Containers() {
			switch {
			case !before[r.Meta.ID]:
				out = r
			case r.Meta.Partition == k.part && r.Meta.LocalSegment == k.seg:
				return fmt.Errorf("group %v: input %s survived the merge", k, r.Meta.ID)
			}
		}
		got, err := storedRows(mgr, out)
		if err == nil {
			err = sameStored(got, want)
		}
		if err == nil {
			err = checkMeta(out.Meta, k, want)
		}
		if err != nil {
			return fmt.Errorf("group %v, %d inputs: %w", k, len(inputs), err)
		}
	}
	return nil
}

// checkMeta holds an output's meta to its rows.
func checkMeta(m *storage.ContainerMeta, k mergeGroup, rows []storedRow) error {
	if m.Partition != k.part || m.LocalSegment != k.seg || m.MergeLevel != 1 || m.RowCount != int64(len(rows)) {
		return fmt.Errorf("meta says (%q, %d) level %d, %d rows", m.Partition, m.LocalSegment, m.MergeLevel, m.RowCount)
	}
	var lo, hi types.Epoch
	for i, r := range rows {
		if i == 0 || r.Epoch < lo {
			lo = r.Epoch
		}
		hi = max(hi, r.Epoch)
	}
	if m.MinEpoch != lo || m.MaxEpoch != hi {
		return fmt.Errorf("meta's epochs %d..%d, the rows' %d..%d", m.MinEpoch, m.MaxEpoch, lo, hi)
	}
	return nil
}

func TestMergeoutOracle(t *testing.T) {
	dir := t.TempDir()
	for n := 0; n < *mergeoutCases; n++ {
		seed := *mergeoutSeed + int64(n)
		rng := rand.New(rand.NewSource(seed))
		c := newMergeoutCase(rng)
		if err := c.run(rng, filepath.Join(dir, fmt.Sprint(n))); err != nil {
			t.Fatalf("go test ./internal/tuplemover -run TestMergeoutOracle -mergeout.seed %d -mergeout.cases 1\n(%d loads of %v, encodings %v, AHM %d): %v",
				seed, len(c.loads), c.schema.Names(), c.encs, c.ahm, err)
		}
	}
}

// TestMergeoutHoldsABlockPerInput: mergeout of eight multi-block containers
// whose keys interleave holds one decoded block per input under the merger's
// cursors — not the inputs' rows — and writes every row once.
func TestMergeoutHoldsABlockPerInput(t *testing.T) {
	f := newFixture(t)
	f.tm.cfg.StrataBase = 1 << 30 // one stratum: the eight merge at once
	const inputs, rows = 8, 100   // keys 1..100 in each: 32-row blocks interleave
	for range inputs {
		f.load(t, rows, f.em.CommitDML())
		if _, err := f.tm.Moveout(); err != nil {
			t.Fatal(err)
		}
	}
	held, peak := 0, 0
	vector.CursorHeld = func(delta int) {
		held += delta
		peak = max(peak, held)
	}
	t.Cleanup(func() { vector.CursorHeld = nil })
	merges, err := f.tm.Mergeout()
	if err != nil || merges != 1 {
		t.Fatalf("merges = %d, err = %v", merges, err)
	}
	if c := f.mgr.Containers(); len(c) != 1 || c[0].Meta.RowCount != inputs*rows {
		t.Fatalf("merged into %d containers, the first of %d rows; want 1 of %d", len(c), c[0].Meta.RowCount, inputs*rows)
	}
	if peak == 0 || peak > inputs || held != 0 {
		t.Errorf("cursors held at most %d batches for %d inputs (%d at the end)", peak, inputs, held)
	}
}
