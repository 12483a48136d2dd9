package storage

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"

	"repro/internal/encoding"
	"repro/internal/types"
	"repro/internal/vector"
)

// This file is the one way into — and the one way out of — the ROS: how
// stored rows of one projection on one node become containers (Placement,
// WriteBatches, WriteRun), and how they are read back with their delete
// epochs (StoredBatches, WOSBatches, and ForEachStored over both). Moveout,
// mergeout, direct load, recovery, refresh and rebalance differ only in where
// their rows come from and in how they publish what WriteRun returns.
//
// Both directions speak the stored-batch form: a container's columns — the
// user columns, then the epoch — followed by one Int64 column of delete
// epochs, 0 for a live row. Readers yield it and writers take it, so a delete
// epoch cannot be dropped on the way from one container to another.

// Placement is everything that decides which container a stored row lands in
// and what that container looks like: a ROS container holds one partition
// (paper §3.5) of one local segment (§3.6), sorted on the projection's sort
// key, with the commit epoch as a trailing RLE column (§5).
type Placement struct {
	Projection string
	// SortKey lists projection column indexes forming the sort order.
	SortKey []int
	// Cols are the stored column specs: the user columns, then the epoch.
	Cols []ColumnSpec
	// PartitionOf evaluates the partition expression over a stored batch,
	// a value's String being its key; nil when the table is unpartitioned.
	PartitionOf func(*vector.Batch) (*vector.Vector, error)
	// LocalSegmentOf assigns each row of a stored batch to an intra-node
	// local segment; nil puts every row in segment 0.
	LocalSegmentOf func(*vector.Batch) ([]int, error)
	// BlockRows overrides the encoded block size (tests).
	BlockRows int
}

// NewPlacement returns the placement of an unpartitioned, single-segment
// projection; callers with a partition expression or local segments set
// PartitionOf and LocalSegmentOf. encs names the columns whose encoding is
// not Auto — the default, under which the system picks the most advantageous
// scheme from the data itself (paper §3.4.1).
func NewPlacement(projection string, schema *types.Schema, sortKey []int, encs map[string]encoding.Kind) *Placement {
	cols := make([]ColumnSpec, 0, schema.Len()+1)
	for _, c := range schema.Cols {
		spec := ColumnSpec{Name: c.Name, Typ: c.Typ, Enc: encoding.Auto}
		if k, ok := encs[c.Name]; ok {
			spec.Enc = k
		}
		cols = append(cols, spec)
	}
	// The epoch column is always RLE: commits stamp long runs of equal epochs.
	cols = append(cols, ColumnSpec{Name: EpochColumn, Typ: types.Int64, Enc: encoding.RLE})
	return &Placement{Projection: projection, SortKey: sortKey, Cols: cols}
}

// Written is a container WriteRun finished but nobody can see yet, with the
// delete vector its deleted rows need.
type Written struct {
	Meta *ContainerMeta
	DVs  []DVEntry
}

// WriteRun writes one sorted run as a new container of mgr: next yields its
// stored batches in sort order until nil, a selection dropping rows. The
// user and epoch columns are written, delete epochs become delete vector
// entries at the rows' output positions, and the meta carries the rows'
// epoch range and the merge level. Nothing is published — the caller makes the container and its delete
// vector visible under its own atomicity rule (CommitMoveout, PublishWritten,
// SwapContainers) or calls Discard. A failure leaves no directory behind.
func (pl *Placement) WriteRun(mgr *Manager, part string, seg, level int, next vector.Stream) (Written, error) {
	id, dir := mgr.NewContainerID()
	meta := &ContainerMeta{
		ID: id, Projection: pl.Projection, Cols: pl.Cols,
		Partition: part, LocalSegment: seg, MergeLevel: level,
	}
	w, err := NewContainerWriter(dir, meta, WriterOpts{BlockRows: pl.BlockRows})
	if err != nil {
		return Written{}, err
	}
	fail := func(err error) (Written, error) {
		w.Abort()
		return Written{}, err
	}
	var dvs []DVEntry
	nCols := len(pl.Cols)
	for b, err := next(); b != nil || err != nil; b, err = next() {
		if err != nil {
			return fail(err)
		}
		if b.NumCols() != nCols+1 {
			return fail(fmt.Errorf("storage: a stored batch of %d columns; container %s expects %d", b.NumCols(), id, nCols+1))
		}
		b, pos := b.Flatten(), w.rows
		if err := w.Append(&vector.Batch{Cols: b.Cols[:nCols]}); err != nil {
			return fail(err)
		}
		for i, e := range b.Cols[nCols-1].Ints {
			epoch := types.Epoch(e)
			if pos+int64(i) == 0 || epoch < meta.MinEpoch {
				meta.MinEpoch = epoch
			}
			meta.MaxEpoch = max(meta.MaxEpoch, epoch)
		}
		for i, d := range b.Cols[nCols].Ints {
			if d != 0 {
				dvs = append(dvs, DVEntry{Pos: pos + int64(i), Epoch: types.Epoch(d)})
			}
		}
	}
	if _, err := w.Close(); err != nil {
		return Written{}, err
	}
	return Written{Meta: meta, DVs: dvs}, nil
}

// WriteBatches places stored batches — flat, in the order their rows were
// stored, a selection dropping rows — and writes each partition × local
// segment as one container at merge level 0, in (partition, local segment)
// order. Each run is sorted on the sort key, stably, which keeps equal-epoch
// runs long. It is all or nothing: a failure discards the containers already
// written.
func (pl *Placement) WriteBatches(mgr *Manager, batches []*vector.Batch) ([]Written, error) {
	runs, err := pl.place(batches)
	if err != nil {
		return nil, err
	}
	specs := vector.KeySpecs(pl.SortKey)
	out := make([]Written, 0, len(runs))
	for _, run := range runs {
		if len(specs) > 0 {
			slices.SortStableFunc(run.rows, func(x, y rowRef) int {
				return vector.CompareRows(batches[x.b], x.i, batches[y.b], y.i, specs)
			})
		}
		w, err := pl.WriteRun(mgr, run.part, run.seg, 0, vector.SliceStream(gather(batches, run.rows)))
		if err != nil {
			mgr.Discard(out)
			return nil, err
		}
		out = append(out, w)
	}
	return out, nil
}

// rowRef is physical row i of stored batch b.
type rowRef struct{ b, i int }

// placedRun is the rows of one container before they are sorted.
type placedRun struct {
	part string
	seg  int
	rows []rowRef
}

// place groups the rows of batches by partition × local segment, both
// computed once per batch, each partition key once per distinct value. Runs
// come back in (partition, local segment) order.
func (pl *Placement) place(batches []*vector.Batch) ([]placedRun, error) {
	type groupKey struct {
		part string
		seg  int
	}
	groups := map[groupKey]int{}
	keys := map[types.Value]string{}
	var runs []placedRun
	for bi, b := range batches {
		if b.NumCols() != len(pl.Cols)+1 {
			return nil, fmt.Errorf("storage: a stored batch of %d columns; projection %s expects %d", b.NumCols(), pl.Projection, len(pl.Cols)+1)
		}
		var parts *vector.Vector
		var segs []int
		var err error
		if pl.PartitionOf != nil {
			if parts, err = pl.PartitionOf(b); err != nil {
				return nil, fmt.Errorf("storage: partition expression of %q: %w", pl.Projection, err)
			}
		}
		if pl.LocalSegmentOf != nil {
			if segs, err = pl.LocalSegmentOf(b); err != nil {
				return nil, err
			}
		}
		for j := range b.Len() {
			i := j
			if b.Sel != nil {
				i = b.Sel[j]
			}
			var k groupKey
			if parts != nil {
				v := parts.ValueAt(i)
				part, ok := keys[v]
				if !ok {
					part = v.String()
					keys[v] = part
				}
				k.part = part
			}
			if segs != nil {
				k.seg = segs[i]
			}
			g, ok := groups[k]
			if !ok {
				g = len(runs)
				groups[k] = g
				runs = append(runs, placedRun{part: k.part, seg: k.seg})
			}
			runs[g].rows = append(runs[g].rows, rowRef{bi, i})
		}
	}
	sort.Slice(runs, func(i, j int) bool {
		if runs[i].part != runs[j].part {
			return runs[i].part < runs[j].part
		}
		return runs[i].seg < runs[j].seg
	})
	return runs, nil
}

// gather copies the referenced rows of batches, in order, into one stored
// batch.
func gather(batches []*vector.Batch, rows []rowRef) *vector.Batch {
	out := &vector.Batch{Cols: make([]*vector.Vector, batches[0].NumCols())}
	for c := range out.Cols {
		v := vector.New(batches[0].Cols[c].Typ, len(rows))
		for _, r := range rows {
			v.AppendEntry(batches[r.b].Cols[c], r.i)
		}
		out.Cols[c] = v
	}
	return out
}

// Discard removes containers that were written but never published.
func (m *Manager) Discard(written []Written) {
	for _, w := range written {
		os.RemoveAll(filepath.Join(m.dir, w.Meta.ID))
	}
}

// PublishWritten makes written containers and their delete vectors visible —
// each container atomically with its vector — and persists the vectors. It is
// the publish rule of callers that need no wider atomicity: direct load
// (which also stages a rollback), recovery, refresh and rebalance.
func (m *Manager) PublishWritten(written []Written) error {
	for _, w := range written {
		if err := m.SwapContainers(w.Meta, w.DVs, nil); err != nil {
			return err
		}
		if err := m.dvs.Persist(w.Meta.ID); err != nil {
			return err
		}
	}
	return nil
}

// ForEachStored calls fn for every stored batch — each container's blocks in
// ID order, then the WOS chunks — whose selection, never empty, keeps the
// rows with commit epoch in (lo, hi]; target names where a delete vector for
// them goes (a container ID or WOSTarget), first the position of b's row 0
// there. The containers, WOS views and WOS delete vector are captured under
// one lock, so a concurrent moveout cannot show a row twice or not at all.
// fn may keep b: decoded blocks are never recycled, WOS views outlive drains.
func (m *Manager) ForEachStored(lo, hi types.Epoch, fn func(target string, first int64, b *vector.Batch) error) error {
	m.mu.RLock()
	containers := m.containersLocked()
	wos, wosDVs := m.wos.Chunks(hi), m.dvs.Get(WOSTarget)
	m.mu.RUnlock()
	each := func(target string, first int64, b *vector.Batch) error {
		b.Sel = make([]int, 0, b.Len())
		for i, e := range b.Cols[b.NumCols()-2].Ints {
			if e := types.Epoch(e); e > lo && e <= hi {
				b.Sel = append(b.Sel, i)
			}
		}
		if len(b.Sel) == 0 {
			return nil
		}
		return fn(target, first, b)
	}
	for _, r := range containers {
		if r.Meta.MinEpoch > hi || r.Meta.MaxEpoch <= lo {
			continue
		}
		next, first := m.StoredBatches(r), int64(0)
		for b, err := next(); b != nil || err != nil; b, err = next() {
			if err != nil {
				return err
			}
			if err := each(r.Meta.ID, first, b); err != nil {
				return err
			}
			first += int64(b.FullLen())
		}
	}
	dv := dvCursor{entries: wosDVs}
	for _, c := range wos {
		if err := each(WOSTarget, c.First, wosBatch(c, &dv)); err != nil {
			return err
		}
	}
	return nil
}

// WOSBatches returns the WOS rows committed at or before hi in the
// stored-batch form, one batch per chunk, and the WOS position of the last
// of them (-1 for none): moveout's input. The batches are views of the WOS
// but for their delete epochs.
func (m *Manager) WOSBatches(hi types.Epoch) ([]*vector.Batch, int64) {
	m.mu.RLock()
	wos, wosDVs := m.wos.Chunks(hi), m.dvs.Get(WOSTarget)
	m.mu.RUnlock()
	dv := dvCursor{entries: wosDVs}
	out := make([]*vector.Batch, len(wos))
	for k, c := range wos {
		out[k] = wosBatch(c, &dv)
	}
	return out, viewsEnd(wos) - 1
}

// wosBatch is a WOS chunk in the stored-batch form: views of its columns and
// epochs, and its delete epochs from dv, which walks the chunks in order.
func wosBatch(c WOSChunk, dv *dvCursor) *vector.Batch {
	cols := make([]*vector.Vector, 0, len(c.Cols)+2)
	dels := make([]int64, c.Len())
	for i := range dels {
		dels[i] = int64(dv.at(c.First + int64(i)))
	}
	return &vector.Batch{Cols: append(append(cols, c.Cols...), c.Epochs, vector.NewFromInts(types.Int64, dels))}
}

// StoredBatches streams a container a block at a time in the stored-batch
// form, positions ascending from 0. The delete epochs are those the store
// holds when it is called — or, for a container mergeout has since retired,
// the ones it retired with.
func (m *Manager) StoredBatches(r *ContainerReader) vector.Stream {
	// Store first, retirement snapshot second: if the reader is not retired
	// at the second read, the first happened before a swap dropped its
	// entries (the order exec's scan uses).
	dv := dvCursor{entries: m.dvs.Get(r.Meta.ID)}
	if snap, retired := r.RetiredDVs(); retired {
		dv.entries = append([]DVEntry(nil), snap...)
		sort.Slice(dv.entries, func(i, j int) bool { return dv.entries[i].Pos < dv.entries[j].Pos })
	}
	nCols := len(r.Meta.Cols)
	if r.Meta.ColIndex(EpochColumn) != nCols-1 {
		err := fmt.Errorf("storage: container %s does not end in the epoch column", r.Meta.ID)
		return func() (*vector.Batch, error) { return nil, err }
	}
	iters := make([]*ColumnIter, nCols)
	for c := range iters {
		iters[c] = r.NewColumnIter(c, nil)
	}
	return func() (*vector.Batch, error) {
		b := &vector.Batch{Cols: make([]*vector.Vector, nCols+1)}
		var first int64
		for c, it := range iters {
			v, p, err := it.Next()
			if err != nil {
				return nil, err
			}
			switch {
			case v == nil && c == 0:
				return nil, nil
			case v == nil:
				return nil, fmt.Errorf("storage: container %s column %d is short", r.Meta.ID, c)
			case c > 0 && v.Len() != b.Cols[0].Len():
				return nil, fmt.Errorf("storage: container %s has ragged blocks", r.Meta.ID)
			}
			b.Cols[c], first = v, p
		}
		dels := make([]int64, b.Cols[0].Len())
		for i := range dels {
			dels[i] = int64(dv.at(first + int64(i)))
		}
		b.Cols[nCols] = vector.NewFromInts(types.Int64, dels)
		return b, nil
	}
}

// dvCursor answers "when was position p deleted" for ascending p over a
// delete vector sorted by position.
type dvCursor struct {
	entries []DVEntry
	next    int
}

func (c *dvCursor) at(pos int64) types.Epoch {
	for c.next < len(c.entries) && c.entries[c.next].Pos < pos {
		c.next++
	}
	if c.next < len(c.entries) && c.entries[c.next].Pos == pos {
		return c.entries[c.next].Epoch
	}
	return 0
}
