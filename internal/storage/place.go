package storage

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/encoding"
	"repro/internal/types"
	"repro/internal/vector"
)

// This file is the one way into — and the one way out of — the ROS: how
// stored rows of one projection on one node become containers (Placement,
// Place, WriteRun), and how they are read back with their delete epochs
// (StoredBatches, and ForEachStored over it). Moveout, mergeout, direct load,
// recovery, refresh and rebalance differ only in where their rows come from
// and in how they publish what WriteRun returns.
//
// Both directions speak the stored-batch form: a container's columns — the
// user columns, then the epoch — followed by one Int64 column of delete
// epochs, 0 for a live row. StoredRow is the same thing a row at a time, for
// the callers that route or match rows one by one.

// StoredRow is one row as a projection's stores hold it: the user columns,
// the epoch its insert committed in and the epoch its delete committed in
// (0 while live). Readers yield it and writers take it, so a delete epoch
// cannot be dropped on the way from one container to another.
type StoredRow struct {
	Row     types.Row
	Epoch   types.Epoch
	Deleted types.Epoch
}

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
	// PartitionOf computes the table's partition key of a row; nil when the
	// table is unpartitioned.
	PartitionOf func(types.Row) (string, error)
	// LocalSegmentOf assigns a row to an intra-node local segment; nil puts
	// every row in segment 0.
	LocalSegmentOf func(types.Row) int
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

// Run is the content of one container: the rows of one partition × local
// segment in sort order.
type Run struct {
	Partition    string
	LocalSegment int
	Rows         []StoredRow
}

// Place groups rows by partition × local segment and sorts each group on the
// sort key — stably, which keeps equal-epoch runs long. Runs come back in
// (partition, local segment) order.
func (pl *Placement) Place(rows []StoredRow) ([]Run, error) {
	type groupKey struct {
		part string
		seg  int
	}
	groups := map[groupKey][]StoredRow{}
	for _, r := range rows {
		var k groupKey
		if pl.PartitionOf != nil {
			part, err := pl.PartitionOf(r.Row)
			if err != nil {
				return nil, fmt.Errorf("storage: partition expression of %q: %w", pl.Projection, err)
			}
			k.part = part
		}
		if pl.LocalSegmentOf != nil {
			k.seg = pl.LocalSegmentOf(r.Row)
		}
		groups[k] = append(groups[k], r)
	}
	runs := make([]Run, 0, len(groups))
	for k, g := range groups {
		sort.SliceStable(g, func(i, j int) bool { return g[i].Row.Compare(g[j].Row, pl.SortKey) < 0 })
		runs = append(runs, Run{Partition: k.part, LocalSegment: k.seg, Rows: g})
	}
	sort.Slice(runs, func(i, j int) bool {
		if runs[i].Partition != runs[j].Partition {
			return runs[i].Partition < runs[j].Partition
		}
		return runs[i].LocalSegment < runs[j].LocalSegment
	})
	return runs, nil
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

// WriteRows places rows and writes every run, pivoted once into a stored
// batch, at merge level 0. It is all or nothing: a failure discards the
// containers already written.
func (pl *Placement) WriteRows(mgr *Manager, rows []StoredRow) ([]Written, error) {
	runs, err := pl.Place(rows)
	if err != nil {
		return nil, err
	}
	out := make([]Written, 0, len(runs))
	for _, run := range runs {
		b, err := pl.storedBatch(run.Rows)
		var w Written
		if err == nil {
			w, err = pl.WriteRun(mgr, run.Partition, run.LocalSegment, 0, vector.SliceStream(b))
		}
		if err != nil {
			mgr.Discard(out)
			return nil, err
		}
		out = append(out, w)
	}
	return out, nil
}

// storedBatch pivots rows into one stored batch.
func (pl *Placement) storedBatch(rows []StoredRow) (*vector.Batch, error) {
	b := &vector.Batch{Cols: make([]*vector.Vector, len(pl.Cols)+1)}
	for c, spec := range pl.Cols {
		b.Cols[c] = vector.New(spec.Typ, len(rows))
	}
	b.Cols[len(pl.Cols)] = vector.New(types.Int64, len(rows))
	vals := make(types.Row, 0, len(b.Cols))
	for _, r := range rows {
		if len(r.Row) != len(pl.Cols)-1 {
			return nil, fmt.Errorf("storage: a row of %d values; projection %s expects %d", len(r.Row), pl.Projection, len(pl.Cols)-1)
		}
		b.AppendRow(append(append(vals[:0], r.Row...), types.NewInt(int64(r.Epoch)), types.NewInt(int64(r.Deleted))))
	}
	return b, nil
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

// StoredFunc receives one stored row and where a delete vector for it goes:
// target is a container ID or WOSTarget, pos the row's position in it.
type StoredFunc func(target string, pos int64, r StoredRow) error

// ForEachStored calls fn for every row the manager stores with commit epoch
// in (lo, hi]: container by container in ID order, positions ascending, then
// the WOS. The container set, the WOS rows and the WOS delete vector are
// captured under one lock, so a concurrent moveout cannot show a row twice or
// not at all. Rows handed to fn may be kept.
func (m *Manager) ForEachStored(lo, hi types.Epoch, fn StoredFunc) error {
	m.mu.RLock()
	containers := m.containersLocked()
	wos, wosDVs := m.wos.Snapshot(hi), m.dvs.Get(WOSTarget)
	m.mu.RUnlock()
	for _, r := range containers {
		if r.Meta.MinEpoch > hi || r.Meta.MaxEpoch <= lo {
			continue
		}
		if err := m.ContainerRows(r, lo, hi, fn); err != nil {
			return err
		}
	}
	return wosStored(wos, wosDVs, lo, fn)
}

// WOSRows is ForEachStored over the WOS alone: moveout's input.
func (m *Manager) WOSRows(hi types.Epoch, fn StoredFunc) error {
	m.mu.RLock()
	wos, wosDVs := m.wos.Snapshot(hi), m.dvs.Get(WOSTarget)
	m.mu.RUnlock()
	return wosStored(wos, wosDVs, 0, fn)
}

func wosStored(wos []WOSRow, dvs []DVEntry, lo types.Epoch, fn StoredFunc) error {
	dv := dvCursor{entries: dvs}
	for _, wr := range wos {
		if wr.Epoch <= lo {
			continue
		}
		if err := fn(WOSTarget, wr.Pos, StoredRow{Row: wr.Row, Epoch: wr.Epoch, Deleted: dv.at(wr.Pos)}); err != nil {
			return err
		}
	}
	return nil
}

// ContainerRows is ForEachStored over one container: the row form of
// StoredBatches.
func (m *Manager) ContainerRows(r *ContainerReader, lo, hi types.Epoch, fn StoredFunc) error {
	next := m.StoredBatches(r)
	var pos int64
	for {
		b, err := next()
		if b == nil || err != nil {
			return err
		}
		nUser := b.NumCols() - 2
		epochs, dels := b.Cols[nUser].Ints, b.Cols[nUser+1].Ints
		// One value slab per block; rows are slices of it.
		rows := (&vector.Batch{Cols: b.Cols[:nUser]}).Rows()
		for i, e := range epochs {
			if e := types.Epoch(e); e > lo && e <= hi {
				if err := fn(r.Meta.ID, pos+int64(i), StoredRow{Row: rows[i], Epoch: e, Deleted: types.Epoch(dels[i])}); err != nil {
					return err
				}
			}
		}
		pos += int64(len(epochs))
	}
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
