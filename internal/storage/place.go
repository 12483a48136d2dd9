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

// This file is the one way into — and the one whole-row way out of — the ROS:
// how stored rows of one projection on one node become containers (Placement,
// Place, WriteRun), and how they are read back with their delete epochs
// (ForEachStored). Moveout, mergeout, direct load, recovery, refresh and
// rebalance differ only in where their rows come from and in how they publish
// what WriteRun returns.

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

// WriteRun writes one sorted run as a new container of mgr: next yields the
// rows in sort order until it reports false. Delete epochs become delete
// vector entries at the rows' output positions; the meta carries the rows'
// epoch range and the merge level. Nothing is published — the caller makes
// the container and its delete vector visible under its own atomicity rule
// (CommitMoveout, PublishWritten, SwapContainers) or calls Discard. A failure
// leaves no directory behind.
func (pl *Placement) WriteRun(mgr *Manager, part string, seg, level int, next func() (StoredRow, bool)) (Written, error) {
	id, dir := mgr.NewContainerID()
	meta := &ContainerMeta{
		ID: id, Projection: pl.Projection, Cols: pl.Cols,
		Partition: part, LocalSegment: seg, MergeLevel: level,
	}
	w, err := NewContainerWriter(dir, meta, WriterOpts{BlockRows: pl.BlockRows})
	if err != nil {
		return Written{}, err
	}
	var dvs []DVEntry
	var pos int64
	vals := make([]types.Value, 0, len(pl.Cols))
	for r, ok := next(); ok; r, ok = next() {
		vals = append(append(vals[:0], r.Row...), types.NewInt(int64(r.Epoch)))
		if err := w.AppendRow(vals); err != nil {
			w.Abort()
			return Written{}, err
		}
		if pos == 0 || r.Epoch < meta.MinEpoch {
			meta.MinEpoch = r.Epoch
		}
		if r.Epoch > meta.MaxEpoch {
			meta.MaxEpoch = r.Epoch
		}
		if r.Deleted != 0 {
			dvs = append(dvs, DVEntry{Pos: pos, Epoch: r.Deleted})
		}
		pos++
	}
	if _, err := w.Close(); err != nil {
		return Written{}, err
	}
	return Written{Meta: meta, DVs: dvs}, nil
}

// WriteRows places rows and writes every run, at merge level 0. It is all or
// nothing: a failure discards the containers already written.
func (pl *Placement) WriteRows(mgr *Manager, rows []StoredRow) ([]Written, error) {
	runs, err := pl.Place(rows)
	if err != nil {
		return nil, err
	}
	out := make([]Written, 0, len(runs))
	for _, run := range runs {
		i := 0
		w, err := pl.WriteRun(mgr, run.Partition, run.LocalSegment, 0, func() (StoredRow, bool) {
			if i == len(run.Rows) {
				return StoredRow{}, false
			}
			i++
			return run.Rows[i-1], true
		})
		if err != nil {
			mgr.Discard(out)
			return nil, err
		}
		out = append(out, w)
	}
	return out, nil
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

// ContainerRows is ForEachStored over one container.
func (m *Manager) ContainerRows(r *ContainerReader, lo, hi types.Epoch, fn StoredFunc) error {
	// Store first, retirement snapshot second: if the reader is not retired
	// at the second read, the first happened before a swap dropped its
	// entries (the order exec's scan uses).
	dv := dvCursor{entries: m.dvs.Get(r.Meta.ID)}
	if snap, retired := r.RetiredDVs(); retired {
		dv.entries = append([]DVEntry(nil), snap...)
		sort.Slice(dv.entries, func(i, j int) bool { return dv.entries[i].Pos < dv.entries[j].Pos })
	}
	nUser := len(r.Meta.Cols) - 1
	if r.Meta.ColIndex(EpochColumn) != nUser {
		return fmt.Errorf("storage: container %s does not end in the epoch column", r.Meta.ID)
	}
	iters := make([]*ColumnIter, len(r.Meta.Cols))
	for c := range iters {
		iters[c] = r.NewColumnIter(c, nil)
	}
	block := make([]*vector.Vector, len(iters))
	for {
		var first int64
		for c, it := range iters {
			v, p, err := it.Next()
			if err != nil {
				return err
			}
			if v == nil {
				if c == 0 {
					return nil
				}
				return fmt.Errorf("storage: container %s column %d is short", r.Meta.ID, c)
			}
			block[c], first = v.Expand(), p
		}
		epochs := block[nUser].Ints
		// One value slab per block; rows are slices of it.
		slab := make([]types.Value, len(epochs)*nUser)
		for c := 0; c < nUser; c++ {
			if block[c].PhysLen() != len(epochs) {
				return fmt.Errorf("storage: container %s has ragged blocks", r.Meta.ID)
			}
			for i := range epochs {
				slab[i*nUser+c] = block[c].ValueAt(i)
			}
		}
		for i := range epochs {
			e, pos := types.Epoch(epochs[i]), first+int64(i)
			if e <= lo || e > hi {
				continue
			}
			row := StoredRow{Row: slab[i*nUser : (i+1)*nUser : (i+1)*nUser], Epoch: e, Deleted: dv.at(pos)}
			if err := fn(r.Meta.ID, pos, row); err != nil {
				return err
			}
		}
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
