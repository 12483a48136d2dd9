package storage

import (
	"fmt"
	"os"
	"sort"
	"sync"

	"repro/internal/encoding"
	"repro/internal/vector"
)

// ContainerReader provides columnar access to one immutable ROS container:
// sequential block iteration with min/max pruning, and random access by
// implicit position ("complete tuples are reconstructed by fetching values
// with the same position from each column file", paper §3.7).
//
// Readers are shared between concurrent scans; the lazy per-column caches
// are guarded by a mutex. A reader whose container is replaced by mergeout
// (or dropped) is Retired first: its caches are fully preloaded and its
// delete vectors snapshotted, so scans that resolved the reader before the
// swap keep working after the files are gone.
type ContainerReader struct {
	Dir  string
	Meta *ContainerMeta

	mu   sync.Mutex
	pidx [][]PidxEntry // lazily loaded per column
	data [][]byte      // lazily loaded per column (whole file)

	retired    bool
	retiredDVs []DVEntry // delete vectors snapshotted at retirement
}

// OpenContainer opens a container directory for reading.
func OpenContainer(dir string) (*ContainerReader, error) {
	meta, err := ReadMeta(dir)
	if err != nil {
		return nil, err
	}
	return &ContainerReader{
		Dir:  dir,
		Meta: meta,
		pidx: make([][]PidxEntry, len(meta.Cols)),
		data: make([][]byte, len(meta.Cols)),
	}, nil
}

// Pidx returns the position index of column c, loading it on first use.
func (r *ContainerReader) Pidx(c int) ([]PidxEntry, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.pidxLocked(c)
}

func (r *ContainerReader) pidxLocked(c int) ([]PidxEntry, error) {
	if r.pidx[c] == nil {
		p, err := readPidx(r.Meta.pidxPath(r.Dir, c), r.Meta.Cols[c].Typ)
		if err != nil {
			return nil, err
		}
		if p == nil {
			p = []PidxEntry{}
		}
		r.pidx[c] = p
	}
	return r.pidx[c], nil
}

func (r *ContainerReader) colData(c int) ([]byte, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.colDataLocked(c)
}

func (r *ContainerReader) colDataLocked(c int) ([]byte, error) {
	if r.data[c] == nil {
		b, err := os.ReadFile(r.Meta.dataPath(r.Dir, c))
		if err != nil {
			return nil, err
		}
		if b == nil {
			b = []byte{}
		}
		r.data[c] = b
	}
	return r.data[c], nil
}

// Preload reads every column's position index and data file into the cache,
// so the reader stays usable after its files are deleted.
func (r *ContainerReader) Preload() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	for c := range r.Meta.Cols {
		if _, err := r.pidxLocked(c); err != nil {
			return err
		}
		if _, err := r.colDataLocked(c); err != nil {
			return err
		}
	}
	return nil
}

// Retire marks the reader as detached from the storage manager, carrying a
// snapshot of its delete vectors taken at the swap point. In-flight scans
// that resolved this reader before the swap read the snapshot instead of
// the (since dropped) DV store entries.
func (r *ContainerReader) Retire(dvs []DVEntry) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.retired = true
	r.retiredDVs = dvs
}

// RetiredDVs returns the delete-vector snapshot taken at retirement and
// whether the reader has been retired.
func (r *ContainerReader) RetiredDVs() ([]DVEntry, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.retiredDVs, r.retired
}

// BlockFilter decides whether a block may be skipped given its min/max.
// Returning false prunes the block.
type BlockFilter func(e *PidxEntry) bool

// ColumnIter iterates the blocks of one column in position order.
type ColumnIter struct {
	r      *ContainerReader
	col    int
	next   int
	filter BlockFilter
	// PreserveRuns requests RLE-form vectors for RLE blocks so operators can
	// work on encoded data directly.
	PreserveRuns bool
}

// NewColumnIter returns an iterator over column c's blocks. filter may be nil.
func (r *ContainerReader) NewColumnIter(c int, filter BlockFilter) *ColumnIter {
	return &ColumnIter{r: r, col: c, filter: filter}
}

// Next returns the next unpruned block and its first implicit position, or
// (nil, 0, nil) at end of column.
func (it *ColumnIter) Next() (*vector.Vector, int64, error) {
	pidx, err := it.r.Pidx(it.col)
	if err != nil {
		return nil, 0, err
	}
	for it.next < len(pidx) {
		e := &pidx[it.next]
		it.next++
		if it.filter != nil && !it.filter(e) {
			continue
		}
		v, err := it.r.DecodeBlock(it.col, e, it.PreserveRuns)
		if err != nil {
			return nil, 0, err
		}
		return v, e.FirstPos, nil
	}
	return nil, 0, nil
}

// SkipTo positions the iterator at the block containing position p (or the
// first later block).
func (it *ColumnIter) SkipTo(p int64) error {
	pidx, err := it.r.Pidx(it.col)
	if err != nil {
		return err
	}
	it.next = sort.Search(len(pidx), func(i int) bool {
		return pidx[i].FirstPos+pidx[i].RowCount > p
	})
	return nil
}

// DecodeBlock returns the decoded block a position-index entry of column c
// describes, through the shared block cache: the vector is read-only. It is
// random access for a caller that already holds the column's index;
// ColumnIter walks a column with it.
func (r *ContainerReader) DecodeBlock(c int, e *PidxEntry, preserveRuns bool) (*vector.Vector, error) {
	key := blockKey{r: r, col: c, offset: e.Offset, preserveRuns: preserveRuns}
	if v, ok := sharedBlockCache.get(key); ok {
		return v, nil
	}
	data, err := r.colData(c)
	if err != nil {
		return nil, err
	}
	if e.Offset+e.Length > int64(len(data)) {
		return nil, fmt.Errorf("storage: block out of range in %s col %d", r.Dir, c)
	}
	v, err := encoding.DecodeBlock(data[e.Offset:e.Offset+e.Length], r.Meta.Cols[c].Typ, preserveRuns)
	if err != nil {
		return nil, err
	}
	// Scan consumers treat decoded vectors as read-only, so the container's
	// immutability makes the cached copy safe to share across queries.
	sharedBlockCache.put(key, v)
	return v, nil
}
