package storage

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"repro/internal/types"
)

// Manager owns the physical storage of one projection on one node: its ROS
// containers, WOS and delete vectors. Container layouts are private to each
// node — "while two nodes might contain the same tuples, it is common for
// them to have a different layout of ROS containers" (paper §4).
type Manager struct {
	mu  sync.RWMutex
	dir string

	schema        *types.Schema // projection columns + implicit $epoch last
	nextID        int64
	containers    map[string]*ContainerReader
	wos           *WOS
	dvs           *DVStore
	localSegments int
	maxROSBytes   int64
}

// ManagerOpts configures a projection storage manager.
type ManagerOpts struct {
	WOSMaxBytes   int64
	LocalSegments int   // intra-node local segments (paper §3.6); default 3
	MaxROSBytes   int64 // mergeout output cap (the paper's 2TB); default 1<<40
}

// NewManager creates (or reopens) the storage for one projection under dir.
// schema is the projection's user-visible schema; the implicit epoch column
// is managed internally.
func NewManager(dir string, schema *types.Schema, opts ManagerOpts) (*Manager, error) {
	if opts.LocalSegments <= 0 {
		opts.LocalSegments = 3
	}
	if opts.MaxROSBytes <= 0 {
		opts.MaxROSBytes = 1 << 40
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	dvs, err := NewDVStore(filepath.Join(dir, "dv"))
	if err != nil {
		return nil, err
	}
	m := &Manager{
		dir:           dir,
		schema:        schema,
		containers:    map[string]*ContainerReader{},
		wos:           NewWOS(schema, opts.WOSMaxBytes),
		dvs:           dvs,
		localSegments: opts.LocalSegments,
		maxROSBytes:   opts.MaxROSBytes,
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	for _, e := range ents {
		if !e.IsDir() || !strings.HasPrefix(e.Name(), "ros_") {
			continue
		}
		if strings.HasSuffix(e.Name(), ".tmp") {
			os.RemoveAll(filepath.Join(dir, e.Name())) // crash leftovers
			continue
		}
		r, err := OpenContainer(filepath.Join(dir, e.Name()))
		if err != nil {
			return nil, fmt.Errorf("storage: reopening %s: %w", e.Name(), err)
		}
		m.containers[r.Meta.ID] = r
		var seq int64
		if _, err := fmt.Sscanf(r.Meta.ID, "ros_%d", &seq); err == nil && seq >= m.nextID {
			m.nextID = seq + 1
		}
	}
	return m, nil
}

// Schema returns the projection schema (without the implicit epoch column).
func (m *Manager) Schema() *types.Schema { return m.schema }

// WOS returns the projection's write-optimized store.
func (m *Manager) WOS() *WOS { return m.wos }

// DVs returns the projection's delete-vector store.
func (m *Manager) DVs() *DVStore { return m.dvs }

// LocalSegments returns the number of intra-node local segments.
func (m *Manager) LocalSegments() int { return m.localSegments }

// MaxROSBytes returns the mergeout output size cap.
func (m *Manager) MaxROSBytes() int64 { return m.maxROSBytes }

// Dir returns the manager's root directory.
func (m *Manager) Dir() string { return m.dir }

// NewContainerID reserves the next container ID and returns (id, dir).
func (m *Manager) NewContainerID() (string, string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	id := fmt.Sprintf("ros_%08d", m.nextID)
	m.nextID++
	return id, filepath.Join(m.dir, id)
}

// retireLocked detaches a container reader: its caches are preloaded into
// memory and its delete vectors snapshotted, so queries whose ScanView holds
// the reader keep a consistent view after the files are deleted. Preload
// failure is tolerated — a scan needing the missing data fails exactly as
// it would have without retirement. Callers hold m.mu.
func (m *Manager) retireLocked(id string) {
	r := m.containers[id]
	if r == nil {
		return
	}
	_ = r.Preload()
	r.Retire(m.dvs.Get(id))
	delete(m.containers, id)
}

// Remove deletes containers (and their delete vectors) from disk; used by
// mergeout, rollback and partition drop. Readers are retired before their
// files are deleted: queries take no locks ("a query executing in the
// recent past needs no locks", §5), so an in-flight scan may still hold a
// removed container and must keep reading a consistent image of it.
func (m *Manager) Remove(ids ...string) error {
	m.mu.Lock()
	for _, id := range ids {
		m.retireLocked(id)
	}
	m.mu.Unlock()
	for _, id := range ids {
		if err := os.RemoveAll(filepath.Join(m.dir, id)); err != nil {
			return err
		}
		if err := m.dvs.Drop(id); err != nil {
			return err
		}
	}
	return nil
}

// MoveoutCommit is the atomic publication step of a moveout: the containers
// written from a WOS snapshot, the delete vectors translated to container
// positions, the WOS prefix to drain, and the WOS delete vectors that
// survive (they reference rows beyond the drained prefix).
type MoveoutCommit struct {
	Metas        []*ContainerMeta
	DVs          map[string][]DVEntry
	DrainThrough int64 // highest WOS position covered by Metas
	WOSRemaining []DVEntry
}

// CommitMoveout atomically swaps a WOS prefix for its ROS containers:
// registration of the new containers (and their translated delete vectors)
// and the WOS drain happen under one lock, so no ScanView can observe the
// moved rows in both stores or in neither.
func (m *Manager) CommitMoveout(c MoveoutCommit) error {
	readers := make([]*ContainerReader, len(c.Metas))
	for i, meta := range c.Metas {
		r, err := OpenContainer(filepath.Join(m.dir, meta.ID))
		if err != nil {
			return err
		}
		readers[i] = r
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for id, entries := range c.DVs {
		m.dvs.Add(id, entries)
	}
	for i, meta := range c.Metas {
		m.containers[meta.ID] = readers[i]
	}
	m.wos.DrainThrough(c.DrainThrough)
	m.dvs.Rewrite(WOSTarget, c.WOSRemaining)
	return nil
}

// SwapContainers atomically replaces merge inputs with the merged output:
// the output container and its delete vectors become visible in the same
// critical section that retires the inputs, so no ScanView can double-count
// (or miss) the merged rows. Input files are deleted only after retirement
// preloaded them for in-flight scans. With no inputs to retire it is the
// plain publication of one container with its delete vector.
func (m *Manager) SwapContainers(meta *ContainerMeta, outDVs []DVEntry, removeIDs []string) error {
	r, err := OpenContainer(filepath.Join(m.dir, meta.ID))
	if err != nil {
		return err
	}
	m.mu.Lock()
	m.dvs.Add(meta.ID, outDVs)
	m.containers[meta.ID] = r
	for _, id := range removeIDs {
		m.retireLocked(id)
	}
	m.mu.Unlock()
	for _, id := range removeIDs {
		if err := os.RemoveAll(filepath.Join(m.dir, id)); err != nil {
			return err
		}
		if err := m.dvs.Drop(id); err != nil {
			return err
		}
	}
	return nil
}

// ScanView is an atomic snapshot of the stores a scan reads at a snapshot
// epoch: the containers born by then, sorted by ID, and the WOS rows
// committed by then. The worker scans of a fan share one (exec/fan.go), so
// none is split at plan time.
type ScanView struct {
	Containers []*ContainerReader
	WOS        *WOSView // nil when the snapshot sees no WOS row
}

// WOSView is the WOS at a snapshot: views of its rows, one per chunk, and
// the sorted positions of those deleted by then.
type WOSView struct {
	Chunks  []WOSChunk
	Deleted []int64
}

// ScanView captures containers, visible WOS rows and WOS delete vectors
// under one lock, so a concurrent moveout commit can never be observed
// half-applied (rows present in neither store — or in both).
func (m *Manager) ScanView(epoch types.Epoch) *ScanView {
	m.mu.RLock()
	defer m.mu.RUnlock()
	all := m.containersLocked()
	visible := all[:0]
	for _, r := range all {
		if r.Meta.MinEpoch <= epoch {
			visible = append(visible, r)
		}
	}
	view := &ScanView{Containers: visible}
	if chunks := m.wos.Chunks(epoch); len(chunks) > 0 {
		view.WOS = &WOSView{Chunks: chunks, Deleted: m.dvs.DeletedAt(WOSTarget, epoch)}
	}
	return view
}

// Containers returns a stable-ordered snapshot of current container readers.
func (m *Manager) Containers() []*ContainerReader {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.containersLocked()
}

func (m *Manager) containersLocked() []*ContainerReader {
	out := make([]*ContainerReader, 0, len(m.containers))
	for _, r := range m.containers {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Meta.ID < out[j].Meta.ID })
	return out
}

// RowCount returns the total ROS row count (not excluding deleted rows).
func (m *Manager) RowCount() int64 {
	var n int64
	for _, r := range m.Containers() {
		n += r.Meta.RowCount
	}
	return n
}

// TotalBytes returns total encoded bytes across containers.
func (m *Manager) TotalBytes() int64 {
	var n int64
	for _, r := range m.Containers() {
		n += r.Meta.SizeBytes
	}
	return n
}

// DropPartition removes every container whose partition key matches —
// the paper's "fast bulk deletion ... as simple as deleting files from a
// filesystem" (§3.5). Returns the number of rows dropped.
func (m *Manager) DropPartition(key string) (int64, error) {
	var ids []string
	var rows int64
	for _, r := range m.Containers() {
		if r.Meta.Partition == key {
			ids = append(ids, r.Meta.ID)
			rows += r.Meta.RowCount
		}
	}
	if err := m.Remove(ids...); err != nil {
		return 0, err
	}
	return rows, nil
}

// SnapshotHardlink hard-links every container file into destDir — the
// paper's backup mechanism (§5.2): "creates hard-links for each Vertica data
// file on the file system" so files cannot vanish while the backup is copied.
func (m *Manager) SnapshotHardlink(destDir string) error {
	if err := os.MkdirAll(destDir, 0o755); err != nil {
		return err
	}
	for _, r := range m.Containers() {
		cdir := filepath.Join(destDir, r.Meta.ID)
		if err := os.MkdirAll(cdir, 0o755); err != nil {
			return err
		}
		ents, err := os.ReadDir(r.Dir)
		if err != nil {
			return err
		}
		for _, e := range ents {
			src := filepath.Join(r.Dir, e.Name())
			dst := filepath.Join(cdir, e.Name())
			if err := os.Link(src, dst); err != nil {
				return err
			}
		}
	}
	return nil
}
