package storage

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"repro/internal/types"
)

// Delete vectors (paper §3.7.1): data is never modified in place; a delete
// or update creates a delete vector — a list of (position, delete-epoch)
// pairs naming rows of a specific target (the WOS or one ROS container).
// Delete vectors follow the same lifecycle as data: they are born in memory
// (DVWOS) and the tuple mover persists them to disk (DVROS).

// WOSTarget is the delete-vector target naming the projection's WOS.
const WOSTarget = "$wos"

// DVEntry marks one deleted row.
type DVEntry struct {
	Pos   int64
	Epoch types.Epoch // epoch in which the delete committed
}

// DeleteVector is a sorted-by-position list of deleted rows for one target.
type DeleteVector struct {
	Target  string // WOSTarget or a ROS container ID
	Entries []DVEntry
}

// DVStore manages delete vectors for one projection on one node. In-memory
// entries are the DVWOS; Persist writes DVROS files alongside the containers.
type DVStore struct {
	mu  sync.RWMutex
	dir string
	// mem holds unpersisted entries; disk holds loaded DVROS entries.
	mem  map[string][]DVEntry
	disk map[string][]DVEntry
}

// NewDVStore creates (or reopens) the delete-vector store rooted at dir.
func NewDVStore(dir string) (*DVStore, error) {
	s := &DVStore{dir: dir, mem: map[string][]DVEntry{}, disk: map[string][]DVEntry{}}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	for _, e := range ents {
		if e.IsDir() || filepath.Ext(e.Name()) != ".dv" {
			continue
		}
		target, entries, err := readDVFile(filepath.Join(dir, e.Name()))
		if err != nil {
			return nil, err
		}
		s.disk[target] = entries
	}
	return s, nil
}

// Add records deletions against a target (in the DVWOS).
func (s *DVStore) Add(target string, entries []DVEntry) {
	if len(entries) == 0 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.mem[target] = append(s.mem[target], entries...)
}

// Get returns all delete entries for a target (memory + disk), sorted by
// position.
func (s *DVStore) Get(target string) []DVEntry {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if len(s.mem[target])+len(s.disk[target]) == 0 {
		return nil // the common case on a scan's path: nothing to copy or sort
	}
	out := make([]DVEntry, 0, len(s.mem[target])+len(s.disk[target]))
	out = append(out, s.disk[target]...)
	out = append(out, s.mem[target]...)
	sort.Slice(out, func(i, j int) bool { return out[i].Pos < out[j].Pos })
	return out
}

// DeletedAt returns the sorted positions of rows in target deleted at or
// before the snapshot epoch — the set a scan at that epoch must hide.
func (s *DVStore) DeletedAt(target string, epoch types.Epoch) []int64 {
	all := s.Get(target)
	out := make([]int64, 0, len(all))
	for _, e := range all {
		if e.Epoch <= epoch {
			out = append(out, e.Pos)
		}
	}
	return out
}

// MemTargets returns the targets that have unpersisted entries.
func (s *DVStore) MemTargets() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, 0, len(s.mem))
	for t := range s.mem {
		out = append(out, t)
	}
	sort.Strings(out)
	return out
}

// Persist merges a target's in-memory entries into its DVROS file (the
// DV-moveout half of the tuple mover).
func (s *DVStore) Persist(target string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	mem := s.mem[target]
	if len(mem) == 0 {
		return nil
	}
	merged := append(append([]DVEntry{}, s.disk[target]...), mem...)
	sort.Slice(merged, func(i, j int) bool { return merged[i].Pos < merged[j].Pos })
	if err := writeDVFile(s.path(target), target, merged); err != nil {
		return err
	}
	s.disk[target] = merged
	delete(s.mem, target)
	return nil
}

// Drop removes all delete vectors for a target (when its container is
// removed by mergeout or partition drop).
func (s *DVStore) Drop(target string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.mem, target)
	delete(s.disk, target)
	err := os.Remove(s.path(target))
	if err != nil && !os.IsNotExist(err) {
		return err
	}
	return nil
}

// Rewrite replaces a target's delete vectors wholesale (used by moveout to
// translate WOS positions into container positions).
func (s *DVStore) Rewrite(target string, entries []DVEntry) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.disk, target)
	if len(entries) == 0 {
		delete(s.mem, target)
		os.Remove(s.path(target))
		return
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].Pos < entries[j].Pos })
	s.mem[target] = entries
	os.Remove(s.path(target))
}

func (s *DVStore) path(target string) string {
	return filepath.Join(s.dir, sanitize(target)+".dv")
}

// DV file format: uvarint targetLen + target bytes, uvarint count, then per
// entry varint pos, uvarint epoch.
func writeDVFile(path, target string, entries []DVEntry) error {
	buf := binary.AppendUvarint(nil, uint64(len(target)))
	buf = append(buf, target...)
	buf = binary.AppendUvarint(buf, uint64(len(entries)))
	for _, e := range entries {
		buf = binary.AppendUvarint(buf, uint64(e.Pos))
		buf = binary.AppendUvarint(buf, uint64(e.Epoch))
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, buf, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

func readDVFile(path string) (string, []DVEntry, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return "", nil, err
	}
	tl, n := binary.Uvarint(b)
	if n <= 0 || int(tl)+n > len(b) {
		return "", nil, fmt.Errorf("storage: corrupt dv file %s", path)
	}
	pos := n
	target := string(b[pos : pos+int(tl)])
	pos += int(tl)
	cnt, n := binary.Uvarint(b[pos:])
	if n <= 0 {
		return "", nil, fmt.Errorf("storage: corrupt dv file %s", path)
	}
	pos += n
	entries := make([]DVEntry, 0, cnt)
	for i := uint64(0); i < cnt; i++ {
		p, n := binary.Uvarint(b[pos:])
		if n <= 0 {
			return "", nil, fmt.Errorf("storage: corrupt dv file %s", path)
		}
		pos += n
		ep, n := binary.Uvarint(b[pos:])
		if n <= 0 {
			return "", nil, fmt.Errorf("storage: corrupt dv file %s", path)
		}
		pos += n
		entries = append(entries, DVEntry{Pos: int64(p), Epoch: types.Epoch(ep)})
	}
	return target, entries, nil
}
