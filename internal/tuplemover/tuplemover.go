// Package tuplemover implements the automatic storage-rearrangement service
// of paper §4: moveout (asynchronously draining the WOS into new ROS
// containers) and mergeout (merging small ROS containers into exponentially
// larger strata, eliding rows deleted before the Ancient History Mark).
//
// Design points carried over from the paper:
//
//   - WOS and ROS data are never intermixed in one operation, strongly
//     bounding how many times a tuple is (re)merged;
//   - output containers land in a stratum at least one larger than any
//     input, so a tuple is rewritten at most once per stratum;
//   - containers never exceed a configured maximum size, bounding the
//     number of strata and thus of merges;
//   - merges preserve partition and local-segment boundaries;
//   - operations are per-node and never centrally coordinated.
package tuplemover

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/dc"
	"repro/internal/storage"
	"repro/internal/txn"
	"repro/internal/types"
	"repro/internal/vector"
)

// Config wires a tuple mover to one projection's storage on one node.
type Config struct {
	Mgr    *storage.Manager
	Epochs *txn.EpochManager
	// Place decides which container a row lands in and what it looks like:
	// sort key, stored columns, partition and local-segment functions.
	Place *storage.Placement

	// StrataBase is the size (bytes) of the smallest mergeout stratum.
	StrataBase int64
	// Collector receives moveout/mergeout events for the Data Collector's
	// v_monitor.dc_tuple_mover_events stream. Nil disables recording.
	Collector *dc.Collector
}

// TupleMover runs moveout and mergeout for one projection on one node.
// A mutex serializes cycles: the tuple mover's T lock is compatible with
// itself, so two concurrent RunTupleMover calls could otherwise merge the
// same inputs twice.
type TupleMover struct {
	mu  sync.Mutex
	cfg Config
}

// New validates the configuration and returns a tuple mover.
func New(cfg Config) (*TupleMover, error) {
	if cfg.Mgr == nil || cfg.Epochs == nil || cfg.Place == nil {
		return nil, fmt.Errorf("tuplemover: Mgr, Epochs and Place are required")
	}
	if cfg.StrataBase <= 0 {
		cfg.StrataBase = 4 << 10
	}
	return &TupleMover{cfg: cfg}, nil
}

// Moveout drains every WOS row committed at or before the current epoch into
// new ROS containers (one per partition x local segment), translates WOS
// delete vectors to container positions, persists them, and advances the
// projection's Last Good Epoch. It returns the number of rows moved.
//
// Moveout runs concurrently with inserts (T and I locks are compatible) and
// lock-free readers: it takes views of the WOS, writes containers outside any
// lock, then publishes containers + translated delete vectors and drains
// the viewed WOS prefix in one atomic Manager.CommitMoveout — a reader
// always sees each row in exactly one store.
func (tm *TupleMover) Moveout() (int, error) {
	tm.mu.Lock()
	defer tm.mu.Unlock()
	return tm.moveout()
}

func (tm *TupleMover) moveout() (int, error) {
	cfg := &tm.cfg
	start := time.Now()
	bound := cfg.Epochs.Current()
	batches, through := cfg.Mgr.WOSBatches(bound)
	commit := storage.MoveoutCommit{DVs: map[string][]storage.DVEntry{}, DrainThrough: through}
	rows := vector.NumRows(batches)
	if rows == 0 {
		cfg.Epochs.SetLGE(cfg.Place.Projection, bound)
		return 0, nil
	}
	written, err := cfg.Place.WriteBatches(cfg.Mgr, batches)
	if err != nil {
		return 0, fmt.Errorf("tuplemover: %w", err)
	}
	for _, w := range written {
		commit.Metas = append(commit.Metas, w.Meta)
		if len(w.DVs) > 0 {
			commit.DVs[w.Meta.ID] = w.DVs
		}
	}
	// WOS delete vectors of the drained prefix moved with their rows; only
	// those of rows beyond it stay. The X/T lock conflict guarantees no
	// delete commits during a mover cycle, so the set is still exact at
	// commit time.
	for _, e := range cfg.Mgr.DVs().Get(storage.WOSTarget) {
		if e.Pos > commit.DrainThrough {
			commit.WOSRemaining = append(commit.WOSRemaining, e)
		}
	}
	if err := cfg.Mgr.CommitMoveout(commit); err != nil {
		cfg.Mgr.Discard(written)
		return 0, err
	}
	for id := range commit.DVs {
		if err := cfg.Mgr.DVs().Persist(id); err != nil {
			return rows, err
		}
	}
	cfg.Epochs.SetLGE(cfg.Place.Projection, bound)
	// Only cycles that actually wrote containers are recorded: an idle
	// mover polling an empty WOS would otherwise flood the ring.
	cfg.Collector.RecordMover(dc.MoverEvent{
		Op:         "moveout",
		Projection: cfg.Place.Projection,
		Containers: len(written),
		Rows:       int64(rows),
		Duration:   time.Since(start),
	})
	return rows, nil
}

// MoveoutDeleteVectors persists in-memory (DVWOS) delete vectors to DVROS
// files; the paper moves delete vectors through the same WOS->ROS lifecycle
// as data.
func (tm *TupleMover) MoveoutDeleteVectors() error {
	dvs := tm.cfg.Mgr.DVs()
	for _, target := range dvs.MemTargets() {
		if target == storage.WOSTarget {
			continue // translated by Moveout, not persisted as-is
		}
		if err := dvs.Persist(target); err != nil {
			return err
		}
	}
	return nil
}

// Stratum returns the exponential stratum index of a container size:
// sizes in [0, base) are stratum 0, [base, 2*base) stratum 1, and so on.
func (tm *TupleMover) Stratum(size int64) int {
	s := 0
	for size >= tm.cfg.StrataBase {
		size /= 2
		s++
	}
	return s
}

// minMergeCount is how many containers of one stratum a mergeout takes at
// least: the paper's "at least two".
const minMergeCount = 2

// mergeGroup identifies containers eligible to merge together: same
// partition and local segment (boundaries are preserved, §4).
type mergeGroup struct {
	part string
	seg  int
}

// Mergeout performs one round of merging: within each (partition, local
// segment) group it finds the lowest stratum holding at least minMergeCount
// containers and merges those containers into one, eliding rows deleted at
// or before the AHM. Returns the number of merge operations performed.
func (tm *TupleMover) Mergeout() (int, error) {
	tm.mu.Lock()
	defer tm.mu.Unlock()
	return tm.mergeout()
}

func (tm *TupleMover) mergeout() (int, error) {
	cfg := &tm.cfg
	ahm := cfg.Epochs.AHM()
	groups := map[mergeGroup][]*storage.ContainerReader{}
	for _, r := range cfg.Mgr.Containers() {
		k := mergeGroup{r.Meta.Partition, r.Meta.LocalSegment}
		groups[k] = append(groups[k], r)
	}
	gks := make([]mergeGroup, 0, len(groups))
	for k := range groups {
		gks = append(gks, k)
	}
	sort.Slice(gks, func(i, j int) bool {
		if gks[i].part != gks[j].part {
			return gks[i].part < gks[j].part
		}
		return gks[i].seg < gks[j].seg
	})
	merges := 0
	for _, k := range gks {
		inputs := tm.pickMergeInputs(groups[k])
		if len(inputs) < minMergeCount {
			continue
		}
		if err := tm.mergeContainers(inputs, k.part, k.seg, ahm); err != nil {
			return merges, err
		}
		merges++
	}
	return merges, nil
}

// pickMergeInputs chooses the containers of the lowest stratum with at least
// minMergeCount members, capping combined size at MaxROSBytes.
func (tm *TupleMover) pickMergeInputs(rs []*storage.ContainerReader) []*storage.ContainerReader {
	byStratum := map[int][]*storage.ContainerReader{}
	for _, r := range rs {
		s := tm.Stratum(r.Meta.SizeBytes)
		byStratum[s] = append(byStratum[s], r)
	}
	strata := make([]int, 0, len(byStratum))
	for s := range byStratum {
		strata = append(strata, s)
	}
	sort.Ints(strata)
	for _, s := range strata {
		cand := byStratum[s]
		if len(cand) < minMergeCount {
			continue
		}
		sort.Slice(cand, func(i, j int) bool { return cand[i].Meta.SizeBytes < cand[j].Meta.SizeBytes })
		var out []*storage.ContainerReader
		var total int64
		for _, r := range cand {
			if total+r.Meta.SizeBytes > tm.cfg.Mgr.MaxROSBytes() && len(out) >= minMergeCount {
				break
			}
			out = append(out, r)
			total += r.Meta.SizeBytes
		}
		if len(out) >= minMergeCount {
			return out
		}
	}
	return nil
}

// mergeContainers merges the inputs into one container of the next merge
// level: the one merger over each input's block stream, holding a decoded
// block per input, with rows deleted at or before the AHM dropped by a
// selection on the way to the writer. The inputs go in container-ID order,
// the order they were written in, so rows with equal keys leave in that
// order whatever order the inputs were picked in.
func (tm *TupleMover) mergeContainers(inputs []*storage.ContainerReader, part string, seg int, ahm types.Epoch) error {
	cfg := &tm.cfg
	start := time.Now()
	var inBytes int64
	maxLevel := 0
	sort.Slice(inputs, func(i, j int) bool { return inputs[i].Meta.ID < inputs[j].Meta.ID })
	ids := make([]string, len(inputs))
	srcs := make([]vector.Stream, len(inputs))
	for i, in := range inputs {
		ids[i] = in.Meta.ID
		inBytes += in.Meta.SizeBytes
		maxLevel = max(maxLevel, in.Meta.MergeLevel)
		srcs[i] = cfg.Mgr.StoredBatches(in)
	}
	merger := vector.NewMerger(vector.KeySpecs(cfg.Place.SortKey), srcs...)
	deleted := len(cfg.Place.Cols) // the stored batch's delete-epoch column
	merged := func() (*vector.Batch, error) {
		b, err := merger.Next()
		if b == nil || err != nil {
			return nil, err
		}
		// "Whenever the tuple mover observes a row deleted prior to the
		// AHM, it elides the row from the output" (§5.1).
		sel := make([]int, 0, b.Len())
		for i, d := range b.Cols[deleted].Ints {
			if d == 0 || types.Epoch(d) > ahm {
				sel = append(sel, i)
			}
		}
		if len(sel) == b.Len() {
			return b, nil
		}
		return &vector.Batch{Cols: b.Cols, Sel: sel}, nil
	}
	out, err := cfg.Place.WriteRun(cfg.Mgr, part, seg, maxLevel+1, merged)
	if err != nil {
		return err
	}
	// Publish the output (with its carried-over delete vectors) and retire
	// the inputs in one atomic swap, so a concurrent scan view sees the
	// merged rows exactly once.
	if err := cfg.Mgr.SwapContainers(out.Meta, out.DVs, ids); err != nil {
		cfg.Mgr.Discard([]storage.Written{out})
		return err
	}
	if err := cfg.Mgr.DVs().Persist(out.Meta.ID); err != nil {
		return err
	}
	cfg.Collector.RecordMover(dc.MoverEvent{
		Op:         "mergeout",
		Projection: cfg.Place.Projection,
		Containers: len(inputs),
		Bytes:      inBytes,
		Duration:   time.Since(start),
	})
	return nil
}

// Run performs one tuple mover cycle: moveout, DV moveout, then repeated
// mergeout rounds until no more merges apply. It returns (rows moved out,
// merge operations performed).
func (tm *TupleMover) Run() (int, int, error) {
	tm.mu.Lock()
	defer tm.mu.Unlock()
	moved, err := tm.moveout()
	if err != nil {
		return moved, 0, err
	}
	if err := tm.MoveoutDeleteVectors(); err != nil {
		return moved, 0, err
	}
	totalMerges := 0
	for {
		n, err := tm.mergeout()
		if err != nil {
			return moved, totalMerges, err
		}
		if n == 0 {
			return moved, totalMerges, nil
		}
		totalMerges += n
	}
}
