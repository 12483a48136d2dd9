package exec

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/expr"
	"repro/internal/storage"
	"repro/internal/types"
	"repro/internal/vector"
)

// Scan reads a projection's ROS containers (and WOS) at the query's snapshot
// epoch, applying predicates "in the most advantageous manner possible"
// (paper §6.1): per-block min/max pruning from the position index, late
// materialization of non-predicate columns, run-preserving decode of RLE
// blocks, and SIP filters installed by downstream joins.
type Scan struct {
	Projection string
	Mgr        *storage.Manager
	// Columns are projection-schema column indexes to output, in order.
	Columns []int
	// Predicate is over the scan's OUTPUT columns (already remapped).
	Predicate expr.Expr
	// SIPs are sideways-information-passing filters (see sip.go), evaluated
	// against output columns once their join builds are ready, before the
	// columns they do not read decode.
	SIPs []*SIPFilter
	// MergeSorted presents rows globally sorted by SortKey by heap-merging
	// container streams (used under merge joins and one-pass aggregation).
	MergeSorted bool
	// SortKey is the projection sort order as output column indexes
	// (required when MergeSorted).
	SortKey []int
	// PreserveRuns requests RLE-form vectors where possible.
	PreserveRuns bool

	schema *types.Schema
	// The predicate as a block answers it, compiled at Open (docs/
	// ARCHITECTURE.md, "How the scan filters"): pruners skip blocks by
	// min/max, keyBounds become a row range by binary search in the sorted
	// key block, selector narrows it with kernels and the Eval fallback.
	// wosSelector is every conjunct, for the unsorted WOS: the selector
	// when there are no key bounds, else compiled by the first WOS view.
	pruners     []expr.ColConst
	keyBounds   []expr.ColConst
	selector    *expr.Selector
	wosSelector *expr.Selector
	colNames    []string // storage name of each output column
	// Per-block scratch, reused across blocks and containers and dropped at
	// Close: each output column's decoded block, the selection every filter
	// step narrows in place (an emitted batch's Sel, on loan with it; from
	// selBufs, and back to it at Close), and the key hashes of the SIP
	// filters.
	blockCols []*vector.Vector
	selBuf    []int
	sipHashes []uint64
	probe     *ScanProbe
	// blockCols (the epoch block in the slot past them) stay pinned until
	// the consumer's next Next or Close; mergePins, per merged stream.
	mergePins [][]vector.Owner

	containers []*storage.ContainerReader
	wos        *storage.WOSView // the visible WOS rows, taken at Open
	wosNext    int              // the next WOS chunk view to read
	cur        int
	cs         containerScan // the open container's cursor, reused
	curState   *containerScan
	merged     *vector.Merger
	// share is the cursor the worker scans of a fan claim their blocks from
	// (fan.go); claiming is set from Open to Close.
	share    *scanShare
	claiming bool
	// singleSorted short-circuits MergeSorted when one container holds all
	// visible rows: its storage order is already the requested order.
	singleSorted bool
	prof         OpProf
}

// ScanProbe is a test seam on the ROS scan's filter step. Only tests install
// one; no option, statement or environment variable does.
type ScanProbe struct {
	// NoSeek sends sort-key conjuncts through the selection kernels instead
	// (the seek-off axis of the TLP run).
	NoSeek bool
	// KeyCompares counts sort-key values a seek compared with a constant.
	KeyCompares atomic.Int64
}

var scanProbe atomic.Pointer[ScanProbe]

// SetScanProbe installs p for every scan opened from now on; nil removes it.
func SetScanProbe(p *ScanProbe) { scanProbe.Store(p) }

// NewScan builds a scan over the given projection columns.
func NewScan(projection string, mgr *storage.Manager, schema *types.Schema, cols []int) *Scan {
	out := make([]types.Column, len(cols))
	for i, c := range cols {
		out[i] = schema.Col(c)
	}
	return &Scan{
		Projection: projection,
		Mgr:        mgr,
		Columns:    cols,
		schema:     types.NewSchema(out...),
	}
}

// Schema implements Operator.
func (s *Scan) Schema() *types.Schema { return s.schema }

// Describe implements Operator.
func (s *Scan) Describe() string {
	var parts []string
	parts = append(parts, fmt.Sprintf("Scan %s cols=%v", s.Projection, s.schema.Names()))
	if s.Predicate != nil {
		parts = append(parts, "filter="+s.Predicate.String())
	}
	for _, sip := range s.SIPs {
		parts = append(parts, "sip="+sip.Describe())
	}
	if s.MergeSorted {
		parts = append(parts, "merge-sorted")
	}
	return strings.Join(parts, " ")
}

// Children implements the plan-walk interface (scans are leaves).
func (s *Scan) Children() []Operator { return nil }

// Open implements Operator.
func (s *Scan) Open(ctx *Ctx) error {
	if err := s.compileFilter(); err != nil {
		return err
	}
	s.cur, s.curState, s.wosNext, s.singleSorted = 0, nil, 0, false
	if s.share != nil {
		if err := s.share.open(ctx, s); err != nil {
			return err
		}
		s.claiming = true
		return nil
	}
	// One atomic view of containers + WOS: a moveout committing between two
	// separate reads would show its rows in both stores or in neither.
	view := s.Mgr.ScanView(ctx.Epoch)
	s.wos, s.containers = view.WOS, view.Containers
	if s.MergeSorted {
		if len(s.containers) <= 1 && s.wos == nil {
			// A single container is already in projection sort order.
			s.singleSorted = true
			return nil
		}
		return s.openMerged(ctx)
	}
	return nil
}

// compileFilter splits the predicate's conjuncts by how a block answers
// them. Every <column> <op> <constant> prunes by min/max; those on the
// leading sort column (but for <> and a NULL constant) bound a row range,
// because every container is written sorted on SortKey; the rest select.
// In the WOS, which is not sorted, every conjunct selects.
func (s *Scan) compileFilter() error {
	s.pruners, s.keyBounds, s.selector, s.wosSelector = s.pruners[:0], s.keyBounds[:0], nil, nil
	s.probe = scanProbe.Load()
	seekCol := -1
	if len(s.SortKey) > 0 && (s.probe == nil || !s.probe.NoSeek) {
		seekCol = s.SortKey[0]
	}
	var rest []expr.Expr
	for _, c := range expr.Conjuncts(s.Predicate) {
		cc, ok := expr.AsColConst(c)
		if ok {
			s.pruners = append(s.pruners, cc)
		}
		if ok && cc.Col == seekCol && cc.Op != expr.Ne && !cc.Val.Null {
			s.keyBounds = append(s.keyBounds, cc)
		} else {
			rest = append(rest, c)
		}
	}
	for _, sip := range s.SIPs {
		for _, kc := range sip.KeyCols {
			if kc >= len(s.Columns) {
				return fmt.Errorf("exec: SIP key column %d out of range", kc)
			}
		}
	}
	if len(rest) > 0 {
		var err error
		if s.selector, err = expr.NewSelector(rest); err != nil {
			return err
		}
	}
	if len(s.keyBounds) == 0 {
		s.wosSelector = s.selector
	}
	if s.colNames == nil {
		s.colNames = make([]string, len(s.Columns))
		for i, pc := range s.Columns {
			s.colNames[i] = s.Mgr.Schema().Col(pc).Name
		}
		s.blockCols = make([]*vector.Vector, len(s.Columns)+1)
		s.cs.colIdx = make([]int, 0, len(s.Columns))
		s.cs.pidx = make([][]storage.PidxEntry, 0, len(s.Columns))
	}
	return nil
}

// Close implements Operator.
func (s *Scan) Close(*Ctx) error {
	// A kept result's plan text may hold on to the scan: drop what it read.
	s.curState, s.merged, s.containers, s.wos = nil, nil, nil, nil
	s.putScratch()
	s.cs, s.sipHashes = containerScan{}, nil
	s.dropBlocks(nil)
	for _, p := range s.mergePins {
		vector.Release(p)
	}
	s.mergePins = nil
	if s.claiming {
		s.claiming = false
		s.share.close()
	}
	return nil
}

// next is the operator body behind the profiled Next (profile.go).
func (s *Scan) next(ctx *Ctx) (*vector.Batch, error) {
	if err := ctx.Canceled(); err != nil {
		return nil, err
	}
	if s.share != nil {
		return s.nextClaimed(ctx)
	}
	if s.MergeSorted && !s.singleSorted {
		return s.merged.Next()
	}
	for {
		if s.curState == nil {
			if s.cur >= len(s.containers) {
				return s.nextWOS(ctx)
			}
			if err := s.openContainer(ctx, s.containers[s.cur], &s.cs); err != nil {
				return nil, err
			}
			s.cur++
			s.curState = &s.cs
		}
		b, err := s.curState.nextBlock(ctx, s)
		if err != nil {
			return nil, err
		}
		if b == nil {
			s.curState = nil
			continue
		}
		if b.Len() == 0 {
			continue
		}
		return b, nil
	}
}

// containerScan is the per-container cursor.
type containerScan struct {
	r         *storage.ContainerReader
	colIdx    []int // container column index per output column
	pidx      [][]storage.PidxEntry
	epochIdx  int // container epoch column, -1 when visibility is trivial
	epochPidx []storage.PidxEntry
	deleted   []int64 // sorted deleted positions at the snapshot
	block     int
	numBlocks int
	// keyNullBlocks is how many leading blocks may hold a NULL sort key:
	// NULLs sort first, so none follows a block with a non-NULL value.
	keyNullBlocks int
}

// openContainer points the cursor st (the scan's own, reused from container
// to container, or one of a merged scan's, one per container) at r.
func (s *Scan) openContainer(ctx *Ctx, r *storage.ContainerReader, st *containerScan) error {
	*st = containerScan{r: r, epochIdx: -1, colIdx: st.colIdx[:0], pidx: st.pidx[:0]}
	for _, name := range s.colNames {
		ci := r.Meta.ColIndex(name)
		if ci < 0 {
			return fmt.Errorf("exec: container %s lacks column %q", r.Meta.ID, name)
		}
		p, err := r.Pidx(ci)
		if err != nil {
			return err
		}
		st.colIdx = append(st.colIdx, ci)
		st.pidx = append(st.pidx, p)
	}
	if len(st.pidx) > 0 {
		st.numBlocks = len(st.pidx[0])
	}
	if len(s.keyBounds) > 0 {
		key := st.pidx[s.keyBounds[0].Col]
		for st.keyNullBlocks < len(key) && key[st.keyNullBlocks].Max.Null {
			st.keyNullBlocks++
		}
		st.keyNullBlocks++
	}
	// Epoch visibility: read the epoch column only when the container
	// straddles the snapshot.
	if r.Meta.MaxEpoch > ctx.Epoch {
		ei := r.Meta.ColIndex(storage.EpochColumn)
		if ei < 0 {
			return fmt.Errorf("exec: container %s lacks epoch column", r.Meta.ID)
		}
		st.epochIdx = ei
		p, err := r.Pidx(ei)
		if err != nil {
			return err
		}
		st.epochPidx = p
		if st.numBlocks == 0 {
			st.numBlocks = len(p)
		}
	}
	// Deleted positions: read the DV store first, then prefer the reader's
	// retirement snapshot. In this order a racing swap is harmless — if the
	// reader is not retired at the second check, the store read happened
	// before the swap dropped its entries.
	st.deleted = s.Mgr.DVs().DeletedAt(r.Meta.ID, ctx.Epoch)
	if dvs, retired := r.RetiredDVs(); retired {
		st.deleted = st.deleted[:0]
		for _, e := range dvs {
			if e.Epoch <= ctx.Epoch {
				st.deleted = append(st.deleted, e.Pos)
			}
		}
		sort.Slice(st.deleted, func(i, j int) bool { return st.deleted[i] < st.deleted[j] })
	}
	return nil
}

// selBufs keeps the selection buffers of closed scans for the next scans
// to take, up to maxSelBufs of them. A buffer outlives its scan's Close,
// which ends every loan of a batch the scan emitted; a consumer that keeps
// such a batch longer has Retain copy its selection. (A sync.Pool would
// do, but under -race it drops a share of what it is handed, so a scan's
// allocations would vary run to run.)
var selBufs struct {
	sync.Mutex
	free [][]int
}

const maxSelBufs = 16

// scratch returns the scan's selection buffer, at least n long. The first
// block that has to drop a row from inside its range takes one from
// selBufs, or allocates it.
func (s *Scan) scratch(n int) []int {
	if s.selBuf == nil {
		selBufs.Lock()
		if k := len(selBufs.free); k > 0 {
			s.selBuf, selBufs.free = selBufs.free[k-1], selBufs.free[:k-1]
		}
		selBufs.Unlock()
	}
	if cap(s.selBuf) < n {
		s.selBuf = make([]int, max(n, storage.DefaultBlockRows))
	}
	return s.selBuf[:cap(s.selBuf)]
}

// putScratch hands the scan's selection buffer to selBufs.
func (s *Scan) putScratch() {
	if s.selBuf == nil {
		return
	}
	selBufs.Lock()
	if len(selBufs.free) < maxSelBufs {
		selBufs.free = append(selBufs.free, s.selBuf)
	}
	selBufs.Unlock()
	s.selBuf = nil
}

// decode fetches block b of output column i into the scan's per-block
// scratch, unless a filter step already has.
func (st *containerScan) decode(s *Scan, i, b int, preserveRuns bool) (*vector.Vector, error) {
	if s.blockCols[i] == nil {
		v, err := st.r.PinBlock(st.colIdx[i], &st.pidx[i][b], preserveRuns)
		if err != nil {
			return nil, err
		}
		s.blockCols[i] = v
	}
	return s.blockCols[i], nil
}

// dropBlocks lets go of the blocks the last batch was read from, or, with
// a held, hands their pins to it.
func (s *Scan) dropBlocks(held *[]vector.Owner) {
	for i, v := range s.blockCols {
		switch {
		case v != nil && held != nil:
			*held = append(*held, v.Owner)
		case v != nil:
			v.Owner.Release()
		}
		s.blockCols[i] = nil
	}
}

// nextBlock produces the batch for the next unpruned, visible block, or nil
// when the container is exhausted.
func (st *containerScan) nextBlock(ctx *Ctx, s *Scan) (*vector.Batch, error) {
	for st.block < st.numBlocks {
		b := st.block
		st.block++
		if batch, err := st.readBlock(ctx, s, b); err != nil || batch != nil {
			return batch, err
		}
	}
	return nil, nil
}

// readBlock produces the batch of block b's rows that pass, or nil when the
// block is pruned or none does. The rows that pass are the range [lo, hi) of
// the block while sel is nil, and sel (in the scan's scratch) once a step
// drops a row from the middle; either way the batch is views of the decoded
// blocks, a selection its Sel. The cursor st is only read, so the worker
// scans of a fan share one per container.
func (st *containerScan) readBlock(ctx *Ctx, s *Scan, b int) (*vector.Batch, error) {
	s.dropBlocks(nil) // the consumer has come back for more
	for _, p := range s.pruners {
		if e := &st.pidx[p.Col][b]; !p.MayHold(e.Min, e.Max) {
			ctx.BlocksPruned.Add(1)
			return nil, nil
		}
	}
	ctx.BlocksRead.Add(1)
	entries := st.epochPidx
	if len(st.pidx) > 0 {
		entries = st.pidx[0]
	}
	firstPos, n := entries[b].FirstPos, int(entries[b].RowCount)
	// Seek: the sort-key conjuncts as a row range.
	lo, hi, err := st.keyRange(s, b, n)
	if err != nil || lo >= hi {
		return nil, err
	}
	// The other conjuncts narrow the range; the columns they read decode
	// first, the rest only if a row survives (late materialization).
	var sel []int
	if s.selector != nil {
		for _, oc := range s.selector.Columns() {
			if _, err := st.decode(s, oc, b, false); err != nil {
				return nil, err
			}
		}
		if sel, err = s.selector.Narrow(s.blockCols, nil, lo, hi, s.scratch(n)); err != nil || len(sel) == 0 {
			return nil, err
		}
		if len(sel) == hi-lo {
			sel = nil // every row of the range passed: still a range
		}
	}
	// Visibility: delete vector and epoch column narrow the same rows.
	if sel, err = st.applyVisibility(ctx, s, b, firstPos, lo, hi, sel); err != nil {
		return nil, err
	}
	if sel != nil && len(sel) == 0 {
		return nil, nil
	}
	// SIP (paper §6.1): the key columns decode next, so the rows the joins
	// would discard cost no payload decode; a block SIP empties decodes
	// nothing more.
	if s.sipLive() {
		for _, sip := range s.SIPs {
			for _, kc := range sip.KeyCols {
				if _, err := st.decode(s, kc, b, false); err != nil {
					return nil, err
				}
			}
		}
		if sel == nil {
			sel = s.scratch(n)[:hi-lo]
			for j := range sel {
				sel[j] = lo + j
			}
		}
		if sel = s.applySIPs(ctx, s.blockCols, sel); len(sel) == 0 {
			ctx.BlocksSpared.Add(1)
			return nil, nil
		}
		if len(sel) == hi-lo {
			sel = nil
		}
	}
	// Materialize the output columns; a block that passes whole may keep
	// its runs.
	whole := sel == nil && lo == 0 && hi == n
	batch := &vector.Batch{Cols: make([]*vector.Vector, len(s.Columns)), Sel: sel}
	for i := range s.Columns {
		v, err := st.decode(s, i, b, s.PreserveRuns && whole)
		if err != nil {
			return nil, err
		}
		if sel == nil && !v.IsRLE() {
			v = v.Slice(lo, hi)
		}
		batch.Cols[i] = v
	}
	ctx.RowsScanned.Add(int64(batch.Len()))
	return batch, nil
}

// sipLive reports whether some SIP filter has a join table to probe.
func (s *Scan) sipLive() bool {
	for _, sip := range s.SIPs {
		if sip.table.Load() != nil {
			return true
		}
	}
	return false
}

// applySIPs runs the SIP filters (paper §6.1) over sel, the live rows of
// cols, narrowing it in place to the rows whose keys can match their joins.
func (s *Scan) applySIPs(ctx *Ctx, cols []*vector.Vector, sel []int) []int {
	for _, sip := range s.SIPs {
		before := len(sel)
		sel, s.sipHashes = sip.Apply(cols, sel, s.sipHashes)
		ctx.SIPFiltered.Add(int64(before - len(sel)))
		if len(sel) == 0 {
			break
		}
	}
	return sel
}

// keyRange answers the sort-key conjuncts for block b of n rows as a row
// range. The block's min/max settle a bound that every value satisfies
// without reading the block; any other is a binary search in the decoded
// key block, which a scan reads anyway to emit the column. Blocks that may
// start with NULL keys skip that prefix first: a NULL satisfies no bound.
func (st *containerScan) keyRange(s *Scan, b, n int) (lo, hi int, err error) {
	lo, hi = 0, n
	if len(s.keyBounds) == 0 {
		return lo, hi, nil
	}
	kc := s.keyBounds[0].Col
	e := &st.pidx[kc][b]
	var key *vector.Vector
	probes := 0
	if b < st.keyNullBlocks {
		if key, err = st.decode(s, kc, b, false); err != nil {
			return 0, 0, err
		}
		if key.Nulls != nil {
			lo = sort.Search(n, func(i int) bool { probes++; return !key.Nulls[i] })
		}
	}
	for _, c := range s.keyBounds {
		if lo >= hi {
			break
		}
		if c.Holds(e.Min) && c.Holds(e.Max) {
			continue
		}
		if key == nil {
			if key, err = st.decode(s, kc, b, false); err != nil {
				return 0, 0, err
			}
		}
		// first is the first row of [lo, hi) whose key is >= the constant,
		// or > it when strict.
		first := func(strict bool) int {
			return lo + sort.Search(hi-lo, func(j int) bool {
				probes++
				c := c.CompareAt(key, lo+j)
				return c > 0 || (c == 0 && !strict)
			})
		}
		switch c.Op {
		case expr.Eq:
			lo = first(false)
			hi = first(true)
		case expr.Lt:
			hi = first(false)
		case expr.Le:
			hi = first(true)
		case expr.Gt:
			lo = first(true)
		case expr.Ge:
			lo = first(false)
		}
	}
	if s.probe != nil {
		s.probe.KeyCompares.Add(int64(probes))
	}
	return lo, hi, nil
}

// applyVisibility drops the rows of the range [lo, hi) — of sel, when not
// nil — that the snapshot must not see: deleted at or before it, or
// committed after it. The range stays a range (nil) when nothing is dropped.
func (st *containerScan) applyVisibility(ctx *Ctx, s *Scan, b int, firstPos int64, lo, hi int, sel []int) ([]int, error) {
	first, end := firstPos+int64(lo), firstPos+int64(hi)
	if sel != nil {
		first, end = firstPos+int64(sel[0]), firstPos+int64(sel[len(sel)-1])+1
	}
	dlo := sort.Search(len(st.deleted), func(i int) bool { return st.deleted[i] >= first })
	dhi := dlo + sort.Search(len(st.deleted)-dlo, func(i int) bool { return st.deleted[dlo+i] >= end })
	// The epoch block is read only when it holds a row newer than the snapshot.
	newer := st.epochIdx >= 0 && types.Epoch(st.epochPidx[b].Max.I) > ctx.Epoch
	if dlo == dhi && !newer {
		return sel, nil
	}
	if sel == nil {
		sel = s.scratch(hi - lo)[:hi-lo]
		for j := range sel {
			sel[j] = lo + j
		}
	}
	// Deleted positions are sorted, as the selection is: one merge.
	if del := st.deleted[dlo:dhi]; len(del) > 0 {
		m, d := 0, 0
		for _, row := range sel {
			pos := firstPos + int64(row)
			for d < len(del) && del[d] < pos {
				d++
			}
			if d == len(del) || del[d] != pos {
				sel[m] = row
				m++
			}
		}
		sel = sel[:m]
	}
	if newer && len(sel) > 0 {
		v, err := st.r.PinBlock(st.epochIdx, &st.epochPidx[b], false)
		if err != nil {
			return nil, err
		}
		s.blockCols[len(s.Columns)] = v
		m := 0
		for _, row := range sel {
			if types.Epoch(v.Ints[row]) <= ctx.Epoch {
				sel[m] = row
				m++
			}
		}
		sel = sel[:m]
	}
	if len(sel) == hi-lo {
		return nil, nil // a range went in and nothing was dropped
	}
	return sel, nil
}
