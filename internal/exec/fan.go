package exec

import (
	"fmt"
	"slices"
	"sync"

	"repro/internal/storage"
	"repro/internal/vector"
)

// Fans: intra-node parallelism at the source (paper §6.1, Figure 3: the
// StorageUnion hands storage to worker threads; the exchange "locally
// resegments" only what grouping needs). A fan is w identical worker
// pipelines — scan, filter, project, hash-join probe — run concurrently by
// the operator that closes them (a ParallelUnion, or an exchange whose
// inputs they are). The workers share only the scan's cursor, from which
// each claims a morsel at a time — a block of a container, or the WOS
// batch — and each hash join's build, which one worker makes and all probe.
// EXPLAIN and PROFILE show the workers once (profile.go: walkPlan).

// Fan returns w scans that share one cursor: together they produce what s
// alone would, each block and the WOS batch read by whichever worker claims
// it first. s is the first of them. A merge-sorted scan cannot be fanned.
func (s *Scan) Fan(w int) []Operator {
	s.share = &scanShare{}
	out := []Operator{s}
	for i := 1; i < w; i++ {
		out = append(out, &Scan{
			Projection: s.Projection, Mgr: s.Mgr, Columns: s.Columns,
			Predicate: s.Predicate, SIPs: slices.Clone(s.SIPs),
			SortKey: s.SortKey, PreserveRuns: s.PreserveRuns,
			schema: s.schema, share: s.share,
		})
	}
	return out
}

// scanShare is the cursor of a fan's worker scans.
type scanShare struct {
	mu         sync.Mutex
	opens      int              // worker scans between Open and Close
	states     []*containerScan // one per visible container, read-only once opened
	wos        []storage.WOSRow
	wosClaimed bool
	c, b       int // the next block morsel: block b of container c
}

// open joins a worker to the cursor; the first one builds it from one
// atomic view of containers and WOS, as Scan.Open does.
func (sh *scanShare) open(ctx *Ctx, s *Scan) error {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.opens > 0 {
		sh.opens++
		return nil
	}
	view := s.Mgr.ScanView(ctx.Epoch)
	states := make([]*containerScan, 0, len(view.Containers))
	for _, r := range view.Containers {
		st := &containerScan{}
		if err := s.openContainer(ctx, r, st); err != nil {
			return err
		}
		states = append(states, st)
	}
	sh.opens, sh.states, sh.wos = 1, states, view.WOSRows
	sh.wosClaimed, sh.c, sh.b = len(sh.wos) == 0, 0, 0
	return nil
}

// close lets a worker go; the last one drops what the cursor holds.
func (sh *scanShare) close() {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.opens--; sh.opens == 0 {
		sh.states, sh.wos = nil, nil
	}
}

// claim hands the calling worker its next morsel: the WOS batch first (the
// largest and slowest to produce, so it starts while the other workers
// take blocks), then block b of container cursor st. Nothing is left when
// st is nil and wos false.
func (sh *scanShare) claim() (st *containerScan, b int, wos bool) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if !sh.wosClaimed {
		sh.wosClaimed = true
		return nil, 0, true
	}
	for ; sh.c < len(sh.states); sh.c, sh.b = sh.c+1, 0 {
		if st := sh.states[sh.c]; sh.b < st.numBlocks {
			sh.b++
			return st, sh.b - 1, false
		}
	}
	return nil, 0, false
}

// nextClaimed is a fan worker scan's body: it claims morsels until one
// yields rows, nil when the cursor is used up.
func (s *Scan) nextClaimed(ctx *Ctx) (*vector.Batch, error) {
	for {
		var batch *vector.Batch
		var err error
		switch st, b, wos := s.share.claim(); {
		case wos:
			batch, err = s.wosBatch(ctx, s.share.wos)
		case st == nil:
			return nil, nil
		default:
			batch, err = st.readBlock(ctx, s, b)
		}
		if err != nil || batch != nil {
			return batch, err
		}
		if err := ctx.Canceled(); err != nil {
			return nil, err
		}
	}
}

// FanHashJoin builds one hash join per outer input — one per worker of a
// fan — that all probe one build of inner (see buildShare). RIGHT and FULL
// OUTER joins cannot be shared: their unmatched build rows are a property of
// the whole probe stream.
func FanHashJoin(t JoinType, outers []Operator, inner Operator, outerKeys, innerKeys []int) ([]*HashJoin, error) {
	if len(outers) > 1 && (t == RightOuterJoin || t == FullOuterJoin) {
		return nil, fmt.Errorf("exec: a %s join cannot share its build across a fan", t)
	}
	out := make([]*HashJoin, len(outers))
	for i, o := range outers {
		j, err := NewHashJoin(t, o, inner, outerKeys, innerKeys)
		if err != nil {
			return nil, err
		}
		if i > 0 {
			j.share = out[0].share
		}
		out[i] = j
	}
	return out, nil
}

// buildShare is a hash join's build — for a fan, the one build its
// workers' joins probe. The first worker to need it builds it, so it is
// charged to the grant once and its SIP filter, which every worker scan
// carries, is published once; the others wait, and from then on the table
// is read-only. A build denied memory is sorted instead, once: every worker
// then merge-joins its own sorted share of the outer side against its own
// stream of the one sorted inner.
type buildShare struct {
	inner Operator

	mu    sync.Mutex
	opens int        // hash joins between Open and Close
	once  *sync.Once // the build: run by the first worker to need it, awaited by the rest
	// Set by the build.
	table  *hashTable
	sorted *sorter // the inner side, sorted, when the build was denied
	err    error
	runs   runSet // what sorting the inner side spilled
}

// open joins a worker; the first one opens the inner input.
func (sh *buildShare) open(ctx *Ctx) error {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.opens++; sh.opens > 1 {
		return nil
	}
	sh.once, sh.table, sh.sorted = new(sync.Once), nil, nil
	sh.err = sh.inner.Open(ctx)
	if sh.err != nil {
		sh.once.Do(func() {}) // no worker may build from an input that did not open
	}
	return sh.err
}

// acquire gives the worker's join the shared table, building it if no
// worker has begun, else waiting for the one that did — which polls the
// query's cancellation at every batch, so a cancel reaches the waiters
// through its error. It returns the sorted inner side when the build
// switched to sort-merge.
func (sh *buildShare) acquire(ctx *Ctx, j *HashJoin) (*sorter, error) {
	sh.once.Do(func() {
		sh.sorted, sh.err = j.build(ctx, &sh.runs)
		sh.table = j.table
	})
	j.table = sh.table
	return sh.sorted, sh.err
}

// close lets a worker go; the last one closes the inner input and removes
// what sorting it spilled.
func (sh *buildShare) close(ctx *Ctx) error {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.opens--; sh.opens > 0 {
		return nil
	}
	sh.runs.close()
	sh.table, sh.sorted = nil, nil
	return sh.inner.Close(ctx)
}
