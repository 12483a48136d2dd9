package exec

import (
	"fmt"
	"sync"

	"repro/internal/types"
	"repro/internal/vector"
)

// ParallelUnion runs its children concurrently and merges their output into
// one stream (Figure 3: "the ParallelUnion dispatches threads for processing
// the GroupBys and Filters in parallel"). Order is not preserved.
type ParallelUnion struct {
	children []Operator

	mu       sync.Mutex
	started  bool
	out      chan *vector.Batch
	errCh    chan error
	quit     chan struct{} // closed by Close: unblocks senders on early stop
	quitOnce sync.Once
	wg       sync.WaitGroup
	prof     OpProf
}

// NewParallelUnion builds a union over parallel pipelines; all children must
// share a schema.
func NewParallelUnion(children ...Operator) *ParallelUnion {
	return &ParallelUnion{children: children}
}

// Schema implements Operator.
func (u *ParallelUnion) Schema() *types.Schema { return u.children[0].Schema() }

// Children implements the plan walker.
func (u *ParallelUnion) Children() []Operator { return u.children }

// Describe implements Operator.
func (u *ParallelUnion) Describe() string {
	return fmt.Sprintf("ParallelUnion ways=%d", len(u.children))
}

// Open implements Operator.
func (u *ParallelUnion) Open(ctx *Ctx) error {
	u.mu.Lock()
	defer u.mu.Unlock()
	if u.started {
		return nil
	}
	u.started = true
	u.out = make(chan *vector.Batch, len(u.children))
	u.errCh = make(chan error, len(u.children))
	u.quit = make(chan struct{})
	for _, c := range u.children {
		if err := c.Open(ctx); err != nil {
			// A child's Open may have started exchange pumps (its sibling
			// ports belong to children that will now never open): close
			// every child so each port is abandoned and the pumps wind
			// down instead of leaking. Close is nil-safe before Open
			// throughout the operator set.
			for _, cc := range u.children {
				cc.Close(ctx)
			}
			return err
		}
	}
	for _, c := range u.children {
		u.wg.Add(1)
		go func(c Operator) {
			defer u.wg.Done()
			for {
				b, err := c.Next(ctx)
				if err != nil {
					u.errCh <- err
					// Release any exchange pump blocked on this dead
					// pipeline's ports so siblings cannot deadlock.
					abandonSubtree(c)
					return
				}
				if b == nil {
					return
				}
				select {
				case u.out <- b:
				case <-u.quit:
					// Consumer stopped early (LIMIT satisfied, error
					// above): abandon this pipeline's ports so upstream
					// pumps stop too, and exit instead of leaking.
					abandonSubtree(c)
					return
				}
			}
		}(c)
	}
	go func() {
		u.wg.Wait()
		close(u.out)
		close(u.errCh)
	}()
	return nil
}

// next is the operator body behind the profiled Next (profile.go).
func (u *ParallelUnion) next(*Ctx) (*vector.Batch, error) {
	b, ok := <-u.out
	if ok {
		return b, nil
	}
	select {
	case err, ok := <-u.errCh:
		if ok && err != nil {
			return nil, err
		}
	default:
	}
	return nil, nil
}

// Close implements Operator. An early Close (consumer satisfied before the
// stream drained) releases blocked workers via quit, waits for them to
// exit, and only then closes the children — closing a child while its
// worker goroutine still calls Next on it would race.
func (u *ParallelUnion) Close(ctx *Ctx) error {
	u.mu.Lock()
	started := u.started
	u.mu.Unlock()
	if started {
		u.quitOnce.Do(func() { close(u.quit) })
		u.wg.Wait()
	}
	var firstErr error
	for _, c := range u.children {
		if err := c.Close(ctx); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// abandoner is implemented by operators (exchange receive ports) that can
// be told their consumer died, so upstream pumps stop blocking on them.
type abandoner interface{ abandon() }

// abandonSubtree walks a dead pipeline and abandons every exchange port in
// it. The walk stops at an abandoned port: the exchange's inputs are shared
// with its sibling ports, which may still be healthy.
func abandonSubtree(op Operator) {
	if a, ok := op.(abandoner); ok {
		a.abandon()
		return
	}
	if hc, ok := op.(hasChildren); ok {
		for _, c := range hc.Children() {
			abandonSubtree(c)
		}
	}
}

// Values is an in-memory batch source: the initiator merge reads the node
// plans' results through it, and tests feed operators from it.
type Values struct {
	schema  *types.Schema
	batches []*vector.Batch
	pos     int
	prof    OpProf
}

// NewBatchValues builds a source that replays batches as they are.
func NewBatchValues(schema *types.Schema, batches []*vector.Batch) *Values {
	return &Values{schema: schema, batches: batches}
}

// Schema implements Operator.
func (v *Values) Schema() *types.Schema { return v.schema }

// Children implements the plan walker (leaf).
func (v *Values) Children() []Operator { return nil }

// Describe implements Operator.
func (v *Values) Describe() string {
	return fmt.Sprintf("Values rows=%d", vector.NumRows(v.batches))
}

// Open implements Operator.
func (v *Values) Open(*Ctx) error {
	v.pos = 0
	return nil
}

// Close implements Operator.
func (v *Values) Close(*Ctx) error { return nil }

// next is the operator body behind the profiled Next (profile.go). Consumers
// may edit a batch's headers in place (Filter sets Sel, Limit expands RLE),
// so each call hands out a copy of them: the source replays unchanged.
func (v *Values) next(*Ctx) (*vector.Batch, error) {
	if v.pos >= len(v.batches) {
		return nil, nil
	}
	b := v.batches[v.pos]
	v.pos++
	return b.ShallowCopy(), nil
}
