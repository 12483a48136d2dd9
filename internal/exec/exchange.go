package exec

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/metrics"
	"repro/internal/types"
	"repro/internal/vector"
)

// Exchange implements the Send/Recv operator pair (paper §6.1 operator 7):
// it moves data from a set of input pipelines to a set of output ports. The
// data path is batch-native end to end — ports carry *vector.Batch over
// channels, and routing uses the vector layer's hash-partition kernel
// (Batch.Partition) with per-port batch accumulators, so a parallel plan
// never degrades to row-at-a-time traffic.
//
// Its inputs are the worker pipelines of a fan (fan.go), each drained by a
// pump goroutine of its own. Routing modes:
//
//   - segment: rows hash-partition on the key columns, so all alike values
//     reach the same port and each port can compute complete results
//     independently (the Figure 3 "locally resegments" step: a fan's
//     partial aggregates, or the rows a parallel DISTINCT dedups);
//   - single-port + merge (SortKey set, one port): the port merges its
//     per-input lanes (the one merger of sorted.go, a cursor per lane),
//     pulling lazily — nothing is materialized beyond one batch per lane —
//     so the exchange retains the sortedness of its inputs (the fan's
//     per-worker sorts meeting under ORDER BY).
//
// Error and cancel propagation: a worker (input pump) error records the
// first error and closes the exchange-wide quit channel, which unblocks
// every other pump and surfaces the error at every port — a dying worker
// can never deadlock a port reader. A consumer abandoning a port (its
// pipeline failed) marks the port via abandon(), so pumps drop batches for
// it instead of blocking.
type Exchange struct {
	inputs []Operator
	ways   int
	// Keys are the routing columns: rows hash-partition on them so alike
	// values reach the same port.
	Keys []int
	// SortKey, when non-nil, asserts inputs are sorted by these columns and
	// makes the port merge-preserve that order.
	SortKey []SortSpec

	mu          sync.Mutex
	started     bool
	inputsOpen  bool
	closedPorts int
	abandoned   int                  // ports whose readers are gone; == ways stops the pumps
	ports       []chan *vector.Batch // flat path: one channel per port
	lanes       []chan *vector.Batch // sorted path: the one port's, one per input
	portQuit    []chan struct{}
	portOnce    []sync.Once
	quit        chan struct{}
	quitOnce    sync.Once
	errMu       sync.Mutex
	firstError  error
	wg          sync.WaitGroup
}

// exchangePortDepth is the channel buffer per port (per lane in sorted
// mode): enough to decouple pump and reader without hoarding batches.
const exchangePortDepth = 4

// NewExchange creates a segment-routing exchange: rows hash-partition on
// the key columns across `ways` ports.
func NewExchange(inputs []Operator, ways int, keys []int) *Exchange {
	return &Exchange{inputs: inputs, ways: ways, Keys: keys}
}

// NewMergeExchange merges sorted input streams into one port, preserving
// the order given by sortKey — the merge step of a parallel sort.
func NewMergeExchange(inputs []Operator, sortKey []SortSpec) *Exchange {
	return &Exchange{inputs: inputs, ways: 1, SortKey: sortKey}
}

// Ports returns the `ways` receive operators. Each must be consumed by
// exactly one reader (they share the exchange pump).
func (e *Exchange) Ports() []Operator {
	out := make([]Operator, e.ways)
	for i := range out {
		out[i] = &recvPort{ex: e, port: i}
	}
	return out
}

// fail records the first pump error and releases everything blocked on the
// exchange (other pumps, port readers).
func (e *Exchange) fail(err error) {
	e.errMu.Lock()
	if e.firstError == nil {
		e.firstError = err
	}
	e.errMu.Unlock()
	e.quitOnce.Do(func() { close(e.quit) })
}

func (e *Exchange) firstErr() error {
	e.errMu.Lock()
	defer e.errMu.Unlock()
	return e.firstError
}

// start launches the pumps on first Open: one goroutine per input drains it
// and routes batches to ports.
func (e *Exchange) start(ctx *Ctx) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.started {
		return nil
	}
	e.started = true
	e.quit = make(chan struct{})
	e.portQuit = make([]chan struct{}, e.ways)
	e.portOnce = make([]sync.Once, e.ways)
	for i := range e.portQuit {
		e.portQuit[i] = make(chan struct{})
	}
	if e.SortKey != nil {
		e.lanes = make([]chan *vector.Batch, len(e.inputs))
		for i := range e.lanes {
			e.lanes[i] = make(chan *vector.Batch, exchangePortDepth)
		}
	} else {
		e.ports = make([]chan *vector.Batch, e.ways)
		for i := range e.ports {
			e.ports[i] = make(chan *vector.Batch, exchangePortDepth)
		}
	}
	for i, in := range e.inputs {
		if err := in.Open(ctx); err != nil {
			// Close the inputs already opened: the failed start means no
			// port Close will ever reach them (inputsOpen stays false).
			for j := 0; j < i; j++ {
				e.inputs[j].Close(ctx)
			}
			return err
		}
	}
	e.inputsOpen = true
	for i, in := range e.inputs {
		e.wg.Add(1)
		go e.pump(ctx, i, in)
	}
	go func() {
		e.wg.Wait()
		for _, ch := range e.ports {
			close(ch)
		}
	}()
	return nil
}

// send delivers a batch to port p's channel, giving up when the port was
// abandoned by its reader (batch dropped) or the exchange failed (pump
// should exit). Reports whether pumping should continue.
func (e *Exchange) send(ch chan *vector.Batch, p int, b *vector.Batch) bool {
	select {
	case ch <- b:
		return true
	default:
	}
	select {
	case ch <- b:
		return true
	case <-e.portQuit[p]:
		return true // reader gone: drop, keep serving other ports
	case <-e.quit:
		return false
	}
}

// pump drains one input and routes its batches.
func (e *Exchange) pump(ctx *Ctx, idx int, in Operator) {
	defer e.wg.Done()
	// A lane has one sender, this pump, which closes it: a merging port that
	// has used up this input must see its end while the other pumps still
	// run — they may be blocked on lanes the port will not read before it
	// knows this one is done.
	if e.lanes != nil {
		defer close(e.lanes[idx])
	}
	chanFor := func(p int) chan *vector.Batch {
		if e.lanes != nil {
			return e.lanes[idx]
		}
		return e.ports[p]
	}
	// Per-port accumulators (segment mode): partition slivers coalesce into
	// full batches before crossing the channel.
	var acc []*vector.Batch
	if e.ways > 1 {
		acc = make([]*vector.Batch, e.ways)
	}
	for {
		select {
		case <-e.quit:
			return // failed, or every port reader is gone
		default:
		}
		if err := ctx.Canceled(); err != nil {
			e.fail(err)
			return
		}
		b, err := in.Next(ctx)
		if err != nil {
			e.fail(err)
			return
		}
		if b == nil {
			break
		}
		if b.Len() == 0 {
			continue
		}
		metrics.ExchangeBatches.Inc()
		metrics.ExchangeRows.Add(int64(b.Len()))
		// Approximate wire volume: fixed-width value slots. Vectors are
		// shared in-process, so this sizes what a networked exchange would
		// serialize rather than actual allocation.
		metrics.ExchangeBytes.Add(int64(b.Len()) * int64(len(b.Cols)) * 16)
		if e.ways == 1 {
			if !e.send(chanFor(0), 0, b) {
				return
			}
			continue
		}
		for p, part := range b.Partition(e.Keys, e.ways) {
			if part == nil {
				continue
			}
			if acc[p] == nil {
				acc[p] = vector.NewBatchForSchema(in.Schema(), vector.DefaultBatchSize)
			}
			acc[p].Append(part)
			if acc[p].Len() >= vector.DefaultBatchSize {
				if !e.send(chanFor(p), p, acc[p]) {
					return
				}
				acc[p] = nil
			}
		}
	}
	for p, a := range acc {
		if a != nil && a.Len() > 0 {
			if !e.send(chanFor(p), p, a) {
				return
			}
		}
	}
}

// abandonPort marks one port's reader as gone so pumps stop blocking on
// it. When every port is abandoned the whole exchange shuts down: there is
// nobody left to deliver to, so pumps must not drain the rest of the input
// (an early-terminated LIMIT query would otherwise pay a full residual
// scan in Close).
func (e *Exchange) abandonPort(p int) {
	e.mu.Lock()
	started := e.started
	e.mu.Unlock()
	if !started {
		return
	}
	e.portOnce[p].Do(func() {
		close(e.portQuit[p])
		e.mu.Lock()
		e.abandoned++
		all := e.abandoned >= e.ways
		e.mu.Unlock()
		if all {
			e.quitOnce.Do(func() { close(e.quit) })
		}
	})
}

// recvPort is the Recv operator for one exchange port.
type recvPort struct {
	ex   *Exchange
	port int

	merged *merger // of the port's lanes (SortKey exchanges only)
	prof   OpProf
}

// Schema implements Operator.
func (r *recvPort) Schema() *types.Schema { return r.ex.inputs[0].Schema() }

// Describe implements Operator.
func (r *recvPort) Describe() string {
	if r.ex.SortKey != nil {
		return fmt.Sprintf("Recv port=%d/%d (single-port+merge)", r.port, r.ex.ways)
	}
	return fmt.Sprintf("Recv port=%d/%d (segment keys=%v)", r.port, r.ex.ways, r.ex.Keys)
}

// Children implements the plan walker: show inputs under port 0 only.
func (r *recvPort) Children() []Operator {
	if r.port == 0 {
		return r.ex.inputs
	}
	return nil
}

// Open implements Operator.
func (r *recvPort) Open(ctx *Ctx) error { return r.ex.start(ctx) }

// abandon implements the consumer-failure protocol: a parent whose pipeline
// died calls it so the exchange pumps stop blocking on this port.
func (r *recvPort) abandon() { r.ex.abandonPort(r.port) }

// next is the operator body behind the profiled Next (profile.go).
func (r *recvPort) next(ctx *Ctx) (*vector.Batch, error) {
	if r.ex.SortKey == nil {
		return r.recv(ctx, r.ex.ports[r.port])
	}
	if err := ctx.Canceled(); err != nil {
		return nil, err
	}
	if r.merged == nil {
		lanes := make([]batchStream, len(r.ex.inputs))
		for i, ch := range r.ex.lanes {
			lanes[i] = func(ctx *Ctx) (*vector.Batch, error) { return r.recv(ctx, ch) }
		}
		r.merged = newMerger(r.ex.SortKey, r.Schema(), lanes...)
	}
	return r.merged.next(ctx)
}

// recv takes the next batch off one of the port's channels; nil when the
// pumps are done with it, or the exchange has failed or been abandoned.
func (r *recvPort) recv(ctx *Ctx, ch <-chan *vector.Batch) (*vector.Batch, error) {
	var done <-chan struct{}
	if ctx.Context != nil {
		done = ctx.Context.Done()
	}
	if ctx.ProfTimes {
		// The select below is where a port waits on its producers; its
		// duration is the operator's blocked time.
		start := time.Now()
		defer func() { r.prof.BlockedNs.Add(int64(time.Since(start))) }()
	}
	select {
	case b, ok := <-ch:
		if !ok {
			return nil, r.ex.firstErr()
		}
		return b, nil
	case <-r.ex.quit:
		return nil, r.ex.firstErr()
	case <-done:
		return nil, ctx.Canceled()
	}
}

// Close implements Operator. Every port gets closed by its consumer; the
// last one waits for the pumps and closes the inputs (closing them earlier
// would race pumps still calling Next).
func (r *recvPort) Close(ctx *Ctx) error {
	r.abandon()
	r.ex.mu.Lock()
	r.ex.closedPorts++
	last := r.ex.closedPorts >= r.ex.ways
	open := r.ex.inputsOpen
	if last {
		r.ex.inputsOpen = false
	}
	r.ex.mu.Unlock()
	if !last || !open {
		return nil
	}
	r.ex.wg.Wait()
	var firstErr error
	for _, in := range r.ex.inputs {
		if err := in.Close(ctx); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}
