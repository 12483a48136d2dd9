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
// Its inputs are concurrent pipelines — the workers of a fan (fan.go), or
// the ports of another exchange — each drained by a pump goroutine of its
// own. It is the engine's one fan-in. Routing modes:
//
//   - segment: rows hash-partition on the key columns, so all alike values
//     reach the same port and each port can compute complete results
//     independently (the Figure 3 "locally resegments" step: a fan's
//     partial aggregates, or the rows a parallel DISTINCT dedups);
//   - merge (SortKey set, one port): the port merges its per-input lanes
//     (the one merger, vector.Merger, a cursor per lane), pulling lazily —
//     nothing is materialized beyond one batch per lane — so the exchange
//     retains the sortedness of its inputs (the fan's per-worker sorts
//     meeting under ORDER BY);
//   - gather (no keys, one port): the inputs' batches meet in one stream,
//     in no particular order — the paper's ParallelUnion (NewParallelUnion).
//
// Error and cancel propagation: a worker (input pump) error records the
// first error and closes the exchange-wide quit channel, which stops every
// other pump at its next batch and surfaces the error at every port — a
// dying worker can never deadlock a port reader, and a failed input stops
// its siblings. A consumer abandoning a port (its pipeline failed) marks
// the port via abandon(), so pumps drop batches for it instead of blocking.
// A pump that stops before its input ends abandons the ports in its
// input's subtree in turn (abandonSubtree).
type Exchange struct {
	inputs []Operator
	ways   int
	// Keys are the routing columns: rows hash-partition on them so alike
	// values reach the same port.
	Keys []int
	// SortKey, when non-nil, asserts inputs are sorted by these columns and
	// makes the port merge-preserve that order.
	SortKey []vector.SortSpec

	mu          sync.Mutex
	started     bool
	inputsOpen  bool
	closedPorts int
	abandoned   int         // ports whose readers are gone; == ways stops the pumps
	ports       []chan loan // flat path: one channel per port
	lanes       []chan loan // sorted path: the one port's, one per input
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
func NewMergeExchange(inputs []Operator, sortKey []vector.SortSpec) *Exchange {
	return &Exchange{inputs: inputs, ways: 1, SortKey: sortKey}
}

// NewParallelUnion gathers concurrent pipelines into one stream, order not
// preserved (Figure 3: "the ParallelUnion dispatches threads for processing
// the GroupBys and Filters in parallel"): the port of a one-port, keyless
// exchange, or the input itself when there is one. All inputs must share a
// schema.
func NewParallelUnion(inputs ...Operator) Operator {
	if len(inputs) == 1 {
		return inputs[0]
	}
	return (&Exchange{inputs: inputs, ways: 1}).Ports()[0]
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
		e.lanes = make([]chan loan, len(e.inputs))
		for i := range e.lanes {
			e.lanes[i] = make(chan loan, exchangePortDepth)
		}
	} else {
		e.ports = make([]chan loan, e.ways)
		for i := range e.ports {
			e.ports[i] = make(chan loan, exchangePortDepth)
		}
	}
	for _, in := range e.inputs {
		if err := in.Open(ctx); err != nil {
			// No port Close will reach the inputs (inputsOpen stays false),
			// so close them all here: one opened may have started exchange
			// pumps whose sibling ports belong to inputs that will now
			// never open, and closing abandons those ports. Close is
			// nil-safe before Open throughout the operator set.
			for _, in := range e.inputs {
				in.Close(ctx)
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
func (e *Exchange) send(ch chan loan, p int, l loan) bool {
	select {
	case ch <- l:
		return true
	default:
	}
	select {
	case ch <- l:
		return true
	case <-e.portQuit[p]:
		vector.Release(l.held) // reader gone: drop, keep serving other ports
		return true
	case <-e.quit:
		vector.Release(l.held)
		return false
	}
}

// pump drains one input and routes its batches. A pump that stops before
// its input ends — the input failed, a send was refused, or the exchange
// quit — abandons the input's subtree: an exchange below it (a gather over
// the ports of a segmenting one) must not block on a port nobody will read.
func (e *Exchange) pump(ctx *Ctx, idx int, in Operator) {
	defer e.wg.Done()
	// A lane has one sender, this pump, which closes it: a merging port that
	// has used up this input must see its end while the other pumps still
	// run — they may be blocked on lanes the port will not read before it
	// knows this one is done.
	if e.lanes != nil {
		defer close(e.lanes[idx])
	}
	if !e.route(ctx, idx, in) {
		abandonSubtree(in)
	}
}

// route moves one input's batches to the ports; false when it stopped
// before the input ended.
func (e *Exchange) route(ctx *Ctx, idx int, in Operator) bool {
	chanFor := func(p int) chan loan {
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
		// No cancellation check of its own: the input polls Ctx, and every
		// worker of a fan surfaces a cancel itself.
		b, err := in.Next(ctx)
		if err != nil {
			e.fail(err)
			return false
		}
		if b == nil {
			break
		}
		select {
		case <-e.quit:
			return false // failed, or every port reader is gone
		default:
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
			if !e.send(chanFor(0), 0, loan{b, b.Retain(nil)}) {
				return false
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
				if !e.send(chanFor(p), p, loan{b: acc[p]}) {
					return false
				}
				acc[p] = nil
			}
		}
	}
	for p, a := range acc {
		if a != nil && a.Len() > 0 {
			if !e.send(chanFor(p), p, loan{b: a}) {
				return false
			}
		}
	}
	return true
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

	merged *vector.Merger // of the port's lanes (SortKey exchanges only)
	// What the batch last received retained (per lane when merging).
	lent     []vector.Owner
	laneLent [][]vector.Owner
	prof     OpProf
}

// Schema implements Operator.
func (r *recvPort) Schema() *types.Schema { return r.ex.inputs[0].Schema() }

// Describe implements Operator. A gather keeps the paper's operator name.
func (r *recvPort) Describe() string {
	switch {
	case r.ex.SortKey != nil:
		return fmt.Sprintf("Recv port=%d/%d (single-port+merge)", r.port, r.ex.ways)
	case r.ex.Keys == nil:
		return fmt.Sprintf("ParallelUnion ways=%d", len(r.ex.inputs))
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
		return r.recv(ctx, r.ex.ports[r.port], &r.lent)
	}
	if err := ctx.Canceled(); err != nil {
		return nil, err
	}
	if r.merged == nil {
		lanes := make([]vector.Stream, len(r.ex.inputs))
		r.laneLent = make([][]vector.Owner, len(lanes))
		for i, ch := range r.ex.lanes {
			lanes[i] = func() (*vector.Batch, error) { return r.recv(ctx, ch, &r.laneLent[i]) }
		}
		r.merged = vector.NewMerger(r.ex.SortKey, lanes...)
	}
	return r.merged.Next()
}

// recv takes the next batch off one of the port's channels, releasing the
// last one's (*lent); nil when the pumps are done with it, or the exchange
// has failed or been abandoned.
func (r *recvPort) recv(ctx *Ctx, ch <-chan loan, lent *[]vector.Owner) (*vector.Batch, error) {
	vector.Release(*lent)
	*lent = nil
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
	case l, ok := <-ch:
		if !ok {
			return nil, r.ex.firstErr()
		}
		*lent = l.held
		return l.b, nil
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
	vector.Release(r.lent)
	for _, l := range r.laneLent {
		vector.Release(l)
	}
	r.lent, r.laneLent = nil, nil
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

// loan is a batch sent across goroutines with what its sender retained.
type loan struct {
	b    *vector.Batch
	held []vector.Owner
}

// abandoner is implemented by operators (exchange receive ports) that can
// be told their consumer died, so upstream pumps stop blocking on them.
type abandoner interface{ abandon() }

// abandonSubtree walks a pipeline a pump stopped reading early and abandons
// every exchange port in it. The walk stops at an abandoned port: the
// exchange's inputs are shared with its sibling ports, which may still be
// healthy.
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
