package dc

import (
	"context"
	"sync/atomic"
	"time"
)

// Trace accumulates the lifecycle phases of a single statement and
// relays point events to the collector. Phase methods (Begin, End,
// Flush) must be called from the statement's coordinating goroutine
// only; Event and QueryID are safe from worker goroutines because the
// query id is an atomic set before workers spawn.
//
// The query id is not known when tracing starts (it is assigned at
// admission), so phases buffer locally and are stamped with the id at
// Flush, which pushes them into the collector's phase ring.
//
// A nil Trace is valid and disables tracing; all methods are nil-safe.
type Trace struct {
	col      *Collector
	queryID  atomic.Int64
	phases   []PhaseEvent
	seq      int
	curName  string
	curStart time.Time
}

// NewTrace returns a Trace bound to col, or nil when col is nil.
func NewTrace(col *Collector) *Trace {
	if col == nil {
		return nil
	}
	return &Trace{col: col}
}

// Begin ends any open phase and starts a new one.
func (t *Trace) Begin(phase string) {
	if t == nil {
		return
	}
	t.End()
	t.curName = phase
	t.curStart = time.Now()
}

// End closes the currently open phase, if any.
func (t *Trace) End() {
	if t == nil || t.curName == "" {
		return
	}
	t.phases = append(t.phases, PhaseEvent{
		Seq:      t.seq,
		Phase:    t.curName,
		Start:    t.curStart,
		Duration: time.Since(t.curStart),
	})
	t.seq++
	t.curName = ""
}

// SetQueryID records the id assigned to this statement at admission.
func (t *Trace) SetQueryID(id int64) {
	if t == nil {
		return
	}
	t.queryID.Store(id)
}

// QueryID returns the statement's id, or 0 if not yet assigned.
func (t *Trace) QueryID() int64 {
	if t == nil {
		return 0
	}
	return t.queryID.Load()
}

// Event records a notable point event against this statement.
func (t *Trace) Event(typ, detail string) {
	if t == nil {
		return
	}
	t.col.RecordEvent(QueryEvent{QueryID: t.queryID.Load(), Type: typ, Detail: detail})
}

// Flush ends any open phase, stamps the query id on every buffered phase,
// and publishes them to the collector in one step. The trace is spent
// after Flush; further phases would start a fresh buffer.
func (t *Trace) Flush() {
	if t == nil {
		return
	}
	t.End()
	id := t.queryID.Load()
	for i := range t.phases {
		t.phases[i].QueryID = id
	}
	t.col.phases.Append(t.phases...) // one step: readers see whole statements
	t.phases = t.phases[:0]
}

type traceKey struct{}

// WithTrace attaches tr to the context for downstream emission sites.
func WithTrace(ctx context.Context, tr *Trace) context.Context {
	if tr == nil {
		return ctx
	}
	return context.WithValue(ctx, traceKey{}, tr)
}

// TraceFrom returns the Trace carried by ctx, or nil.
func TraceFrom(ctx context.Context) *Trace {
	tr, _ := ctx.Value(traceKey{}).(*Trace)
	return tr
}
