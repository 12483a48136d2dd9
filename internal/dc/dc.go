// Package dc is the Data Collector: bounded in-memory ring buffers of
// typed engine events, in the spirit of Vertica's Data Collector (§8 of
// the paper). Components append events as they happen — query lifecycle
// phases, notable query events, tuple-mover operations, lock attempts,
// errors — and monitoring queries read consistent snapshots back out
// through the v_monitor virtual tables. Each event type is also its
// table's one declaration: the `vt` field tags name the columns
// (internal/core's registerTable derives schema and rows from them).
//
// Every ring is bounded: when full, the oldest event is overwritten and a
// dropped counter is incremented, so collection can never grow without
// bound or block the engine. A nil *Collector is valid everywhere and
// disables collection entirely; all methods are nil-safe so emission
// sites never need to branch.
package dc

import (
	"sync"
	"time"
)

// DefaultCapacity is the per-ring event capacity when none is configured.
const DefaultCapacity = 1024

// PhaseEvent records one query lifecycle phase (parse, analyze, plan,
// queue, execute, fetch) with its start time and duration.
type PhaseEvent struct {
	QueryID  int64         `vt:"query_id"`
	Seq      int           `vt:"phase_seq"` // 0-based position of this phase within its query
	Phase    string        `vt:"phase"`
	Start    time.Time     `vt:"start"`
	Duration time.Duration `vt:"duration_us,float_us"`
}

// QueryEvent records a notable point event during a query's life —
// GROUP_BY_SPILLED, SORT_SPILLED, JOIN_SPILLED, GRANT_EXTENSION_DENIED,
// RUNTIME_CAP_EXCEEDED — plus session connect/disconnect markers (QueryID
// 0).
type QueryEvent struct {
	QueryID int64     `vt:"query_id"`
	Type    string    `vt:"event_type"`
	Detail  string    `vt:"detail"`
	Time    time.Time `vt:"time"`
}

// MoverEvent records one tuple-mover operation: a moveout or a mergeout.
type MoverEvent struct {
	Op         string        `vt:"operation"` // "moveout" | "mergeout"
	Projection string        `vt:"projection"`
	Containers int           `vt:"containers"` // containers written (moveout) or merged (mergeout)
	Rows       int64         `vt:"rows_moved"` // rows moved (moveout only)
	Bytes      int64         `vt:"bytes"`      // input bytes merged (mergeout only)
	Duration   time.Duration `vt:"duration_us,float_us"`
	Time       time.Time     `vt:"time"`
}

// LockEvent records one table-lock acquisition attempt and how long the
// transaction waited for it.
type LockEvent struct {
	Table   string        `vt:"table_name"`
	Txn     uint64        `vt:"txn_id"`
	Mode    string        `vt:"mode"`
	Wait    time.Duration `vt:"wait_us,float_us"`
	Granted bool          `vt:"granted"`
	Time    time.Time     `vt:"time"`
}

// ErrorEvent records a statement that failed, with the error text.
type ErrorEvent struct {
	QueryID int64     `vt:"query_id"`
	SQL     string    `vt:"statement"`
	Error   string    `vt:"error"`
	Time    time.Time `vt:"time"`
}

// Ring is a bounded FIFO that overwrites its oldest element when full: the
// engine's one retention mechanism, behind the five event streams here and
// the governor's query and operator profiles (internal/resmgr). Safe for
// concurrent use.
type Ring[T any] struct {
	mu      sync.Mutex
	stream  string
	buf     []T
	head    int   // index of the oldest element
	n       int   // live elements, <= len(buf)
	seq     int64 // total elements ever appended
	dropped int64 // elements overwritten
}

// NewRing returns a ring retaining the newest capacity (> 0) elements.
// stream names it in Stats — by convention the v_monitor table it backs.
func NewRing[T any](stream string, capacity int) *Ring[T] {
	return &Ring[T]{stream: stream, buf: make([]T, capacity)}
}

// Append records vs in order as one atomic step (a Snapshot sees all of
// them or none), overwriting the oldest elements once the ring is full. It
// writes slots in place and never allocates.
func (r *Ring[T]) Append(vs ...T) {
	r.mu.Lock()
	for _, v := range vs {
		if r.n == len(r.buf) {
			r.buf[r.head] = v
			r.head = (r.head + 1) % len(r.buf)
			r.dropped++
		} else {
			r.buf[(r.head+r.n)%len(r.buf)] = v
			r.n++
		}
	}
	r.seq += int64(len(vs))
	r.mu.Unlock()
}

// Snapshot returns the live elements oldest-first.
func (r *Ring[T]) Snapshot() []T {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]T, r.n)
	for i := range out {
		out[i] = r.buf[(r.head+i)%len(r.buf)]
	}
	return out
}

// Stats reports the ring's occupancy and lifetime counters.
func (r *Ring[T]) Stats() RingStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return RingStats{Stream: r.stream, Cap: len(r.buf), Len: r.n, Appended: r.seq, Dropped: r.dropped}
}

// RingStats describes one ring's retention, the row source for
// v_monitor.data_collector.
type RingStats struct {
	Stream   string `vt:"stream"`   // the v_monitor table the ring backs
	Cap      int    `vt:"capacity"` // ring capacity
	Len      int    `vt:"retained"` // elements currently retained
	Appended int64  `vt:"appended"` // total elements ever recorded
	Dropped  int64  `vt:"dropped"`  // elements overwritten by newer ones
}

// Collector holds one ring per event stream. The zero value is unusable;
// construct with New. A nil Collector is a valid, fully disabled one.
type Collector struct {
	phases *Ring[PhaseEvent]
	events *Ring[QueryEvent]
	mover  *Ring[MoverEvent]
	locks  *Ring[LockEvent]
	errors *Ring[ErrorEvent]
}

// New returns a Collector whose rings each hold capacity events.
// capacity <= 0 selects DefaultCapacity.
func New(capacity int) *Collector {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Collector{
		phases: NewRing[PhaseEvent]("query_phases", capacity),
		events: NewRing[QueryEvent]("query_events", capacity),
		mover:  NewRing[MoverEvent]("dc_tuple_mover_events", capacity),
		locks:  NewRing[LockEvent]("dc_lock_attempts", capacity),
		errors: NewRing[ErrorEvent]("dc_errors", capacity),
	}
}

// RecordEvent appends one notable query event.
func (c *Collector) RecordEvent(e QueryEvent) {
	if c == nil {
		return
	}
	if e.Time.IsZero() {
		e.Time = time.Now()
	}
	c.events.Append(e)
}

// RecordMover appends one tuple-mover operation.
func (c *Collector) RecordMover(e MoverEvent) {
	if c == nil {
		return
	}
	if e.Time.IsZero() {
		e.Time = time.Now()
	}
	c.mover.Append(e)
}

// RecordLock appends one lock-acquisition attempt.
func (c *Collector) RecordLock(e LockEvent) {
	if c == nil {
		return
	}
	if e.Time.IsZero() {
		e.Time = time.Now()
	}
	c.locks.Append(e)
}

// RecordError appends one failed statement.
func (c *Collector) RecordError(e ErrorEvent) {
	if c == nil {
		return
	}
	if e.Time.IsZero() {
		e.Time = time.Now()
	}
	c.errors.Append(e)
}

// Phases returns the retained phase events, oldest first.
func (c *Collector) Phases() []PhaseEvent {
	if c == nil {
		return nil
	}
	return c.phases.Snapshot()
}

// Events returns the retained query events, oldest first.
func (c *Collector) Events() []QueryEvent {
	if c == nil {
		return nil
	}
	return c.events.Snapshot()
}

// MoverEvents returns the retained tuple-mover events, oldest first.
func (c *Collector) MoverEvents() []MoverEvent {
	if c == nil {
		return nil
	}
	return c.mover.Snapshot()
}

// LockEvents returns the retained lock events, oldest first.
func (c *Collector) LockEvents() []LockEvent {
	if c == nil {
		return nil
	}
	return c.locks.Snapshot()
}

// Errors returns the retained error events, oldest first.
func (c *Collector) Errors() []ErrorEvent {
	if c == nil {
		return nil
	}
	return c.errors.Snapshot()
}

// Stats reports the five event streams' retention, in declaration order.
func (c *Collector) Stats() []RingStats {
	if c == nil {
		return nil
	}
	return []RingStats{c.phases.Stats(), c.events.Stats(), c.mover.Stats(), c.locks.Stats(), c.errors.Stats()}
}
