package dc

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"
)

// Ring behaviour is tested here, once: the governor's profile rings
// (internal/resmgr) and the five event streams are all this type.

func TestRingOverwriteOldest(t *testing.T) {
	r := NewRing[int]("ints", 3)
	for i := 0; i < 5; i++ {
		r.Append(i)
	}
	if got := r.Snapshot(); len(got) != 3 || got[0] != 2 || got[1] != 3 || got[2] != 4 {
		t.Fatalf("Snapshot() = %v, want [2 3 4] (oldest first)", got)
	}
	if st, want := r.Stats(), (RingStats{Stream: "ints", Cap: 3, Len: 3, Appended: 5, Dropped: 2}); st != want {
		t.Errorf("Stats() = %+v, want %+v", st, want)
	}
	// A batch larger than what is left wraps the same way, as one step.
	r.Append(5, 6)
	if got := r.Snapshot(); len(got) != 3 || got[0] != 4 || got[1] != 5 || got[2] != 6 {
		t.Fatalf("Snapshot() after batch = %v, want [4 5 6]", got)
	}
	if st := r.Stats(); st.Appended != 7 || st.Dropped != 4 {
		t.Errorf("Stats() after batch = %+v, want 7 appended, 4 dropped", st)
	}
}

// TestRingAppendDoesNotAllocate: Append sits on every statement's release
// path (the query-profile ring); it must stay a slot write.
func TestRingAppendDoesNotAllocate(t *testing.T) {
	r := NewRing[ErrorEvent]("errors", 4)
	e := ErrorEvent{QueryID: 1, SQL: "SELECT 1", Error: "boom"}
	batch := []ErrorEvent{e, e, e}
	if n := testing.AllocsPerRun(100, func() { r.Append(e); r.Append(batch...) }); n != 0 {
		t.Fatalf("Append allocates %v times per run, want 0", n)
	}
}

// TestRingConcurrentAppendSnapshot: appenders and readers race (run under
// -race); batches stay contiguous and in order in every snapshot, and the
// counters add up.
func TestRingConcurrentAppendSnapshot(t *testing.T) {
	const (
		writers = 4
		batches = 500
	)
	r := NewRing[[2]int]("pairs", 64)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < batches; i++ {
				r.Append([2]int{w, 2 * i}, [2]int{w, 2*i + 1})
			}
		}(w)
	}
	stop := make(chan struct{})
	readerDone := make(chan error, 1)
	go func() {
		for {
			select {
			case <-stop:
				readerDone <- nil
				return
			default:
			}
			snap := r.Snapshot()
			// Capacity is even and every append is a pair, so a snapshot
			// is whole pairs: an even entry is followed by its odd twin.
			for i := 0; i+1 < len(snap); i += 2 {
				if a, b := snap[i], snap[i+1]; a[0] != b[0] || a[1]%2 != 0 || b[1] != a[1]+1 {
					readerDone <- fmt.Errorf("snapshot tore a batch: %v then %v", a, b)
					return
				}
			}
		}
	}()
	wg.Wait()
	close(stop)
	if err := <-readerDone; err != nil {
		t.Fatal(err)
	}
	st := r.Stats()
	if st.Appended != writers*batches*2 || st.Len != 64 || st.Dropped != st.Appended-64 {
		t.Errorf("Stats() = %+v, want %d appended, 64 retained, the rest dropped", st, writers*batches*2)
	}
}

func TestAllStreams(t *testing.T) {
	c := New(8)
	c.phases.Append(PhaseEvent{QueryID: 1, Phase: "parse", Start: time.Now(), Duration: time.Millisecond})
	c.RecordEvent(QueryEvent{QueryID: 1, Type: "GROUP_BY_SPILLED", Detail: "4096 bytes"})
	c.RecordMover(MoverEvent{Op: "moveout", Projection: "t_super", Containers: 2, Rows: 100})
	c.RecordLock(LockEvent{Table: "t", Txn: 7, Mode: "X", Wait: time.Millisecond, Granted: true})
	c.RecordError(ErrorEvent{QueryID: 2, SQL: "SELECT nope", Error: "boom"})

	if got := c.Phases(); len(got) != 1 || got[0].Phase != "parse" {
		t.Errorf("Phases() = %+v", got)
	}
	if got := c.Events(); len(got) != 1 || got[0].Type != "GROUP_BY_SPILLED" {
		t.Errorf("Events() = %+v", got)
	}
	if got := c.MoverEvents(); len(got) != 1 || got[0].Op != "moveout" || got[0].Time.IsZero() {
		t.Errorf("MoverEvents() = %+v", got)
	}
	if got := c.LockEvents(); len(got) != 1 || !got[0].Granted || got[0].Time.IsZero() {
		t.Errorf("LockEvents() = %+v", got)
	}
	if got := c.Errors(); len(got) != 1 || got[0].Error != "boom" || got[0].Time.IsZero() {
		t.Errorf("Errors() = %+v", got)
	}
	wantStreams := []string{"query_phases", "query_events", "dc_tuple_mover_events", "dc_lock_attempts", "dc_errors"}
	for i, st := range c.Stats() {
		if want := (RingStats{Stream: wantStreams[i], Cap: 8, Len: 1, Appended: 1}); st != want {
			t.Errorf("Stats()[%d] = %+v, want %+v", i, st, want)
		}
	}
}

func TestNilCollectorSafe(t *testing.T) {
	var c *Collector
	c.RecordEvent(QueryEvent{})
	c.RecordMover(MoverEvent{})
	c.RecordLock(LockEvent{})
	c.RecordError(ErrorEvent{})
	if c.Phases() != nil || c.Events() != nil || c.MoverEvents() != nil ||
		c.LockEvents() != nil || c.Errors() != nil || c.Stats() != nil {
		t.Error("nil collector must return nil snapshots")
	}
	if tr := NewTrace(nil); tr != nil {
		t.Error("NewTrace(nil) must return nil")
	}
}

func TestNilTraceSafe(t *testing.T) {
	var tr *Trace
	tr.Begin("parse")
	tr.End()
	tr.SetQueryID(1)
	tr.Event("E", "")
	tr.Flush()
	if tr.QueryID() != 0 {
		t.Error("nil trace QueryID must be 0")
	}
	ctx := WithTrace(context.Background(), nil)
	if TraceFrom(ctx) != nil {
		t.Error("WithTrace(nil) must be a no-op")
	}
}

func TestTraceLifecycle(t *testing.T) {
	c := New(16)
	tr := NewTrace(c)
	tr.Begin("parse")
	tr.Begin("analyze") // implicitly ends parse
	tr.End()
	tr.Begin("execute")
	tr.SetQueryID(42)
	tr.Event("JOIN_SPILLED", "inner=big")
	tr.Flush() // ends execute, stamps ids, publishes

	phases := c.Phases()
	if len(phases) != 3 {
		t.Fatalf("got %d phases, want 3", len(phases))
	}
	wantNames := []string{"parse", "analyze", "execute"}
	for i, p := range phases {
		if p.Phase != wantNames[i] || p.Seq != i || p.QueryID != 42 {
			t.Errorf("phases[%d] = %+v, want {Phase:%s Seq:%d QueryID:42}", i, p, wantNames[i], i)
		}
		if p.Start.IsZero() || p.Duration < 0 {
			t.Errorf("phases[%d] has bad timing: %+v", i, p)
		}
	}
	// Monotone starts, contiguous seq.
	for i := 1; i < len(phases); i++ {
		if phases[i].Start.Before(phases[i-1].Start) {
			t.Errorf("phase %d starts before phase %d", i, i-1)
		}
	}
	evs := c.Events()
	if len(evs) != 1 || evs[0].QueryID != 42 || evs[0].Type != "JOIN_SPILLED" {
		t.Errorf("Events() = %+v", evs)
	}
	if tr.QueryID() != 42 {
		t.Errorf("QueryID() = %d, want 42", tr.QueryID())
	}
}

func TestTraceEndWithoutBegin(t *testing.T) {
	tr := NewTrace(New(4))
	tr.End() // no open phase: must be a no-op
	tr.Flush()
	if got := tr.col.Phases(); len(got) != 0 {
		t.Errorf("got %d phases, want 0", len(got))
	}
}

func TestContextRoundTrip(t *testing.T) {
	tr := NewTrace(New(4))
	ctx := WithTrace(context.Background(), tr)
	if TraceFrom(ctx) != tr {
		t.Error("TraceFrom did not return the attached trace")
	}
	if TraceFrom(context.Background()) != nil {
		t.Error("TraceFrom on empty ctx must be nil")
	}
}

func TestDefaultCapacity(t *testing.T) {
	for _, st := range New(0).Stats() {
		if st.Cap != DefaultCapacity {
			t.Errorf("%s cap = %d, want %d", st.Stream, st.Cap, DefaultCapacity)
		}
	}
}
