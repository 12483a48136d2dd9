package bench

import (
	"fmt"
	"sort"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dc"
)

// TestContinuousIngestDataCollector runs the continuous-ingest scenario
// (designed for -race) with the Data Collector enabled and audits the rings
// afterwards: with capacity comfortably above the event volume nothing may
// be lost, and each admitted query's phase records must carry contiguous
// sequence numbers with monotone start times. A second, tiny-capacity run
// checks that overflow is absorbed by the dropped counters, never a panic.
func TestContinuousIngestDataCollector(t *testing.T) {
	dur := 400 * time.Millisecond
	if testing.Short() {
		dur = 200 * time.Millisecond
	}
	inspected := false
	_, err := RunContinuousIngest(IngestConfig{
		Dir:        t.TempDir(),
		Duration:   dur,
		Seed:       11,
		DCCapacity: 1 << 17,
		Inspect: func(db *core.Database) error {
			inspected = true
			col := db.Collector()
			for _, st := range col.Stats() {
				if st.Dropped != 0 {
					return fmt.Errorf("ring %q dropped %d events below capacity (appended %d, cap %d)",
						st.Stream, st.Dropped, st.Appended, st.Cap)
				}
				if int64(st.Len) != st.Appended {
					return fmt.Errorf("ring %q lost events: len %d != appended %d with zero drops",
						st.Stream, st.Len, st.Appended)
				}
			}
			if len(col.MoverEvents()) == 0 {
				return fmt.Errorf("no tuple-mover events recorded despite continuous moveouts")
			}
			return checkPhaseStreams(col.Phases())
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !inspected {
		t.Fatal("Inspect hook never ran")
	}

	// Overflow run: rings far smaller than the event volume must shed the
	// oldest entries and count them, with every stream still intact.
	_, err = RunContinuousIngest(IngestConfig{
		Dir:        t.TempDir(),
		Duration:   dur,
		Seed:       13,
		DCCapacity: 4,
		Inspect: func(db *core.Database) error {
			// The scenario has drained and a monitor query appends to the
			// rings only as it ends (its trace flushes after the scan), so
			// on a session opened beforehand the table must report exactly
			// what the collector does.
			sess := db.NewSession()
			defer sess.Close()
			stats := db.Collector().Stats()
			res, err := sess.Execute(`SELECT stream, dropped FROM v_monitor.data_collector`)
			if err != nil {
				return err
			}
			var dropped int64
			for i, st := range stats {
				if st.Len > st.Cap {
					return fmt.Errorf("ring %q over capacity: len %d > cap %d", st.Stream, st.Len, st.Cap)
				}
				if row := res.Rows[i]; row[0].S != st.Stream || row[1].I != st.Dropped {
					return fmt.Errorf("v_monitor.data_collector row %d = %v, want stream %q with %d dropped",
						i, row, st.Stream, st.Dropped)
				}
				dropped += st.Dropped
			}
			if dropped == 0 {
				return fmt.Errorf("expected overflow drops with capacity 4, got none: %+v", stats)
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
}

// checkPhaseStreams verifies per-query phase integrity: contiguous
// sequence numbers starting at 0 and non-decreasing start times. Query id 0
// aggregates statements that bypassed admission (DDL, monitor queries), so
// only admitted queries (id > 0) are held to the per-query invariants.
func checkPhaseStreams(phases []dc.PhaseEvent) error {
	byQuery := map[int64][]dc.PhaseEvent{}
	for _, p := range phases {
		if p.QueryID > 0 {
			byQuery[p.QueryID] = append(byQuery[p.QueryID], p)
		}
	}
	if len(byQuery) == 0 {
		return fmt.Errorf("no admitted-query phase events recorded")
	}
	for id, ps := range byQuery {
		sort.Slice(ps, func(i, j int) bool { return ps[i].Seq < ps[j].Seq })
		for i, p := range ps {
			if p.Seq != i {
				return fmt.Errorf("query %d: phase seq gap: want %d, got %d (%q)", id, i, p.Seq, p.Phase)
			}
			if i > 0 && p.Start.Before(ps[i-1].Start) {
				return fmt.Errorf("query %d: phase %q starts at %v, before prior phase %q at %v",
					id, p.Phase, p.Start, ps[i-1].Phase, ps[i-1].Start)
			}
		}
	}
	return nil
}
