package resmgr

import (
	"context"
	"fmt"
	"testing"
	"time"

	"repro/internal/metrics"
)

func opRecs(n int, op string) []OpProfile {
	out := make([]OpProfile, n)
	for i := range out {
		out[i] = OpProfile{NodeID: i, Depth: i, Op: LazyText(func() string { return fmt.Sprintf("%s-%d", op, i) }), Rows: int64(i)}
	}
	return out
}

// TestOpProfileRetainedWhenProfiled: a profiled run's records land in the
// ring, stamped with the query's profile id.
func TestOpProfileRetainedWhenProfiled(t *testing.T) {
	g := NewGovernor(Config{PoolBytes: 1 << 20})
	gr, err := g.Admit(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	gr.SetOpProfile(opRecs(3, "scan"), true)
	gr.Release()

	got := g.OpProfiles()
	if len(got) != 3 {
		t.Fatalf("retained %d records, want 3", len(got))
	}
	profs := g.Profiles()
	wantID := profs[len(profs)-1].ID
	for i, r := range got {
		if r.QueryID != wantID {
			t.Errorf("record %d QueryID = %d, want %d (the query_profiles id)", i, r.QueryID, wantID)
		}
		if r.Op.String() != fmt.Sprintf("scan-%d", i) {
			t.Errorf("record %d = %+v, out of order", i, r)
		}
	}
}

// TestOpProfileDroppedWhenFastAndUnprofiled: an unprofiled run under the
// slow-query threshold leaves nothing behind.
func TestOpProfileDroppedWhenFastAndUnprofiled(t *testing.T) {
	g := NewGovernor(Config{PoolBytes: 1 << 20}) // default threshold: 1s
	gr, err := g.Admit(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	gr.SetOpProfile(opRecs(2, "scan"), false)
	gr.Release()
	if got := g.OpProfiles(); len(got) != 0 {
		t.Fatalf("retained %d records from a fast unprofiled run, want 0", len(got))
	}
}

// TestOpProfileRetainedWhenSlow: crossing the slow-query threshold
// auto-retains an unprofiled run's records and counts a slow query.
func TestOpProfileRetainedWhenSlow(t *testing.T) {
	g := NewGovernor(Config{PoolBytes: 1 << 20, SlowQueryThreshold: time.Nanosecond})
	before := metrics.SlowQueries.Value()
	gr, err := g.Admit(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	gr.SetOpProfile(opRecs(2, "join"), false)
	time.Sleep(time.Microsecond)
	gr.Release()
	if got := g.OpProfiles(); len(got) != 2 {
		t.Fatalf("retained %d records from a slow run, want 2", len(got))
	}
	if d := metrics.SlowQueries.Value() - before; d != 1 {
		t.Errorf("slow_queries moved by %d, want 1", d)
	}
}

// TestOpProfileSlowDisabled: a negative threshold turns slow-query
// retention off entirely.
func TestOpProfileSlowDisabled(t *testing.T) {
	g := NewGovernor(Config{PoolBytes: 1 << 20, SlowQueryThreshold: -1})
	gr, err := g.Admit(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	gr.SetOpProfile(opRecs(1, "sort"), false)
	time.Sleep(time.Microsecond)
	gr.Release()
	if got := g.OpProfiles(); len(got) != 0 {
		t.Fatalf("retained %d records with retention disabled, want 0", len(got))
	}
}

// TestSetOpProfileNilGrant: ungoverned runs (virtual-table-only queries)
// carry a nil grant; attaching must be a safe no-op.
func TestSetOpProfileNilGrant(t *testing.T) {
	var gr *Grant
	gr.SetOpProfile(opRecs(1, "scan"), true)
}
