package exec

import (
	"strings"
	"testing"

	"repro/internal/expr"
	"repro/internal/resmgr"
	"repro/internal/types"
)

// TestPlanProfileHelpers drives the plan-tree helpers the planner and
// PROFILE use over Figure 3's shape — two fanned scan workers, an exchange
// resegmenting on the group key, a GroupBy per port under a ParallelUnion:
// node ids follow EXPLAIN's pre-order with the fan folded into one node,
// estimates flow from the tagged anchors to the untagged nodes, and the
// collected records render one annotated line per node.
func TestPlanProfileHelpers(t *testing.T) {
	f := newExecFixture(t, 256, 8, 2)
	workers := f.scan(1, 2).Fan(2)
	for _, w := range workers {
		SetEstRows(w, 128)
	}
	ex := NewExchange(workers, 2, []int{0})
	keys := []expr.Expr{expr.NewColRef(0, types.Int64, "grp")}
	aggs := []AggSpec{{Kind: AggCountStar, Name: "n"}}
	var finals []Operator
	for _, port := range ex.Ports() {
		finals = append(finals, NewGroupBy(port, keys, []string{"grp"}, aggs))
	}
	SetEstRows(finals[0], 8)
	root := NewParallelUnion(finals...)

	// Union, GroupBy, Recv 0, the folded scans, GroupBy, Recv 1.
	if n := AssignNodeIDs(root); n != 6 {
		t.Fatalf("AssignNodeIDs = %d nodes, want 6", n)
	}
	port1 := children(finals[1])[0]
	for _, c := range []struct {
		op   Operator
		want int
	}{{root, 0}, {finals[0], 1}, {workers[0], 3}, {workers[1], 3}, {finals[1], 4}, {port1, 5}} {
		if got := c.op.(Profiled).Prof().NodeID; got != c.want {
			t.Errorf("%s: node %d, want %d", c.op.Describe(), got, c.want)
		}
	}

	FinalizeEstimates(root)
	for _, c := range []struct {
		op   Operator
		want int64
	}{
		{finals[0], 8},   // tagged: kept
		{port1, 128},     // the exchange's 256 input rows over 2 ports
		{finals[1], 128}, // untagged: its child's
		{root, 136},      // untagged, several children: their sum
	} {
		if got := EstRowsOf(c.op); got != c.want {
			t.Errorf("%s: est rows %d, want %d", c.op.Describe(), got, c.want)
		}
	}
	// An operator without a collector has no estimate to set or read.
	src := &cancelSource{schema: cancelSchema()}
	SetEstRows(src, 5)
	if got := EstRowsOf(src); got != 0 {
		t.Errorf("EstRowsOf(untagged double) = %d", got)
	}

	ctx := f.ctx()
	ctx.ProfTimes = true
	if rows, err := Drain(ctx, root); err != nil || len(rows) != 8 {
		t.Fatalf("%d groups, %v", len(rows), err)
	}
	recs := CollectProfiles(root, "node0001")
	lines := strings.Split(strings.TrimSuffix(FormatProfiles(recs), "\n"), "\n")
	if len(recs) != 6 || len(lines) != 6 {
		t.Fatalf("%d records, %d lines:\n%s", len(recs), len(lines), strings.Join(lines, "\n"))
	}
	scan := lines[3]
	if !strings.HasPrefix(scan, "      Scan ") || !strings.Contains(scan, "workers=2 (actual rows=256 est rows=256 ") ||
		!strings.Contains(scan, " time=") {
		t.Errorf("folded scan line = %q", scan)
	}
	if !strings.HasPrefix(lines[0], "ParallelUnion ways=2 (actual rows=8 est rows=136 ") {
		t.Errorf("root line = %q", lines[0])
	}

	// The counters a run may leave at zero render only when recorded.
	got := FormatProfiles([]resmgr.OpProfile{{
		Depth: 1, Op: resmgr.LazyText(func() string { return "Sort" }),
		Rows: 3, EstRows: 2, Batches: 1, Spills: 2, SpilledBytes: 100, AllocPeak: 64, WallUs: 1500, BlockedUs: 250,
	}})
	if want := "  Sort (actual rows=3 est rows=2 batches=1 spills=2 spilled=100 mem=64 time=1.500ms blocked=0.250ms)\n"; got != want {
		t.Errorf("FormatProfiles = %q, want %q", got, want)
	}
}
