package resmgr

import "sync"

// PlanText is plan display text — one operator's line, or a whole EXPLAIN
// tree — rendered at most once, and only if somebody reads it: describing
// an operator costs a fmt.Sprintf per predicate, and most statements' plans
// are never looked at. The zero value reads as "".
type PlanText struct{ t *planText }

type planText struct {
	once   sync.Once
	render func() string
	text   string
}

// LazyText is text that render produces on first read.
func LazyText(render func() string) PlanText { return PlanText{&planText{render: render}} }

// String implements fmt.Stringer.
func (p PlanText) String() string {
	if p.t == nil {
		return ""
	}
	p.t.once.Do(func() { p.t.text, p.t.render = p.t.render(), nil })
	return p.t.text
}

// OpProfile is one operator's execution profile record, produced by the
// execution engine after a query finishes (exec collects it from the plan's
// collectors; this package only defines the record so the dependency stays
// exec → resmgr). QueryID is stamped by the governor at release time with
// the query's profile id, making the record joinable to
// v_monitor.query_profiles.
// Retention: the engine attaches records to the grant via SetOpProfile; the
// governor keeps them in a bounded ring when the run was explicitly profiled
// (PROFILE <statement>) or when its wall time crossed the slow-query
// threshold, so v_monitor.execution_engine_profiles covers both deliberate
// investigation and after-the-fact "what was that slow query doing".
type OpProfile struct {
	// QueryID is the owning query's profile id (v_monitor.query_profiles).
	QueryID int64 `vt:"query_id"`
	// Node is the cluster node the operator ran on.
	Node string `vt:"node_name"`
	// NodeID is the operator's plan-node id (pre-order position in the
	// EXPLAIN tree); -1 for operators outside the numbered plan.
	NodeID int `vt:"plan_node_id"`
	// Depth is the operator's depth in the plan tree (root = 0).
	Depth int `vt:"depth"`
	// Op is the operator's Describe() line. Until it is read it holds on to
	// the operator; the governor reads it when it retains the record.
	Op PlanText `vt:"operator"`
	// EstRows is the optimizer's cardinality estimate for this node.
	EstRows int64 `vt:"est_rows"`
	// Batches and Rows count the operator's output.
	Batches int64 `vt:"batches"`
	Rows    int64 `vt:"rows_produced"`
	// WallUs is time spent inside Next, children included (timed mode only).
	WallUs int64 `vt:"wall_us"`
	// BlockedUs is exchange-port time spent waiting on upstream pumps
	// (timed mode only).
	BlockedUs int64 `vt:"blocked_us"`
	// Spills / SpilledBytes count this operator's externalizations.
	Spills       int64 `vt:"spills"`
	SpilledBytes int64 `vt:"spilled_bytes"`
	// AllocPeak is the operator's reported memory high-water in bytes.
	AllocPeak int64 `vt:"alloc_peak_bytes"`
}

// SetOpProfile attaches the executed plan's per-operator records to the
// grant before Release. timed marks an explicitly profiled run (PROFILE
// <statement>): those records always retain; untimed records retain only
// when the query runs past the governor's slow-query threshold. Must be
// called by the query's own goroutine before Release.
func (gr *Grant) SetOpProfile(recs []OpProfile, timed bool) {
	if gr == nil {
		return
	}
	gr.opRecs = recs
	gr.opProfiled = timed
}

// OpProfiles returns retained operator profiles, oldest first — the row
// source for v_monitor.execution_engine_profiles.
func (g *Governor) OpProfiles() []OpProfile { return g.opProfiles.Snapshot() }
