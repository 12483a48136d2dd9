// Package optimizer implements the V2Opt-style query planner (paper §6.2):
// it classifies the query's physical properties (column selectivity,
// projection sort order), chooses projections, orders joins star-style
// (most selective dimension first), pushes predicates into scans, places SIP
// filters, and costs alternatives with compression-aware I/O estimates.
package optimizer

import (
	"fmt"
	"slices"

	"repro/internal/catalog"
	"repro/internal/exec"
	"repro/internal/expr"
	"repro/internal/resmgr"
	"repro/internal/storage"
	"repro/internal/vector"
)

// Provider supplies the planner with metadata and per-projection storage.
type Provider interface {
	Catalog() *catalog.Catalog
	// ProjectionData returns the local storage of a projection (the node's
	// own data in a cluster, or the only data on a single node).
	ProjectionData(name string) (*storage.Manager, error)
}

// TableRef is one FROM-clause table.
type TableRef struct {
	Table *catalog.Table
	Alias string
}

// JoinCond is one equi-join condition between two FROM tables.
type JoinCond struct {
	LeftTbl  int // index into From
	LeftCol  int // column index within the left table's schema
	RightTbl int
	RightCol int
	// Type applies when the query has exactly two tables; N-way joins are
	// planned as INNER.
	Type exec.JoinType
}

// LogicalQuery is the analyzer's output: a bound, flat-schema query.
// The flat schema is the concatenation of the From tables' schemas in order;
// Where/Select/agg-arg expressions reference flat column indexes.
type LogicalQuery struct {
	From      []TableRef
	JoinConds []JoinCond

	Where expr.Expr

	// Plain (non-aggregate) queries: select list over the flat schema.
	SelectExprs []expr.Expr
	SelectNames []string

	// Aggregate queries: group keys (flat indexes) and aggregates (args over
	// the flat schema). Output is keys then aggs; PostProject (over that
	// output) optionally reshapes it, and Having filters it.
	GroupBy  []int
	Aggs     []exec.AggSpec
	Having   expr.Expr
	KeyNames []string

	// PostProject reshapes the final schema (nil = identity). For aggregate
	// queries its column refs index [keys..., aggs...].
	PostProject      []expr.Expr
	PostProjectNames []string

	OrderBy []vector.SortSpec // over the final output schema
	Offset  int64
	Limit   int64 // -1 = no limit

	Distinct bool
}

// IsAggregate reports whether the query aggregates.
func (q *LogicalQuery) IsAggregate() bool {
	return len(q.Aggs) > 0 || len(q.GroupBy) > 0
}

// flatOffsets returns the starting flat index of each table.
func (q *LogicalQuery) flatOffsets() []int {
	out := make([]int, len(q.From))
	off := 0
	for i, t := range q.From {
		out[i] = off
		off += t.Table.Schema.Len()
	}
	return out
}

// tableOfFlat maps a flat column index to (table index, column-in-table).
func (q *LogicalQuery) tableOfFlat(flat int) (int, int) {
	offs := q.flatOffsets()
	for i := len(offs) - 1; i >= 0; i-- {
		if flat >= offs[i] {
			return i, flat - offs[i]
		}
	}
	return -1, -1
}

// PlanOpts tunes planning.
type PlanOpts struct {
	// Parallelism enables intra-node parallel plans when > 1: the Figure 3
	// aggregation shape, partitioned parallel hash joins, parallel sorts
	// and parallel DISTINCT.
	Parallelism int
	// ForceParallel drops the MinParallelRows cardinality gate so parallel
	// shapes plan even for tiny inputs (tests and the parallel-vs-serial
	// differential oracle, which needs parallel plans on small fixtures).
	ForceParallel bool
	// NoSIP disables sideways information passing (ablation benches).
	NoSIP bool
	// NoPrepass disables prepass partial aggregation (ablation benches).
	NoPrepass bool
	// ExcludeProjections skips these projections (buddy replan on node-down
	// uses this to avoid projections whose segments are unavailable).
	ExcludeProjections map[string]bool
	// AllowBuddies lets the planner choose buddy projections (used when
	// replanning a down node's segment onto its buddy, paper §6.2:
	// "the optimizer replans the query by replacing ... the projections on
	// unavailable nodes with their corresponding buddy projections").
	AllowBuddies bool
	// Profile runs the plan with wall-clock operator timing (PROFILE
	// <statement>, or the engine's Profile option) and always retains the
	// per-operator records. Planning is unaffected; the flag rides here
	// because PlanOpts is the per-statement options record the runner sees.
	Profile bool
	// CachedProbe, when set, supplies the probe metadata (projection
	// choice, cost estimates) from a plan-cache hit so the runner skips
	// the placement-probe Plan call entirely. Per-node execution plans are
	// still built fresh against the live catalog — only the probe is
	// elided.
	CachedProbe *ProbeInfo
}

// ProbeInfo is the slice of a placement probe's PhysicalPlan that the
// query runner actually consumes: projection choice (placement, replication
// and colocation checks) and the cost estimates behind admission sizing.
// It is what the plan cache stores and replays.
type ProbeInfo struct {
	ProjectionsUsed []string
	EstRows         int64
	EstMemBytes     int64
	Workers         int
}

// PhysicalPlan is a planned, executable query.
type PhysicalPlan struct {
	Root exec.Operator
	// ProjectionsUsed records the chosen projection per From table.
	ProjectionsUsed []string
	// EstCost is the compression-aware I/O cost estimate (bytes).
	EstCost float64
	// Notes explains planning decisions for EXPLAIN output.
	Notes []string

	// EstRows and EstBytes are the estimated output cardinality and size;
	// EstMemBytes is the estimated working memory of the whole plan.
	EstRows     int64
	EstBytes    int64
	EstMemBytes int64

	// Workers is the largest number of worker pipelines any parallel shape
	// in the plan runs concurrently (1 = fully serial). Admission uses it
	// to split the query's memory grant per worker, so a parallel plan's
	// workers share one grant instead of multiplying it.
	Workers int

	estInput float64 // running row estimate through the join tree
	memAcc   float64 // accumulated operator working-set bytes
}

// Explain renders the plan tree plus planner notes.
func (p *PhysicalPlan) Explain() string {
	return p.ExplainRecords(exec.CollectProfiles(p.Root, ""))
}

// ExplainRecords is Explain over operator records already collected from
// the plan, so a statement that keeps them describes each operator once.
func (p *PhysicalPlan) ExplainRecords(recs []resmgr.OpProfile) string {
	out := exec.FormatPlan(recs)
	for _, n := range p.Notes {
		out += "-- " + n + "\n"
	}
	return out
}

// columnSet tracks needed columns per table.
type columnSet map[int]map[int]bool // table idx -> col idx set

func (cs columnSet) add(tbl, col int) {
	if cs[tbl] == nil {
		cs[tbl] = map[int]bool{}
	}
	cs[tbl][col] = true
}

func (cs columnSet) sorted(tbl int) []int {
	var out []int
	for c := range cs[tbl] {
		out = append(out, c)
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// neededColumns computes, per table, every column the query touches.
func (q *LogicalQuery) neededColumns() columnSet {
	cs := columnSet{}
	addExpr := func(e expr.Expr) {
		if e == nil {
			return
		}
		for _, f := range expr.ColumnsOf(e) {
			t, c := q.tableOfFlat(f)
			if t >= 0 {
				cs.add(t, c)
			}
		}
	}
	addExpr(q.Where)
	for _, e := range q.SelectExprs {
		addExpr(e)
	}
	for i := range q.Aggs {
		if q.Aggs[i].Arg != nil {
			addExpr(q.Aggs[i].Arg)
		}
	}
	for _, g := range q.GroupBy {
		t, c := q.tableOfFlat(g)
		if t >= 0 {
			cs.add(t, c)
		}
	}
	for _, jc := range q.JoinConds {
		cs.add(jc.LeftTbl, jc.LeftCol)
		cs.add(jc.RightTbl, jc.RightCol)
	}
	return cs
}

// readAbove returns the flat columns the operators above a query's joins
// read: the select list, aggregate arguments, GROUP BY and the residual
// conjuncts.
func (q *LogicalQuery) readAbove(residual []expr.Expr) map[int]bool {
	read := map[int]bool{}
	for _, g := range q.GroupBy {
		read[g] = true
	}
	exprs := append(slices.Clone(q.SelectExprs), residual...)
	for i := range q.Aggs {
		if q.Aggs[i].Arg != nil {
			exprs = append(exprs, q.Aggs[i].Arg)
		}
	}
	for _, e := range exprs {
		for _, f := range expr.ColumnsOf(e) {
			read[f] = true
		}
	}
	return read
}

// splitConjuncts partitions the WHERE clause into per-table conjuncts (all
// columns from one table) and cross-table residuals.
func (q *LogicalQuery) splitConjuncts() (perTable map[int][]expr.Expr, residual []expr.Expr) {
	perTable = map[int][]expr.Expr{}
	for _, c := range expr.Conjuncts(q.Where) {
		tbl := -2
		for _, f := range expr.ColumnsOf(c) {
			t, _ := q.tableOfFlat(f)
			if tbl == -2 {
				tbl = t
			} else if tbl != t {
				tbl = -1
			}
		}
		if tbl >= 0 {
			perTable[tbl] = append(perTable[tbl], c)
		} else if tbl == -2 {
			// Constant conjunct: attach to table 0.
			perTable[0] = append(perTable[0], c)
		} else {
			residual = append(residual, c)
		}
	}
	return perTable, residual
}

var errNoProjection = fmt.Errorf("optimizer: no projection covers the required columns")

// chooseProjection picks the best projection of a table for the needed
// columns and local predicates: it must cover the columns; ties break by
// (1) sort-order match with predicate/grouping columns, then (2)
// narrowness.
func chooseProjection(p Provider, t *catalog.Table, needed []int, predCols map[int]bool, preferSortCols []int, opts PlanOpts) (*catalog.Projection, *storage.Manager, error) {
	var best *catalog.Projection
	var bestMgr *storage.Manager
	bestScore := -1.0
	for _, proj := range p.Catalog().ProjectionsFor(t.Name) {
		if opts.ExcludeProjections[proj.Name] || (proj.IsBuddy && !opts.AllowBuddies) {
			continue
		}
		covers := true
		for _, c := range needed {
			if proj.Schema.ColIndex(t.Schema.Col(c).Name) < 0 {
				covers = false
				break
			}
		}
		if !covers {
			continue
		}
		mgr, err := p.ProjectionData(proj.Name)
		if err != nil {
			continue
		}
		score := 0.0
		// Sort-order match: predicate or grouping columns leading the sort
		// order make scans prunable and aggregation one-pass.
		if len(proj.SortOrder) > 0 {
			lead := proj.SortOrder[0]
			leadIdx := t.Schema.ColIndex(lead)
			if predCols[leadIdx] {
				score += 10
			}
			for i, pc := range preferSortCols {
				if i < len(proj.SortOrder) && t.Schema.ColIndex(proj.SortOrder[i]) == pc {
					score += 5
				}
			}
		}
		// Narrowness: fewer stored columns means less I/O.
		score += 2.0 / float64(len(proj.Columns))
		if score > bestScore {
			best, bestMgr, bestScore = proj, mgr, score
		}
	}
	if best == nil {
		return nil, nil, fmt.Errorf("%w (table %s, columns %v)", errNoProjection, t.Name, needed)
	}
	return best, bestMgr, nil
}

// estimateScanCost is the compression-aware I/O estimate: encoded bytes of
// the needed columns, scaled by predicate selectivity (block pruning).
func estimateScanCost(mgr *storage.Manager, proj *catalog.Projection, needed int, selectivity float64) float64 {
	total := float64(mgr.TotalBytes())
	frac := 1.0
	if n := len(proj.Columns); n > 0 {
		frac = float64(needed) / float64(n)
	}
	return total * frac * (0.5 + selectivity/2)
}
