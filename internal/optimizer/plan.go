package optimizer

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/catalog"
	"repro/internal/exec"
	"repro/internal/expr"
	"repro/internal/storage"
)

// tableScan is the planner's working state for one FROM table.
type tableScan struct {
	tblIdx      int
	proj        *catalog.Projection // nil for virtual (system) tables
	mgr         *storage.Manager    // nil for virtual tables
	cols        []int               // table-schema column indexes produced, in order
	colToOut    map[int]int         // table col -> scan output index
	conjuncts   []expr.Expr         // flat-schema local predicates
	selectivity float64
	rows        int64
	est         tableEstimate // statistics-backed estimation state
	estRows     float64       // rows surviving local predicates
	scan        *exec.Scan    // nil for virtual tables
	op          exec.Operator // the table's access path (scan, or virtual pipeline)
	workers     pipes         // the fan's worker scans, once one opens over scan
}

// pipes are the stream a plan is built on: one pipeline, or — while a fan
// is open — the identical worker pipelines over one shared scan
// (exec/fan.go). Every per-row operator (filter, project, hash-join probe)
// is added to each of them, until an operator that needs the whole stream
// closes the fan.
type pipes []exec.Operator

// each replaces every pipeline by f of it.
func (ps pipes) each(f func(exec.Operator) exec.Operator) {
	for i, op := range ps {
		ps[i] = f(op)
	}
}

// setEst tags the pipelines' tops with their shares of est rows.
func (ps pipes) setEst(est float64) {
	for _, op := range ps {
		exec.SetEstRows(op, int64(est/float64(len(ps))+0.5))
	}
}

// Plan compiles a logical query into a physical operator tree.
func Plan(p Provider, q *LogicalQuery, opts PlanOpts) (*PhysicalPlan, error) {
	if len(q.From) == 0 {
		return nil, fmt.Errorf("optimizer: query has no FROM tables")
	}
	plan := &PhysicalPlan{}
	needed := q.neededColumns()
	perTable, residual := q.splitConjuncts()
	offs := q.flatOffsets()

	// Prejoin projection shortcut (paper §3.3): a denormalized projection
	// can answer a fact-dimension join with a single scan. Prejoin scans
	// keep the heuristic estimator: their storage mixes two tables' columns,
	// so per-table statistics do not apply directly.
	if op, colMap, note, ok := tryPrejoin(p, q, needed, perTable, opts); ok {
		plan.Notes = append(plan.Notes, note)
		if scan, isScan := op.(*exec.Scan); isScan {
			rows := scan.Mgr.RowCount() + int64(scan.Mgr.WOS().Len())
			sel := 1.0
			for _, conjs := range perTable {
				sel *= selectivityScore(conjs)
			}
			plan.estInput = float64(rows) * sel
			plan.memAcc = plan.estInput * float64(rowWidthOf(op.Schema()))
			exec.SetEstRows(op, int64(plan.estInput+0.5))
		}
		return finishPlan(p, q, plan, pipes{op}, colMap, residual, opts)
	}

	// Build per-table scans.
	scans := make([]*tableScan, len(q.From))
	plan.StatsBacked = true
	for i := range q.From {
		ts, err := buildTableScan(p, q, i, needed, perTable[i], opts)
		if err != nil {
			return nil, err
		}
		scans[i] = ts
		if ts.proj != nil {
			plan.ProjectionsUsed = append(plan.ProjectionsUsed, ts.proj.Name)
			plan.EstCost += estimateScanCost(ts.mgr, ts.proj, len(ts.cols), ts.selectivity)
			plan.Notes = append(plan.Notes, fmt.Sprintf("est: scan %s ~%s of %d rows (%s)",
				ts.proj.Name, fmtEst(ts.estRows), ts.rows, estSource(ts.est.analyzed)))
		}
		if !ts.est.analyzed {
			plan.StatsBacked = false
		}
		// Every scanned stream occupies operator memory downstream.
		plan.memAcc += ts.estRows * float64(rowWidthOf(ts.op.Schema()))
	}

	if len(scans) == 1 {
		ts := scans[0]
		colMap := map[int]int{}
		for c, out := range ts.colToOut {
			colMap[offs[0]+c] = out
		}
		plan.estInput = ts.estRows
		return finishPlan(p, q, plan, pipes{ts.op}, colMap, residual, opts)
	}

	// Star-style join ordering (paper §6.2): the largest table is the fact;
	// dimensions join in increasing effective size (selectivity x rows) so
	// the most selective dimensions filter first.
	factIdx := 0
	for i, ts := range scans {
		if ts.rows > scans[factIdx].rows {
			factIdx = i
		}
	}
	var dims []*tableScan
	for i, ts := range scans {
		if i != factIdx {
			dims = append(dims, ts)
		}
	}
	sort.SliceStable(dims, func(i, j int) bool {
		return dims[i].selectivity*float64(dims[i].rows) < dims[j].selectivity*float64(dims[j].rows)
	})
	plan.Notes = append(plan.Notes, fmt.Sprintf("fact table: %s; dimension order: %v",
		q.From[factIdx].Table.Name, dimNames(q, dims)))

	// colMap: flat index -> current combined output index.
	fact := scans[factIdx]
	colMap := map[int]int{}
	for c, out := range fact.colToOut {
		colMap[offs[factIdx]+c] = out
	}
	joined := map[int]bool{factIdx: true}
	cur := pipes{fact.op}
	curWidth := len(fact.cols)
	runningEst := fact.estRows

	for i, dim := range dims {
		conds := condsConnecting(q, joined, dim.tblIdx)
		if len(conds) == 0 {
			return nil, fmt.Errorf("optimizer: no join condition connects table %s (cross joins unsupported)",
				q.From[dim.tblIdx].Table.Name)
		}
		var outerKeys, innerKeys []int
		for _, jc := range conds {
			of, dc := jc.LeftTbl, jc.LeftCol
			df := jc.RightCol
			if jc.RightTbl != dim.tblIdx {
				// condition written dim-first: swap sides
				of, dc = jc.RightTbl, jc.RightCol
				df = jc.LeftCol
			}
			outerFlat := offs[of] + dc
			out, ok := colMap[outerFlat]
			if !ok {
				return nil, fmt.Errorf("optimizer: join key column lost during planning")
			}
			outerKeys = append(outerKeys, out)
			innerKeys = append(innerKeys, dim.colToOut[df])
		}
		jt := exec.InnerJoin
		if len(q.From) == 2 {
			jt = q.JoinConds[0].Type
		}
		dimDesc := q.From[dim.tblIdx].Table.Name
		if dim.proj != nil {
			dimDesc = dim.proj.Name
		}
		// Merge join when both sides are sorted on the join keys
		// (paper §6.2: merge joins on sorted, compressed columns first).
		if mj, ok := tryMergeJoin(q, jt, fact, dim, cur[0], outerKeys, innerKeys); ok {
			cur[0] = mj
			plan.Notes = append(plan.Notes, fmt.Sprintf("merge join with %s (sort orders aligned)", dimDesc))
		} else {
			if i == 0 && fact.scan != nil {
				// The fact scan drives a hash join: a fan may open over it.
				if ws := openFan(plan, fact.scan, fact.estRows, opts); ws != nil {
					cur, fact.workers = ws, slices.Clone(ws)
				}
			}
			if jt == exec.RightOuterJoin || jt == exec.FullOuterJoin {
				// Unmatched build rows are a property of the whole probe
				// stream: these joins probe it serially.
				cur = closeFan(plan, cur, jt.String()+" join")
			}
			hjs, err := exec.FanHashJoin(jt, cur, dim.op, outerKeys, innerKeys)
			if err != nil {
				return nil, err
			}
			// SIP (paper §6.1): push a build-side key filter into the scan
			// owning every outer key, for join types that discard
			// unmatched probe rows.
			if !opts.NoSIP && (jt == exec.InnerJoin || jt == exec.SemiJoin || jt == exec.RightOuterJoin) {
				if sip := trySIP(fact, outerKeys, dimDesc); sip != nil {
					for _, hj := range hjs {
						hj.SIP = sip
					}
					plan.Notes = append(plan.Notes, "SIP filter pushed to scan of "+fact.proj.Name)
				}
			}
			for w, hj := range hjs {
				cur[w] = hj
			}
		}
		if jt != exec.SemiJoin && jt != exec.AntiJoin {
			for c, out := range dim.colToOut {
				colMap[offs[dim.tblIdx]+c] = curWidth + out
			}
			curWidth += len(dim.cols)
		}
		joined[dim.tblIdx] = true

		// Join output cardinality from the key columns' distinct counts
		// (paper §6.2); unknown NDVs assume the star-schema N:1 shape.
		jc := conds[0]
		ot, oc, dc := jc.LeftTbl, jc.LeftCol, jc.RightCol
		if jc.RightTbl != dim.tblIdx {
			ot, oc, dc = jc.RightTbl, jc.RightCol, jc.LeftCol
		}
		ndvOuter := ndvOf(p.Catalog(), q.From[ot].Table, oc)
		ndvDim := ndvOf(p.Catalog(), q.From[dim.tblIdx].Table, dc)
		runningEst = estimateJoinRows(runningEst, dim.estRows, ndvOuter, ndvDim)
		cur.setEst(runningEst)
		plan.Notes = append(plan.Notes, fmt.Sprintf("est: join %s ~%s rows (%s)",
			dimDesc, fmtEst(runningEst), estSource(ndvOuter > 0 || ndvDim > 0)))
	}
	plan.estInput = runningEst
	return finishPlan(p, q, plan, cur, colMap, residual, opts)
}

// openFan opens a fan over the scan driving the plan (exec/fan.go): w
// worker scans sharing one cursor, where w is parallelWays of the scan's
// estimated rows; nil when that is 1. Callers open a fan only under an
// operator a fan serves — a hash join, an aggregate, DISTINCT or ORDER BY —
// and never over a merge-sorted scan.
func openFan(plan *PhysicalPlan, scan *exec.Scan, est float64, opts PlanOpts) pipes {
	w := parallelWays(opts, est)
	if w < 2 {
		return nil
	}
	plan.noteWorkers(w)
	plan.Notes = append(plan.Notes, fmt.Sprintf(
		"fan: %d worker pipelines claim the blocks of %s from one shared scan", w, scan.Projection))
	scans := pipes(scan.Fan(w))
	scans.setEst(est)
	return scans
}

// closeFan ends an open fan at an operator that needs the whole stream and
// no exchange of its own: the workers' streams meet in a ParallelUnion.
func closeFan(plan *PhysicalPlan, cur pipes, at string) pipes {
	if len(cur) == 1 {
		return cur
	}
	plan.Notes = append(plan.Notes, fmt.Sprintf("fan closes at %s: ParallelUnion of %d workers", at, len(cur)))
	return pipes{exec.NewParallelUnion(cur...)}
}

func dimNames(q *LogicalQuery, dims []*tableScan) []string {
	out := make([]string, len(dims))
	for i, d := range dims {
		out[i] = q.From[d.tblIdx].Table.Name
	}
	return out
}

func condsConnecting(q *LogicalQuery, joined map[int]bool, dim int) []JoinCond {
	var out []JoinCond
	for _, jc := range q.JoinConds {
		if joined[jc.LeftTbl] && jc.RightTbl == dim {
			out = append(out, jc)
		} else if joined[jc.RightTbl] && jc.LeftTbl == dim {
			out = append(out, jc)
		}
	}
	return out
}

// buildTableScan chooses the projection and constructs the scan for a table.
// Virtual (system) tables get a VirtualScan pipeline instead of a
// projection-backed storage scan.
func buildTableScan(p Provider, q *LogicalQuery, tblIdx int, needed columnSet, conjuncts []expr.Expr, opts PlanOpts) (*tableScan, error) {
	t := q.From[tblIdx].Table
	offs := q.flatOffsets()
	cols := needed.sorted(tblIdx)
	if len(cols) == 0 {
		// A table contributing nothing still needs one column to count rows.
		cols = []int{0}
	}
	if vt := p.Catalog().Virtual(t.Name); vt != nil {
		return buildVirtualScan(q, tblIdx, t, vt, cols, conjuncts, offs)
	}
	predCols := map[int]bool{}
	for _, c := range conjuncts {
		for _, f := range expr.ColumnsOf(c) {
			tb, cc := q.tableOfFlat(f)
			if tb == tblIdx {
				predCols[cc] = true
			}
		}
	}
	// Prefer a sort order matching group-by columns of this table.
	var preferSort []int
	for _, g := range q.GroupBy {
		tb, cc := q.tableOfFlat(g)
		if tb == tblIdx {
			preferSort = append(preferSort, cc)
		}
	}
	est := estimateTable(p.Catalog(), t, conjuncts, offs[tblIdx])
	proj, mgr, err := chooseProjection(p, t, cols, predCols, preferSort, est, opts)
	if err != nil {
		return nil, err
	}
	// Map table columns to projection-schema indexes for the scan.
	projCols := make([]int, len(cols))
	for i, c := range cols {
		pi := proj.Schema.ColIndex(t.Schema.Col(c).Name)
		if pi < 0 {
			return nil, fmt.Errorf("optimizer: projection %s lost column %s", proj.Name, t.Schema.Col(c).Name)
		}
		projCols[i] = pi
	}
	scan := exec.NewScan(proj.Name, mgr, proj.Schema, projCols)
	// The sort key as output columns — the longest prefix the scan reads.
	// Every container is written in that order, which is what lets a
	// predicate on the leading column seek (paper §3.1).
	for _, k := range proj.SortKey() {
		i := slices.Index(projCols, k)
		if i < 0 {
			break
		}
		scan.SortKey = append(scan.SortKey, i)
	}
	ts := &tableScan{
		tblIdx: tblIdx, proj: proj, mgr: mgr, cols: cols,
		colToOut: map[int]int{}, conjuncts: conjuncts,
		selectivity: est.sel,
		rows:        mgr.RowCount() + int64(mgr.WOS().Len()),
		est:         est,
		scan:        scan,
	}
	ts.estRows = float64(ts.rows) * est.sel
	exec.SetEstRows(scan, int64(ts.estRows+0.5))
	for i, c := range cols {
		ts.colToOut[c] = i
	}
	// Push local predicates into the scan, remapped flat -> scan output.
	if len(conjuncts) > 0 {
		m := map[int]int{}
		for c, out := range ts.colToOut {
			m[offs[tblIdx]+c] = out
		}
		pred, err := expr.Remap(expr.MustAnd(conjuncts...), m)
		if err != nil {
			return nil, err
		}
		scan.Predicate = pred
	}
	ts.op = scan
	return ts, nil
}

// buildVirtualScan assembles the access path for a system table: a
// VirtualScan producing the full table schema, a projection down to the
// needed columns, and the table's local predicates as a filter.
func buildVirtualScan(q *LogicalQuery, tblIdx int, t *catalog.Table, vt *catalog.VirtualTable, cols []int, conjuncts []expr.Expr, offs []int) (*tableScan, error) {
	exprs := make([]expr.Expr, len(cols))
	names := make([]string, len(cols))
	colToOut := map[int]int{}
	for i, c := range cols {
		col := t.Schema.Col(c)
		exprs[i] = expr.NewColRef(c, col.Typ, col.Name)
		names[i] = col.Name
		colToOut[c] = i
	}
	var op exec.Operator = exec.NewProject(exec.NewVirtualScan(t.Name, t.Schema, vt.Rows), exprs, names)
	if len(conjuncts) > 0 {
		m := map[int]int{}
		for c, out := range colToOut {
			m[offs[tblIdx]+c] = out
		}
		pred, err := expr.Remap(expr.MustAnd(conjuncts...), m)
		if err != nil {
			return nil, err
		}
		op = exec.NewFilter(op, pred)
	}
	return &tableScan{
		tblIdx: tblIdx, cols: cols, colToOut: colToOut, conjuncts: conjuncts,
		selectivity: selectivityScore(conjuncts),
		est:         tableEstimate{sel: selectivityScore(conjuncts)},
		op:          op,
	}, nil
}

// trySIP attaches a SIP filter to the fact scan — to every worker scan of
// its fan — when every outer key is one of the scan's own output columns.
func trySIP(fact *tableScan, outerKeys []int, joinDesc string) *exec.SIPFilter {
	if fact.scan == nil {
		return nil // virtual tables have no storage scan to push into
	}
	for _, k := range outerKeys {
		if k >= len(fact.cols) {
			return nil // key produced by an earlier join, not the base scan
		}
	}
	sip := exec.NewSIPFilter(outerKeys, joinDesc)
	scans := fact.workers
	if scans == nil { // no fan opened
		scans = pipes{fact.scan}
	}
	for _, s := range scans {
		s.(*exec.Scan).SIPs = append(s.(*exec.Scan).SIPs, sip)
	}
	return sip
}

// tryMergeJoin plans a merge join when both inputs are sorted on the join
// keys: the fact's projection sort prefix must equal its keys (and the fact
// must still be the bare scan), and likewise for the dimension.
func tryMergeJoin(q *LogicalQuery, jt exec.JoinType, fact, dim *tableScan, cur exec.Operator, outerKeys, innerKeys []int) (exec.Operator, bool) {
	if jt != exec.InnerJoin && jt != exec.LeftOuterJoin {
		return nil, false
	}
	if fact.scan == nil || dim.scan == nil {
		return nil, false // virtual tables carry no sort order
	}
	if cur != exec.Operator(fact.scan) {
		return nil, false // already joined: combined stream order unknown
	}
	if !scanSortedByKeys(q, fact, outerKeys) || !scanSortedByKeys(q, dim, innerKeys) {
		return nil, false
	}
	fact.scan.MergeSorted = true
	fact.scan.SortKey = outerKeys
	dim.scan.MergeSorted = true
	dim.scan.SortKey = innerKeys
	mj, err := exec.NewMergeJoin(jt, fact.scan, dim.scan, outerKeys, innerKeys)
	if err != nil {
		return nil, false
	}
	return mj, true
}

// scanSortedByKeys reports whether the projection's sort order starts with
// exactly the key columns (by scan output index).
func scanSortedByKeys(q *LogicalQuery, ts *tableScan, keys []int) bool {
	t := q.From[ts.tblIdx].Table
	if len(ts.proj.SortOrder) < len(keys) {
		return false
	}
	for i, k := range keys {
		// key is a scan output index; find its table column.
		var tblCol = -1
		for c, out := range ts.colToOut {
			if out == k {
				tblCol = c
				break
			}
		}
		if tblCol < 0 || t.Schema.Col(tblCol).Name != ts.proj.SortOrder[i] {
			return false
		}
	}
	return true
}

// finishPlan adds residual filters, aggregation, post-projection, ordering
// and limits on top of the joined input, then finalizes the plan's output
// and memory estimates. A bare scan under an aggregate (other than a
// one-pass one), DISTINCT or ORDER BY opens a fan here; an open fan closes
// at the first operator that needs the whole stream, with the exchange
// that operator needs.
func finishPlan(p Provider, q *LogicalQuery, plan *PhysicalPlan, cur pipes, colMap map[int]int, residual []expr.Expr, opts PlanOpts) (*PhysicalPlan, error) {
	if scan, ok := cur[0].(*exec.Scan); ok && len(cur) == 1 && parallelWays(opts, plan.estInput) > 1 &&
		(q.IsAggregate() || q.Distinct || len(q.OrderBy) > 0) {
		if _, onePass := sortedGroupKeys(p, q, scan, colMap); !onePass {
			cur = openFan(plan, scan, plan.estInput, opts)
		}
	}
	// Cardinality through the tail of the plan: residual filters shrink the
	// joined stream, grouping collapses it to (at most) the product of the
	// key NDVs, LIMIT caps it.
	inEst := plan.estInput
	for _, c := range residual {
		inEst *= shapeSelectivity(c)
	}
	if len(residual) > 0 {
		pred, err := expr.Remap(expr.MustAnd(residual...), colMap)
		if err != nil {
			return nil, err
		}
		cur.each(func(op exec.Operator) exec.Operator { return exec.NewFilter(op, pred) })
		cur.setEst(inEst)
	}
	outEst := inEst
	if q.IsAggregate() || q.Distinct {
		outEst = groupCountEstimate(p.Catalog(), q, inEst)
	}
	if q.IsAggregate() {
		agg, err := planAggregate(p, q, plan, cur, colMap, opts)
		if err != nil {
			return nil, err
		}
		exec.SetEstRows(agg, int64(outEst+0.5))
		if q.Having != nil {
			agg = exec.NewFilter(agg, q.Having)
		}
		if q.PostProject != nil {
			agg = exec.NewProject(agg, q.PostProject, q.PostProjectNames)
		}
		cur = pipes{agg}
	} else {
		exprs := make([]expr.Expr, len(q.SelectExprs))
		for i, e := range q.SelectExprs {
			re, err := expr.Remap(e, colMap)
			if err != nil {
				return nil, err
			}
			exprs[i] = re
		}
		cur.each(func(op exec.Operator) exec.Operator { return exec.NewProject(op, exprs, q.SelectNames) })
		if q.Distinct {
			cur = planDistinct(plan, cur)
			exec.SetEstRows(cur[0], int64(outEst+0.5))
		}
	}
	if len(q.OrderBy) > 0 {
		cur = planSort(plan, cur, q.OrderBy)
		exec.SetEstRows(cur[0], int64(outEst+0.5))
	}
	root := closeFan(plan, cur, "the end of the plan")[0]
	if q.Limit >= 0 || q.Offset > 0 {
		limit := q.Limit
		if limit < 0 {
			limit = -1
		}
		root = exec.NewLimit(root, q.Offset, limit)
	}
	plan.Root = root

	if q.Limit >= 0 && float64(q.Limit) < outEst {
		outEst = float64(q.Limit)
	}
	outBytes := outEst * float64(rowWidthOf(root.Schema()))
	plan.EstRows = int64(outEst + 0.5)
	plan.EstBytes = int64(outBytes + 0.5)
	plan.EstMemBytes = int64(plan.memAcc + outBytes + 0.5)
	plan.Notes = append(plan.Notes, fmt.Sprintf("est: output ~%s rows, ~%d bytes (plan memory ~%d bytes, %s)",
		fmtEst(outEst), plan.EstBytes, plan.EstMemBytes, estSource(plan.StatsBacked)))
	// Profiling metadata: the root carries the plan's output estimate, every
	// node gets its pre-order id (matching EXPLAIN lines), and nodes between
	// the anchors tagged above inherit estimates from their children.
	exec.SetEstRows(root, plan.EstRows)
	exec.AssignNodeIDs(root)
	exec.FinalizeEstimates(root)
	return plan, nil
}

// MinParallelRows gates the fan: below this estimated cardinality of the
// scan that would drive it, starting workers and meeting them again costs
// more than the parallelism pays, so tiny inputs stay serial. The estimate
// is histogram-backed when the tables were ANALYZEd and shape-heuristic
// otherwise; PlanOpts.ForceParallel overrides the gate.
const MinParallelRows = 16384

// parallelWays resolves the width of a fan: opts.Parallelism when
// parallelism is on and the input is big enough (or forced), 1 otherwise.
func parallelWays(opts PlanOpts, estRows float64) int {
	if opts.Parallelism <= 1 {
		return 1
	}
	if opts.ForceParallel || estRows >= MinParallelRows {
		return opts.Parallelism
	}
	return 1
}

// noteWorkers records a fan's concurrent worker pipelines on the plan so
// admission can split the memory grant per worker.
func (p *PhysicalPlan) noteWorkers(w int) {
	if w > p.Workers {
		p.Workers = w
	}
}

// planSort orders the stream. An open fan closes here: each worker sorts
// its own share and the order-preserving merge exchange combines them.
func planSort(plan *PhysicalPlan, cur pipes, specs []exec.SortSpec) pipes {
	cur.each(func(op exec.Operator) exec.Operator { return exec.NewSort(op, specs) })
	if len(cur) == 1 {
		return cur
	}
	plan.Notes = append(plan.Notes, fmt.Sprintf(
		"fan closes at ORDER BY: %d worker sorts, order-preserving merge Recv", len(cur)))
	return pipes{exec.NewMergeExchange(cur, specs).Ports()[0]}
}

// planDistinct deduplicates the stream by grouping on every column. An open
// fan closes here: the workers' rows resegment on all columns, so each of w
// GroupBys deduplicates a complete, disjoint part of the value space.
func planDistinct(plan *PhysicalPlan, cur pipes) pipes {
	schema := cur[0].Schema()
	dedup := func(in exec.Operator) exec.Operator {
		keys := make([]expr.Expr, schema.Len())
		names := make([]string, schema.Len())
		for i, c := range schema.Cols {
			keys[i] = expr.NewColRef(i, c.Typ, c.Name)
			names[i] = c.Name
		}
		return exec.NewGroupBy(in, keys, names, nil)
	}
	if len(cur) == 1 {
		return pipes{dedup(cur[0])}
	}
	ports := exec.NewExchange(cur, len(cur), seq(schema.Len())).Ports()
	for i, port := range ports {
		ports[i] = dedup(port)
	}
	plan.Notes = append(plan.Notes, fmt.Sprintf(
		"fan closes at DISTINCT: resegment on all %d columns into %d GroupBys", schema.Len(), len(cur)))
	return pipes{exec.NewParallelUnion(ports...)}
}

// planAggregate builds the grouping pipeline: one-pass over a sorted scan,
// prepass partial aggregation with a merging GroupBy, or plain hash. An
// open fan closes here: with partial forms each worker runs its own
// prepass and the exchange resegments the partials on the group keys into
// w merging GroupBys (paper Figure 3); without them the workers' streams
// meet in a ParallelUnion under one GroupBy.
func planAggregate(p Provider, q *LogicalQuery, plan *PhysicalPlan, cur pipes, colMap map[int]int, opts PlanOpts) (exec.Operator, error) {
	keys := make([]expr.Expr, len(q.GroupBy))
	names := make([]string, len(q.GroupBy))
	for i, g := range q.GroupBy {
		out, ok := colMap[g]
		if !ok {
			return nil, fmt.Errorf("optimizer: group-by column lost during planning")
		}
		name := ""
		if q.KeyNames != nil {
			name = q.KeyNames[i]
		}
		if name == "" {
			t, c := q.tableOfFlat(g)
			name = q.From[t].Table.Schema.Col(c).Name
		}
		keys[i] = expr.NewColRef(out, cur[0].Schema().Col(out).Typ, name)
		names[i] = name
	}
	aggs := make([]exec.AggSpec, len(q.Aggs))
	for i := range q.Aggs {
		aggs[i] = q.Aggs[i]
		if q.Aggs[i].Arg != nil {
			re, err := expr.Remap(q.Aggs[i].Arg, colMap)
			if err != nil {
				return nil, err
			}
			aggs[i].Arg = re
		}
	}
	// One-pass aggregation when the (single-table) scan can present rows
	// sorted by the group keys.
	if scan, ok := cur[0].(*exec.Scan); ok && len(cur) == 1 {
		if keyOuts, ok := sortedGroupKeys(p, q, scan, colMap); ok {
			scan.MergeSorted = true
			scan.SortKey = keyOuts
			g := exec.NewGroupBy(scan, keys, names, aggs)
			g.InputSorted = true
			plan.Notes = append(plan.Notes, "one-pass aggregation on sorted projection")
			return g, nil
		}
	}
	partial := !opts.NoPrepass && allPartial(aggs)
	switch {
	case len(cur) == 1 && partial && len(keys) > 0:
		pre, err := exec.NewPrepass(cur[0], keys, names, aggs)
		if err != nil {
			return nil, err
		}
		plan.Notes = append(plan.Notes, "prepass partial aggregation enabled")
		return mergeGroupBy(pre, keys, names, aggs), nil
	case len(cur) == 1 || !partial:
		return exec.NewGroupBy(closeFan(plan, cur, "an aggregate without a prepass")[0], keys, names, aggs), nil
	}
	for i, op := range cur {
		pre, err := exec.NewPrepass(op, keys, names, aggs)
		if err != nil {
			return nil, err
		}
		cur[i] = pre
	}
	if len(keys) == 0 {
		plan.Notes = append(plan.Notes, fmt.Sprintf(
			"fan closes at the aggregate: %d worker prepasses, one merging GroupBy", len(cur)))
		return mergeGroupBy(exec.NewParallelUnion(cur...), keys, names, aggs), nil
	}
	ports := exec.NewExchange(cur, len(cur), seq(len(keys))).Ports()
	for i, port := range ports {
		ports[i] = mergeGroupBy(port, keys, names, aggs)
	}
	plan.Notes = append(plan.Notes, fmt.Sprintf(
		"fan closes at the aggregate: %d worker prepasses, partials resegmented on the group keys into %d merging GroupBys",
		len(cur), len(ports)))
	return exec.NewParallelUnion(ports...), nil
}

func allPartial(aggs []exec.AggSpec) bool {
	for i := range aggs {
		if !aggs[i].SupportsPartial() {
			return false
		}
	}
	return true
}

// mergeGroupBy builds the final GroupBy consuming prepass partial rows:
// keys are columns 0..len(keys)-1 of the prepass output.
func mergeGroupBy(pre exec.Operator, keys []expr.Expr, names []string, aggs []exec.AggSpec) *exec.GroupBy {
	mergedKeys := make([]expr.Expr, len(keys))
	for i := range keys {
		mergedKeys[i] = expr.NewColRef(i, keys[i].Type(), names[i])
	}
	final := exec.NewGroupBy(pre, mergedKeys, names, aggs)
	final.MergePartials = true
	return final
}

// sortedGroupKeys checks whether the group keys are columns of the scan
// forming a prefix of its projection's sort order, returning their scan
// output indexes: the scan can then present rows sorted by the keys.
func sortedGroupKeys(p Provider, q *LogicalQuery, scan *exec.Scan, colMap map[int]int) ([]int, bool) {
	if len(q.GroupBy) == 0 {
		return nil, false
	}
	proj, err := p.Catalog().Projection(scan.Projection)
	if err != nil || len(proj.SortOrder) < len(q.GroupBy) {
		return nil, false
	}
	outs := make([]int, len(q.GroupBy))
	for i, g := range q.GroupBy {
		out, ok := colMap[g]
		if !ok || scan.Schema().Col(out).Name != proj.SortOrder[i] {
			return nil, false
		}
		outs[i] = out
	}
	return outs, true
}

func seq(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// tryPrejoin answers a 2-table inner equi-join from a prejoin projection on
// the fact table when it stores every needed dimension column.
func tryPrejoin(p Provider, q *LogicalQuery, needed columnSet, perTable map[int][]expr.Expr, opts PlanOpts) (exec.Operator, map[int]int, string, bool) {
	if len(q.From) != 2 || len(q.JoinConds) != 1 || q.JoinConds[0].Type != exec.InnerJoin {
		return nil, nil, "", false
	}
	jc := q.JoinConds[0]
	offs := q.flatOffsets()
	// Identify fact (anchor) and dim sides by looking for a matching
	// prejoin projection either way around.
	for _, factIdx := range []int{jc.LeftTbl, jc.RightTbl} {
		dimIdx := jc.LeftTbl
		if factIdx == jc.LeftTbl {
			dimIdx = jc.RightTbl
		}
		factT := q.From[factIdx].Table
		dimT := q.From[dimIdx].Table
		factKey, dimKey := jc.LeftCol, jc.RightCol
		if factIdx != jc.LeftTbl {
			factKey, dimKey = jc.RightCol, jc.LeftCol
		}
		for _, proj := range p.Catalog().ProjectionsFor(factT.Name) {
			if opts.ExcludeProjections[proj.Name] || proj.IsBuddy || len(proj.Prejoin) == 0 {
				continue
			}
			match := false
			for _, pj := range proj.Prejoin {
				if pj.DimTable == dimT.Name &&
					pj.FactKey == factT.Schema.Col(factKey).Name &&
					pj.DimKey == dimT.Schema.Col(dimKey).Name {
					match = true
				}
			}
			if !match {
				continue
			}
			// Every needed column must exist in the prejoin projection. The
			// dimension's join key is not stored — by the N:1 join it equals
			// the fact key column, which serves in its place.
			colMap := map[int]int{}
			covers := true
			var projCols []int
			addCol := func(flat int, name string) {
				pi := proj.Schema.ColIndex(name)
				if pi < 0 {
					covers = false
					return
				}
				for i, pc := range projCols {
					if pc == pi {
						colMap[flat] = i
						return
					}
				}
				colMap[flat] = len(projCols)
				projCols = append(projCols, pi)
			}
			for _, c := range needed.sorted(factIdx) {
				addCol(offs[factIdx]+c, factT.Schema.Col(c).Name)
			}
			for _, c := range needed.sorted(dimIdx) {
				if c == dimKey {
					addCol(offs[dimIdx]+c, factT.Schema.Col(factKey).Name)
					continue
				}
				addCol(offs[dimIdx]+c, dimT.Name+"."+dimT.Schema.Col(c).Name)
			}
			if !covers {
				continue
			}
			mgr, err := p.ProjectionData(proj.Name)
			if err != nil {
				continue
			}
			scan := exec.NewScan(proj.Name, mgr, proj.Schema, projCols)
			// Push all single-table predicates (both tables' columns are
			// physically in this projection).
			var conjs []expr.Expr
			conjs = append(conjs, perTable[factIdx]...)
			conjs = append(conjs, perTable[dimIdx]...)
			if len(conjs) > 0 {
				pred, err := expr.Remap(expr.MustAnd(conjs...), colMap)
				if err != nil {
					continue
				}
				scan.Predicate = pred
			}
			return scan, colMap, "answered from prejoin projection " + proj.Name, true
		}
	}
	return nil, nil, "", false
}
