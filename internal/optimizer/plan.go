package optimizer

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/catalog"
	"repro/internal/exec"
	"repro/internal/expr"
	"repro/internal/storage"
	"repro/internal/types"
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
		return finishPlan(p, q, plan, op, colMap, residual, opts)
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
		return finishPlan(p, q, plan, ts.op, colMap, residual, opts)
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
	cur := fact.op
	curWidth := len(fact.cols)
	runningEst := fact.estRows

	for _, dim := range dims {
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
		if mj, ok := tryMergeJoin(q, jt, fact, dim, cur, outerKeys, innerKeys); ok {
			cur = mj
			plan.Notes = append(plan.Notes, fmt.Sprintf("merge join with %s (sort orders aligned)", dimDesc))
		} else if w := parallelWays(opts, runningEst); w > 1 {
			// Partitioned parallel hash join: both sides resegment on the
			// join keys across w ways, so each way joins a complete,
			// disjoint key partition (SIP is skipped — the probe scan sits
			// behind an exchange and each way holds only a partial key set).
			pj, err := planParallelHashJoin(plan, jt, cur, dim.op, outerKeys, innerKeys, w)
			if err != nil {
				return nil, err
			}
			cur = pj
			plan.Notes = append(plan.Notes, fmt.Sprintf(
				"parallel hash join with %s: %d ways, both sides resegmented on the join keys", dimDesc, w))
		} else {
			hj, err := exec.NewHashJoin(jt, cur, dim.op, outerKeys, innerKeys)
			if err != nil {
				return nil, err
			}
			// SIP (paper §6.1): push a build-side key filter into the scan
			// owning every outer key, for join types that discard
			// unmatched probe rows.
			if !opts.NoSIP && (jt == exec.InnerJoin || jt == exec.SemiJoin || jt == exec.RightOuterJoin) {
				if sip := trySIP(fact, outerKeys, dimDesc); sip != nil {
					hj.SIP = sip
					plan.Notes = append(plan.Notes, "SIP filter pushed to scan of "+fact.proj.Name)
				}
			}
			cur = hj
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
		exec.SetEstRows(cur, int64(runningEst+0.5))
		plan.Notes = append(plan.Notes, fmt.Sprintf("est: join %s ~%s rows (%s)",
			dimDesc, fmtEst(runningEst), estSource(ndvOuter > 0 || ndvDim > 0)))
	}
	plan.estInput = runningEst
	return finishPlan(p, q, plan, cur, colMap, residual, opts)
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

// trySIP attaches a SIP filter to the fact scan when every outer key is one
// of the scan's own output columns.
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
	fact.scan.SIPs = append(fact.scan.SIPs, sip)
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
// and memory estimates.
func finishPlan(p Provider, q *LogicalQuery, plan *PhysicalPlan, cur exec.Operator, colMap map[int]int, residual []expr.Expr, opts PlanOpts) (*PhysicalPlan, error) {
	// Cardinality through the tail of the plan, computed up front so the
	// parallel sort/DISTINCT gates can consult it: residual filters shrink
	// the joined stream, grouping collapses it to (at most) the product of
	// the key NDVs, LIMIT caps it.
	inEst := plan.estInput
	for _, c := range residual {
		inEst *= shapeSelectivity(c)
	}
	if len(residual) > 0 {
		pred, err := expr.Remap(expr.MustAnd(residual...), colMap)
		if err != nil {
			return nil, err
		}
		cur = exec.NewFilter(cur, pred)
		exec.SetEstRows(cur, int64(inEst+0.5))
	}
	outEst := inEst
	if q.IsAggregate() || q.Distinct {
		outEst = groupCountEstimate(p.Catalog(), q, inEst)
	}
	var err error
	if q.IsAggregate() {
		cur, err = planAggregate(p, q, plan, cur, colMap, opts)
		if err != nil {
			return nil, err
		}
		exec.SetEstRows(cur, int64(outEst+0.5))
		if q.Having != nil {
			cur = exec.NewFilter(cur, q.Having)
		}
		if q.PostProject != nil {
			cur = exec.NewProject(cur, q.PostProject, q.PostProjectNames)
		}
	} else {
		exprs := make([]expr.Expr, len(q.SelectExprs))
		for i, e := range q.SelectExprs {
			re, err := expr.Remap(e, colMap)
			if err != nil {
				return nil, err
			}
			exprs[i] = re
		}
		cur = exec.NewProject(cur, exprs, q.SelectNames)
		if q.Distinct {
			// DISTINCT gates on the rows flowing INTO the dedup, not the
			// distinct count coming out.
			if w := parallelWays(opts, inEst); w > 1 {
				cur = planParallelDistinct(plan, cur, w)
			} else {
				keys := make([]expr.Expr, cur.Schema().Len())
				names := make([]string, cur.Schema().Len())
				for i := range keys {
					keys[i] = expr.NewColRef(i, cur.Schema().Col(i).Typ, cur.Schema().Col(i).Name)
					names[i] = cur.Schema().Col(i).Name
				}
				cur = exec.NewGroupBy(cur, keys, names, nil)
			}
			exec.SetEstRows(cur, int64(outEst+0.5))
		}
	}
	if len(q.OrderBy) > 0 {
		if w := parallelWays(opts, outEst); w > 1 {
			cur = planParallelSort(plan, cur, q.OrderBy, w)
		} else {
			cur = exec.NewSort(cur, q.OrderBy)
		}
		exec.SetEstRows(cur, int64(outEst+0.5))
	}
	if q.Limit >= 0 || q.Offset > 0 {
		limit := q.Limit
		if limit < 0 {
			limit = -1
		}
		cur = exec.NewLimit(cur, q.Offset, limit)
	}
	plan.Root = cur

	if q.Limit >= 0 && float64(q.Limit) < outEst {
		outEst = float64(q.Limit)
	}
	outBytes := outEst * float64(rowWidthOf(cur.Schema()))
	plan.EstRows = int64(outEst + 0.5)
	plan.EstBytes = int64(outBytes + 0.5)
	plan.EstMemBytes = int64(plan.memAcc + outBytes + 0.5)
	plan.Notes = append(plan.Notes, fmt.Sprintf("est: output ~%s rows, ~%d bytes (plan memory ~%d bytes, %s)",
		fmtEst(outEst), plan.EstBytes, plan.EstMemBytes, estSource(plan.StatsBacked)))
	// Profiling metadata: the root carries the plan's output estimate, every
	// node gets its pre-order id (matching EXPLAIN lines), and nodes between
	// the anchors tagged above inherit estimates from their children.
	exec.SetEstRows(cur, plan.EstRows)
	exec.AssignNodeIDs(cur)
	exec.FinalizeEstimates(cur)
	return plan, nil
}

// MinParallelRows gates the intra-node parallel join/sort/DISTINCT shapes:
// below this estimated input cardinality the exchange setup costs more than
// the parallelism pays, so tiny inputs stay serial. The estimate is
// histogram-backed when the tables were ANALYZEd and shape-heuristic
// otherwise; PlanOpts.ForceParallel overrides the gate.
const MinParallelRows = 16384

// parallelWays resolves the degree a parallel shape should plan with:
// opts.Parallelism when parallelism is on and the input is big enough (or
// forced), 1 otherwise.
func parallelWays(opts PlanOpts, estRows float64) int {
	if opts.Parallelism <= 1 {
		return 1
	}
	if opts.ForceParallel || estRows >= MinParallelRows {
		return opts.Parallelism
	}
	return 1
}

// noteWorkers records a shape's concurrent worker pipelines on the plan so
// admission can split the memory grant per worker.
func (p *PhysicalPlan) noteWorkers(w int) {
	if w > p.Workers {
		p.Workers = w
	}
}

// planParallelHashJoin builds the partitioned parallel join: both sides
// resegment on the join keys across w ways (batch-native hash-partition
// exchanges), each way hash-joins a complete key partition, and a
// ParallelUnion merges the ways. Correct for every join flavor because a
// key value — NULLs included — lives in exactly one partition on each side.
func planParallelHashJoin(plan *PhysicalPlan, jt exec.JoinType, outer, inner exec.Operator, outerKeys, innerKeys []int, w int) (exec.Operator, error) {
	exOuter := exec.NewExchange([]exec.Operator{outer}, w, outerKeys)
	exInner := exec.NewExchange([]exec.Operator{inner}, w, innerKeys)
	outerPorts, innerPorts := exOuter.Ports(), exInner.Ports()
	joins := make([]exec.Operator, w)
	for i := 0; i < w; i++ {
		hj, err := exec.NewHashJoin(jt, outerPorts[i], innerPorts[i], outerKeys, innerKeys)
		if err != nil {
			return nil, err
		}
		joins[i] = hj
	}
	plan.noteWorkers(w)
	return exec.NewParallelUnion(joins...), nil
}

// planParallelSort splits the input round-robin across w worker sorts and
// recombines them through an order-preserving merge Recv, parallelizing the
// O(n log n) sort CPU while keeping the output globally ordered.
func planParallelSort(plan *PhysicalPlan, cur exec.Operator, specs []exec.SortSpec, w int) exec.Operator {
	split := exec.NewSplitExchange(cur, w)
	sorters := make([]exec.Operator, w)
	for i, port := range split.Ports() {
		sorters[i] = exec.NewSort(port, specs)
	}
	merge := exec.NewMergeExchange(sorters, specs)
	plan.noteWorkers(w)
	plan.Notes = append(plan.Notes, fmt.Sprintf(
		"parallel sort: %d worker sorts (round-robin split), order-preserving merge Recv", w))
	return merge.Ports()[0]
}

// planParallelDistinct resegments the projected stream on all output
// columns so each of the w GroupBys deduplicates a complete, disjoint
// partition of the value space.
func planParallelDistinct(plan *PhysicalPlan, cur exec.Operator, w int) exec.Operator {
	n := cur.Schema().Len()
	ex := exec.NewExchange([]exec.Operator{cur}, w, seq(n))
	finals := make([]exec.Operator, 0, w)
	for _, port := range ex.Ports() {
		keys := make([]expr.Expr, n)
		names := make([]string, n)
		for i := range keys {
			keys[i] = expr.NewColRef(i, cur.Schema().Col(i).Typ, cur.Schema().Col(i).Name)
			names[i] = cur.Schema().Col(i).Name
		}
		finals = append(finals, exec.NewGroupBy(port, keys, names, nil))
	}
	plan.noteWorkers(w)
	plan.Notes = append(plan.Notes, fmt.Sprintf(
		"parallel distinct: resegment on all %d columns into %d GroupBys", n, w))
	return exec.NewParallelUnion(finals...)
}

// planAggregate builds the grouping pipeline: one-pass over sorted scans,
// the parallel prepass/resegment shape of Figure 3, or plain hash.
func planAggregate(p Provider, q *LogicalQuery, plan *PhysicalPlan, cur exec.Operator, colMap map[int]int, opts PlanOpts) (exec.Operator, error) {
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
		keys[i] = expr.NewColRef(out, cur.Schema().Col(out).Typ, name)
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
	if scan, ok := cur.(*exec.Scan); ok && len(keys) > 0 {
		if keyOuts, ok := keysArePrefixOfSort(p, q, scan, keys); ok {
			scan.MergeSorted = true
			scan.SortKey = keyOuts
			g := exec.NewGroupBy(cur, keys, names, aggs)
			g.InputSorted = true
			plan.Notes = append(plan.Notes, "one-pass aggregation on sorted projection")
			return g, nil
		}
	}
	// Figure 3 shape: parallel worker scans with prepass partial aggregation,
	// locally resegmented by group key so each final GroupBy computes
	// complete groups independently.
	if scan, ok := cur.(*exec.Scan); ok && opts.Parallelism > 1 && !opts.NoPrepass &&
		len(keys) > 0 && allPartial(aggs) {
		op, err := planParallelAggregate(q, plan, scan, keys, names, aggs, opts)
		if err == nil && op != nil {
			return op, nil
		}
		if err != nil {
			return nil, err
		}
	}
	// Serial prepass + merging GroupBy when the aggregates allow partials.
	if !opts.NoPrepass && len(keys) > 0 && allPartial(aggs) {
		pre, err := exec.NewPrepass(cur, keys, names, aggs)
		if err == nil {
			final := mergeGroupBy(pre, keys, names, aggs)
			plan.Notes = append(plan.Notes, "prepass partial aggregation enabled")
			return final, nil
		}
	}
	return exec.NewGroupBy(cur, keys, names, aggs), nil
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

// keysArePrefixOfSort checks whether the group keys are bare columns forming
// a prefix of the scan projection's sort order, returning their scan output
// indexes.
func keysArePrefixOfSort(p Provider, q *LogicalQuery, scan *exec.Scan, keys []expr.Expr) ([]int, bool) {
	proj, err := p.Catalog().Projection(scan.Projection)
	if err != nil || len(proj.SortOrder) < len(keys) {
		return nil, false
	}
	outs := make([]int, len(keys))
	for i, k := range keys {
		cr, ok := k.(*expr.ColRef)
		if !ok {
			return nil, false
		}
		if scan.Schema().Col(cr.Idx).Name != proj.SortOrder[i] {
			return nil, false
		}
		outs[i] = cr.Idx
	}
	return outs, true
}

// planParallelAggregate builds the Figure 3 plan: the StorageUnion dispatches
// worker scans over disjoint ROS container subsets, each feeding a prepass;
// the exchange locally resegments partials by group key; parallel final
// GroupBys compute complete groups; a ParallelUnion merges them.
func planParallelAggregate(q *LogicalQuery, plan *PhysicalPlan, scan *exec.Scan, keys []expr.Expr, names []string, aggs []exec.AggSpec, opts PlanOpts) (exec.Operator, error) {
	// Generation before container list: if a moveout commits in between,
	// the stale generation forces ErrStorageChanged + replan rather than
	// silently scanning a split that no longer covers the data.
	gen := scan.Mgr.Gen()
	containers := scan.Mgr.Containers()
	w := opts.Parallelism
	if w > len(containers) && len(containers) > 0 {
		w = len(containers)
	}
	if w < 1 {
		w = 1
	}
	var workers []exec.Operator
	for i := 0; i < w; i++ {
		var ids []string
		for j := i; j < len(containers); j += w {
			ids = append(ids, containers[j].Meta.ID)
		}
		ws := exec.NewScan(scan.Projection, scan.Mgr, scanProjSchema(scan), scan.Columns)
		ws.Predicate = scan.Predicate
		ws.SIPs = scan.SIPs
		ws.SortKey = scan.SortKey
		ws.ContainerIDs = ids
		if ids == nil {
			ws.ContainerIDs = []string{}
		}
		ws.StorageGen = gen
		ws.IncludeWOS = i == 0
		pre, err := exec.NewPrepass(ws, keys, names, aggs)
		if err != nil {
			return nil, err
		}
		workers = append(workers, pre)
	}
	ex := exec.NewExchange(workers, opts.Parallelism, seq(len(keys)))
	var finals []exec.Operator
	for _, port := range ex.Ports() {
		finals = append(finals, mergeGroupBy(port, keys, names, aggs))
	}
	plan.noteWorkers(opts.Parallelism)
	plan.Notes = append(plan.Notes,
		fmt.Sprintf("parallel aggregation: %d worker scans, prepass, resegment into %d final GroupBys", w, opts.Parallelism))
	return exec.NewParallelUnion(finals...), nil
}

// scanProjSchema reconstructs the projection schema a scan was built from.
func scanProjSchema(s *exec.Scan) *types.Schema {
	return s.Mgr.Schema()
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
