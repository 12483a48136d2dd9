package cluster

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/catalog"
	"repro/internal/dc"
	"repro/internal/exec"
	"repro/internal/expr"
	"repro/internal/optimizer"
	"repro/internal/resmgr"
	"repro/internal/storage"
	"repro/internal/types"
	"repro/internal/vector"
)

// Distributed query execution. Each up node plans and runs the query against
// its local projection data; the initiator merges partial results. Like
// Vertica, "segmentation ... enables many important optimizations", so the
// merge strategy depends on placement:
//
//   - replicated-only queries run on a single node;
//   - when the group keys contain the segmentation columns, alike values are
//     co-located and node results simply concatenate;
//   - otherwise aggregates are rewritten into distributive partials (AVG
//     becomes SUM and COUNT) and re-aggregated at the initiator.
//
// When a node is down, its segment is replanned onto the buddy projection on
// a surviving node (paper §6.2), restricted to the down node's ring range.

// nodeProvider adapts one node's local storage to the optimizer.
type nodeProvider struct {
	c *Cluster
	n *Node
}

// Catalog implements optimizer.Provider.
func (p *nodeProvider) Catalog() *catalog.Catalog { return p.c.cat }

// ProjectionData implements optimizer.Provider.
func (p *nodeProvider) ProjectionData(name string) (*storage.Manager, error) {
	proj, err := p.c.cat.Projection(name)
	if err != nil {
		return nil, err
	}
	return p.n.Mgr(proj, p.c.ManagerOpts())
}

// QueryResult carries the final result set plus plan diagnostics and the
// query's resource stats (zero when the cluster runs ungoverned).
type QueryResult struct {
	Schema *types.Schema
	// Batches is the result set as the last operator produced it: non-empty
	// batches in result order, columns possibly selected (Sel) or RLE.
	// vector.Rows pivots them for callers that want rows.
	Batches []*vector.Batch
	// Explain is the first node plan's EXPLAIN tree, rendered when read.
	Explain resmgr.PlanText
	Stats   resmgr.QueryStats
	// Probe echoes the placement-probe metadata the run used (projection
	// choice, cost estimates) so the plan cache can store it on a miss.
	Probe optimizer.ProbeInfo
	// OpProfiles are the executed plans' per-operator records, node plans
	// concatenated in execution order (each pre-order within its plan). The
	// initiator merge pipeline is not profiled — it runs after the node
	// plans finish and its operators are built per-merge, not per-plan.
	OpProfiles []resmgr.OpProfile
}

// Run executes a logical query across the cluster at the current READ
// COMMITTED snapshot epoch.
func (c *Cluster) Run(q *optimizer.LogicalQuery, opts optimizer.PlanOpts) (*QueryResult, error) {
	return c.RunAt(q, opts, c.Txn.Epochs.ReadEpoch())
}

// RunAt executes at an explicit snapshot epoch (historical queries).
func (c *Cluster) RunAt(q *optimizer.LogicalQuery, opts optimizer.PlanOpts, epoch types.Epoch) (*QueryResult, error) {
	return c.RunAtCtx(context.Background(), q, opts, epoch)
}

// RunCtx is Run with caller-controlled cancellation and admission.
func (c *Cluster) RunCtx(ctx context.Context, q *optimizer.LogicalQuery, opts optimizer.PlanOpts) (*QueryResult, error) {
	return c.RunAtCtx(ctx, q, opts, c.Txn.Epochs.ReadEpoch())
}

// RunAtCtx executes at an explicit snapshot epoch under a cancellable
// context. When the cluster has a governor the query is first admitted on
// the coordinator — blocking in its resource pool's admission queue
// (resmgr.WithPool selects the pool; general by default) if the pool is at
// its concurrency or memory limit — and every operator budget derives from
// the admission grant instead of the built-in default.
//
// Queries over system tables only (v_monitor.*) bypass admission and run on
// the coordinator alone, so the cluster stays observable even when every
// pool is saturated — Vertica's SYSQUERY escape hatch.
func (c *Cluster) RunAtCtx(ctx context.Context, q *optimizer.LogicalQuery, opts optimizer.PlanOpts, epoch types.Epoch) (res *QueryResult, err error) {
	tr := dc.TraceFrom(ctx)
	allVirtual, anyVirtual := c.virtualTables(q)
	if anyVirtual && !allVirtual && c.N() > 1 {
		return nil, fmt.Errorf("cluster: system tables cannot join user tables on a multi-node cluster")
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if c.IsShutdown() {
		return nil, fmt.Errorf("cluster: database is shut down")
	}
	up := c.UpNodes()
	if len(up) == 0 {
		return nil, fmt.Errorf("cluster: no nodes available")
	}
	// Probe plan on the first up node, BEFORE admission: it determines
	// projection choices, placement validity, and — when every base table
	// has statistics — the memory estimate the admission request is sized
	// from (dynamic grant sizing; planning itself consumes no governed
	// memory). Per-node plans are rebuilt after admission, so a long queue
	// wait cannot execute a stale probe. A plan-cache hit supplies the
	// probe metadata directly (opts.CachedProbe) and skips the probe Plan
	// call — the expensive half of short-query planning — while placement
	// checks and admission still run against live state.
	tr.Begin("plan")
	var probe optimizer.ProbeInfo
	if cp := opts.CachedProbe; cp != nil {
		probe = *cp
	} else {
		var pp *optimizer.PhysicalPlan
		pp, err = optimizer.Plan(&nodeProvider{c, up[0]}, q, opts)
		if err == nil {
			probe = optimizer.ProbeInfo{
				ProjectionsUsed: pp.ProjectionsUsed,
				EstRows:         pp.EstRows,
				EstMemBytes:     pp.EstMemBytes,
				StatsBacked:     pp.StatsBacked,
				Workers:         pp.Workers,
			}
		}
	}
	if err == nil {
		err = c.checkPlacement(q, probe.ProjectionsUsed)
	}
	if err != nil {
		// Pre-admission failures still leave a query profile, so operators
		// watching v_monitor.query_profiles see this failure class.
		if gov := c.cfg.Governor; gov != nil && !allVirtual {
			gov.RecordFailure(resmgr.PoolFromContext(ctx), resmgr.LabelFromContext(ctx), err)
		}
		return nil, err
	}
	var grant *resmgr.Grant
	if gov := c.cfg.Governor; gov != nil && !allVirtual {
		poolName := resmgr.PoolFromContext(ctx)
		tr.Begin("queue")
		grant, err = admitSized(ctx, gov, poolName, c.grantRequest(poolName, probe))
		if err != nil {
			return nil, err
		}
		// The query id exists from here on: stamp the trace so events from
		// worker goroutines and the phase records flushed at statement end
		// all join v_monitor.query_profiles.
		tr.SetQueryID(grant.QueryID())
		// Record failures in the retained query profile before releasing.
		defer func() {
			if err != nil {
				grant.SetError(err)
			}
			grant.Release()
		}()
		// RUNTIMECAP: a capped pool's statements run under a deadline, so a
		// runaway statement cancels at the next batch boundary and releases
		// its slot and memory instead of holding them forever. The error is
		// attributed to the cap only when the cap is the binding deadline —
		// a tighter caller-supplied deadline keeps its own error.
		if d := grant.RuntimeCap(); d > 0 {
			outerDeadline, hasOuter := ctx.Deadline()
			capBinds := !hasOuter || time.Now().Add(d).Before(outerDeadline)
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, d)
			defer cancel()
			if capBinds {
				defer func() {
					if err != nil && errors.Is(err, context.DeadlineExceeded) {
						tr.Event("RUNTIME_CAP_EXCEEDED", fmt.Sprintf("cap=%s", d))
						err = fmt.Errorf("resmgr: statement exceeded the pool runtime cap of %s: %w", d, err)
					}
				}()
			}
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}
	// Per-pool PARALLELISM: the admitted pool's degree overrides the engine
	// default for this statement. The probe ran with the engine default,
	// but per-node plans are rebuilt below with the effective degree.
	if pp := grant.Parallelism(); pp > 0 {
		opts.Parallelism = pp
	}
	allReplicated := c.allReplicated(probe.ProjectionsUsed)
	localFinal := allReplicated || allVirtual || c.N() == 1 || c.groupsColocated(q, probe.ProjectionsUsed)

	// Build the per-node logical query and initiator merge pipeline.
	nodeQ, merge, err := buildDistributedAgg(q, localFinal, c.N() == 1)
	if err != nil {
		return nil, err
	}

	execNodes := up
	if allReplicated || allVirtual {
		// System-table state lives on the coordinator; replicated data is
		// whole on any single node.
		execNodes = up[:1]
	}
	type nodeRun struct {
		node *Node
		plan *optimizer.PhysicalPlan
	}
	tr.Begin("execute")
	var runs []nodeRun
	for _, n := range execNodes {
		plan, err := optimizer.Plan(&nodeProvider{c, n}, nodeQ, opts)
		if err != nil {
			return nil, err
		}
		runs = append(runs, nodeRun{node: n, plan: plan})
	}
	// Buddy coverage for down nodes (skipped when everything is replicated:
	// any single up node already has full data).
	if !allReplicated && !allVirtual {
		for _, n := range c.Nodes() {
			if n.Up() {
				continue
			}
			plan, host, err := c.planBuddySegment(nodeQ, opts, n.ID)
			if err != nil {
				return nil, err
			}
			if plan != nil {
				runs = append(runs, nodeRun{node: host, plan: plan})
			}
		}
	}

	// Execute node plans in parallel (the MPP step). Each node pipeline
	// shares the query's admission grant; the per-operator budget splits the
	// grant across the concurrent pipelines — and, when a plan fans out
	// intra-node worker pipelines, across those workers too, so a parallel
	// plan shares one grant instead of multiplying it. The split is computed
	// once, before any pipeline starts: a pipeline's mid-flight grant
	// extension belongs to the operator that requested it, and must not
	// inflate the initial budget of a sibling whose goroutine happens to
	// start later.
	workers := 1
	for _, r := range runs {
		if r.plan.Workers > workers {
			workers = r.plan.Workers
		}
	}
	pipelineBudget := grant.OperatorBudget(len(runs) * workers)
	var firstErr error
	var partials []*vector.Batch
	var mu sync.Mutex
	var wg sync.WaitGroup
	for _, r := range runs {
		wg.Add(1)
		go func(r nodeRun) {
			defer wg.Done()
			ectx := c.execCtx(ctx, epoch, opts, grant, pipelineBudget)
			batches, err := exec.Run(ectx, r.plan.Root)
			mu.Lock()
			defer mu.Unlock()
			if err != nil && firstErr == nil {
				firstErr = fmt.Errorf("cluster: node %s: %w", r.node.Name, err)
				return
			}
			partials = append(partials, batches...)
		}(r)
	}
	wg.Wait()
	// Collect per-operator profiles (one cheap walk per plan) and attach
	// them to the grant, so the governor retains them for PROFILE runs and
	// queries crossing the slow-query threshold — including failed ones.
	opRecs := exec.CollectProfiles(runs[0].plan.Root, runs[0].node.Name)
	firstPlan := len(opRecs) // EXPLAIN shows the first node plan
	for _, r := range runs[1:] {
		opRecs = append(opRecs, exec.CollectProfiles(r.plan.Root, r.node.Name)...)
	}
	grant.SetOpProfile(opRecs, opts.Profile)
	if firstErr != nil {
		return nil, firstErr
	}

	// Initiator merge (single pipeline: the full grant as it stands now,
	// node-pipeline extensions included — those operators have finished).
	tr.Begin("fetch")
	nodeSchema := runs[0].plan.Root.Schema()
	final, schema, err := merge(partials, nodeSchema, c.execCtx(ctx, epoch, opts, grant, grant.OperatorBudget(1)))
	if err != nil {
		return nil, err
	}
	tr.End()
	grant.ReportRows(int64(vector.NumRows(final)))
	plan, nPlans := runs[0].plan, len(runs)
	explain := resmgr.LazyText(func() string {
		return fmt.Sprintf("-- distributed over %d node plan(s); local-final=%v\n", nPlans, localFinal) +
			plan.ExplainRecords(opRecs[:firstPlan])
	})
	return &QueryResult{Schema: schema, Batches: final, Explain: explain,
		Stats: grant.Stats(), OpProfiles: opRecs, Probe: probe}, nil
}

// grantRequest sizes the admission request from the probe plan (the
// roadmap's "dynamic grant sizing"): a statistics-backed plan requests its
// estimated working memory instead of the static pool/concurrency split, so
// well-estimated small queries stop reserving the full slice and more of
// them run concurrently under memory pressure. Plans estimating above the
// pool's default grant are no longer clamped down: resmgr.SizeGrant raises
// the request into whatever pool headroom exists right now (bounded by
// MAXMEMORYSIZE), and any residual estimate error is covered by mid-flight
// renegotiation (Grant.Request) at the operators' spill thresholds.
// Returning 0 keeps the pool's default (heuristic-only plans, unknown
// pools).
func (c *Cluster) grantRequest(poolName string, probe optimizer.ProbeInfo) int64 {
	if !probe.StatsBacked {
		return 0
	}
	return c.cfg.Governor.SizeGrant(poolName, probe.EstMemBytes)
}

// admitSized admits with the plan-sized grant request (0 = pool default).
// SizeGrant sizes above-default requests from the headroom visible at probe
// time; if that headroom is taken — by a concurrent admission, or by a
// CREATE/ALTER RESOURCE POOL reshaping reservations — before this query
// reaches the front of the queue, the oversized request can time out or
// become infeasible where the pre-renegotiation behavior (clamp to default)
// would have admitted. So an above-default request that fails falls back to
// one admission at the pool default — mid-flight renegotiation covers the
// estimate gap once memory frees up, and spilling covers it when it does
// not. An infeasible request failed fast, so its fallback queues normally;
// a timed-out request already consumed the pool's queue budget, so its
// fallback is a single non-queueing attempt (TryAdmitSince — no second
// wait, no double-counted queue statistics) and the original timeout error
// surfaces if the default does not fit right now. Both fallbacks keep the
// original enqueue time so the grant's queue-wait accounting covers the
// whole stall, not just the final attempt.
//
// Deliberate trade-off: if the pool stays saturated for the whole timeout
// (or other statements queued up behind the oversized request), the
// fallback declines and the statement pays a queue-timeout failure the old
// always-clamp behavior avoided. Overtaking those waiters would break the
// pool's FIFO fairness — the same head-blocking policy Admit itself
// enforces — and a pool that busy is exactly what admission control exists
// to push back on.
func admitSized(ctx context.Context, gov *resmgr.Governor, poolName string, req int64) (*resmgr.Grant, error) {
	enqueued := time.Now()
	grant, err := gov.AdmitPoolBytes(ctx, poolName, req)
	var inf *resmgr.InfeasibleError
	timedOut := errors.Is(err, resmgr.ErrQueueTimeout)
	if err == nil || req <= 0 || (!timedOut && !errors.As(err, &inf)) {
		return grant, err
	}
	name := poolName
	if name == "" {
		name = resmgr.GeneralPool
	}
	st, ok := gov.PoolStatus(name)
	if !ok || req <= st.EffGrantBytes {
		return grant, err
	}
	if !timedOut {
		return gov.AdmitPoolBytesSince(ctx, poolName, 0, enqueued)
	}
	if g2, ok := gov.TryAdmitSince(ctx, poolName, 0, enqueued); ok {
		return g2, nil
	}
	return nil, err
}

// execCtx builds one pipeline's execution context: snapshot epoch, the
// query's cancellation context and grant, and the caller-computed
// per-operator budget (callers snapshot OperatorBudget before launching
// pipelines so concurrent extensions don't skew the split).
func (c *Cluster) execCtx(cctx context.Context, epoch types.Epoch, opts optimizer.PlanOpts, grant *resmgr.Grant, budget int64) *exec.Ctx {
	ectx := exec.NewCtx(epoch)
	if opts.Parallelism > 0 {
		ectx.Parallelism = opts.Parallelism
	}
	ectx.Context = cctx
	ectx.Grant = grant
	ectx.ProfTimes = opts.Profile
	ectx.Trace = dc.TraceFrom(cctx)
	if c.cfg.TempDir != "" {
		ectx.TempDir = c.cfg.TempDir
	}
	if grant != nil {
		ectx.MemBudget = budget
	}
	return ectx
}

// virtualTables classifies the query's FROM tables: all/any virtual.
func (c *Cluster) virtualTables(q *optimizer.LogicalQuery) (all, any bool) {
	if len(q.From) == 0 {
		return false, false
	}
	all = true
	for _, tr := range q.From {
		if c.cat.Virtual(tr.Table.Name) != nil {
			any = true
		} else {
			all = false
		}
	}
	return all, any
}

// allReplicated reports whether every chosen projection is replicated.
func (c *Cluster) allReplicated(projections []string) bool {
	if len(projections) == 0 {
		return false
	}
	for _, name := range projections {
		p, err := c.cat.Projection(name)
		if err != nil || !p.Seg.Replicated {
			return false
		}
	}
	return true
}

// groupsColocated reports whether the fact projection's segmentation columns
// are all among the group keys, making groups node-local ("Vertica uses
// segmentation to perform ... efficient distributed aggregations,
// particularly effective for high-cardinality distinct aggregates", §3.6).
func (c *Cluster) groupsColocated(q *optimizer.LogicalQuery, projections []string) bool {
	if !q.IsAggregate() || len(q.GroupBy) == 0 || len(projections) == 0 {
		return false
	}
	proj, err := c.cat.Projection(projections[0])
	if err != nil || proj.Seg.Replicated || proj.Seg.Expr == nil {
		return false
	}
	segCols := expr.ColumnsOf(proj.Seg.Expr) // projection-schema indexes
	// Group keys as projection column names.
	keyNames := map[string]bool{}
	for _, g := range q.GroupBy {
		t, cIdx := flatToTable(q, g)
		if t == nil {
			return false
		}
		keyNames[t.Schema.Col(cIdx).Name] = true
	}
	for _, sc := range segCols {
		if !keyNames[proj.Schema.Col(sc).Name] {
			return false
		}
	}
	return true
}

func flatToTable(q *optimizer.LogicalQuery, flat int) (*catalog.Table, int) {
	off := 0
	for _, t := range q.From {
		n := t.Table.Schema.Len()
		if flat < off+n {
			return t.Table, flat - off
		}
		off += n
	}
	return nil, -1
}

// checkPlacement verifies multi-table queries can run with local joins:
// every non-fact projection must be replicated, or share the fact's
// segmentation text (co-segmented). Vertica's V2Opt reshuffles on the fly;
// this reproduction requires placement that StarOpt also handled (§6.2).
func (c *Cluster) checkPlacement(q *optimizer.LogicalQuery, projections []string) error {
	if len(q.From) <= 1 || c.N() == 1 {
		return nil
	}
	var segTexts []string
	for _, name := range projections {
		p, err := c.cat.Projection(name)
		if err != nil {
			return err
		}
		if p.Seg.Replicated {
			continue
		}
		segTexts = append(segTexts, p.Seg.ExprText)
	}
	if len(segTexts) <= 1 {
		return nil
	}
	for _, s := range segTexts[1:] {
		if s != segTexts[0] {
			return fmt.Errorf("cluster: join requires co-located projections: segment dimension tables identically or replicate them (StarOpt placement rule, paper §6.2)")
		}
	}
	return nil
}

// planBuddySegment replans a down node's segment onto its buddy projection
// hosted by a surviving node, restricted to the down node's ring range.
func (c *Cluster) planBuddySegment(q *optimizer.LogicalQuery, opts optimizer.PlanOpts, downID int) (*optimizer.PhysicalPlan, *Node, error) {
	// Only single-table (or replicated-dim) fact coverage is supported; the
	// fact table is the one with a segmented projection.
	factIdx := -1
	var primary *catalog.Projection
	for i, tr := range q.From {
		for _, p := range c.cat.ProjectionsFor(tr.Table.Name) {
			if !p.IsBuddy && !p.Seg.Replicated && p.Buddy != "" {
				factIdx = i
				primary = p
				break
			}
		}
		if factIdx >= 0 {
			break
		}
	}
	if primary == nil {
		return nil, nil, nil // nothing segmented: replicated data covers it
	}
	buddy, err := c.cat.Projection(primary.Buddy)
	if err != nil {
		return nil, nil, fmt.Errorf("cluster: node %d down and projection %q has no buddy: %w", downID, primary.Name, err)
	}
	// The buddy stores down-node rows on ring(downID + offset).
	hostID := (downID + buddy.Seg.Offset) % c.N()
	host := c.nodes[hostID]
	if !host.Up() {
		return nil, nil, fmt.Errorf("cluster: buddy host node %d for down node %d is also down", hostID, downID)
	}
	// Restrict to the down node's primary segment: RING_NODE(N, seg) = down.
	segExpr := primary.Seg.Expr
	if segExpr == nil {
		return nil, nil, fmt.Errorf("cluster: projection %q has no segmentation expression", primary.Name)
	}
	// Remap the projection-schema expression onto the query's flat schema.
	t := q.From[factIdx].Table
	offs := 0
	for i := 0; i < factIdx; i++ {
		offs += q.From[i].Table.Schema.Len()
	}
	m := map[int]int{}
	for pi := 0; pi < primary.Schema.Len(); pi++ {
		ti := t.Schema.ColIndex(primary.Schema.Col(pi).Name)
		if ti >= 0 {
			m[pi] = offs + ti
		}
	}
	flatSeg, err := expr.Remap(segExpr, m)
	if err != nil {
		return nil, nil, err
	}
	ring, err := expr.NewFunc("RING_NODE", expr.NewConst(types.NewInt(int64(c.N()))), flatSeg)
	if err != nil {
		return nil, nil, err
	}
	restrict := expr.MustCmp(expr.Eq, ring, expr.NewConst(types.NewInt(int64(downID))))
	bq := *q
	bq.Where = expr.MustAnd(q.Where, restrict)
	bopts := opts
	bopts.AllowBuddies = true
	ex := map[string]bool{}
	for k, v := range opts.ExcludeProjections {
		ex[k] = v
	}
	// Exclude every non-buddy projection of the fact table so the buddy is
	// chosen.
	for _, p := range c.cat.ProjectionsFor(t.Name) {
		if !p.IsBuddy {
			ex[p.Name] = true
		}
	}
	bopts.ExcludeProjections = ex
	plan, err := optimizer.Plan(&nodeProvider{c, host}, &bq, bopts)
	if err != nil {
		return nil, nil, err
	}
	plan.Notes = append(plan.Notes, fmt.Sprintf("buddy replan: node %d segment served by %s on %s", downID, buddy.Name, host.Name))
	return plan, host, nil
}

// mergeFunc combines the node plans' batches at the initiator under the
// query's execution context (cancellation, grant budget, spill dir).
type mergeFunc func(partials []*vector.Batch, nodeSchema *types.Schema, ectx *exec.Ctx) ([]*vector.Batch, *types.Schema, error)

// buildDistributedAgg derives the per-node query and the initiator merge.
// On a single-node cluster the node plan computes the complete result —
// HAVING, DISTINCT, ORDER BY and LIMIT included — and the initiator is a
// passthrough: that routes the whole query through the optimizer, so its
// intra-node parallel sort/DISTINCT shapes apply, and removes the redundant
// initiator re-sort the distributed split would otherwise do.
func buildDistributedAgg(q *optimizer.LogicalQuery, localFinal, singleNode bool) (*optimizer.LogicalQuery, mergeFunc, error) {
	if singleNode {
		merge := func(partials []*vector.Batch, schema *types.Schema, _ *exec.Ctx) ([]*vector.Batch, *types.Schema, error) {
			return partials, schema, nil
		}
		return q, merge, nil
	}
	finishLocal := func(partials []*vector.Batch, schema *types.Schema, ectx *exec.Ctx, ops func(exec.Operator) exec.Operator) ([]*vector.Batch, *types.Schema, error) {
		root := ops(exec.NewBatchValues(schema, partials))
		batches, err := exec.Run(ectx, root)
		if err != nil {
			return nil, nil, err
		}
		return batches, root.Schema(), nil
	}

	if !q.IsAggregate() {
		// Plain select: nodes project; initiator concatenates, then orders
		// and limits. DISTINCT must dedup globally, so it stays at the
		// initiator too.
		nodeQ := *q
		nodeQ.OrderBy = nil
		nodeQ.Limit = -1
		nodeQ.Offset = 0
		nodeQ.Distinct = false
		merge := func(partials []*vector.Batch, schema *types.Schema, ectx *exec.Ctx) ([]*vector.Batch, *types.Schema, error) {
			return finishLocal(partials, schema, ectx, func(op exec.Operator) exec.Operator {
				if q.Distinct {
					keys := make([]expr.Expr, schema.Len())
					names := make([]string, schema.Len())
					for i := range keys {
						keys[i] = expr.NewColRef(i, schema.Col(i).Typ, schema.Col(i).Name)
						names[i] = schema.Col(i).Name
					}
					op = exec.NewGroupBy(op, keys, names, nil)
				}
				if len(q.OrderBy) > 0 {
					op = exec.NewSort(op, q.OrderBy)
				}
				if q.Limit >= 0 || q.Offset > 0 {
					op = exec.NewLimit(op, q.Offset, q.Limit)
				}
				return op
			})
		}
		return &nodeQ, merge, nil
	}

	if localFinal {
		// Groups are node-local: nodes compute final aggregates; the
		// initiator concatenates and applies HAVING/post/order/limit.
		nodeQ := *q
		nodeQ.Having = nil
		nodeQ.PostProject = nil
		nodeQ.PostProjectNames = nil
		nodeQ.OrderBy = nil
		nodeQ.Limit = -1
		nodeQ.Offset = 0
		merge := func(partials []*vector.Batch, schema *types.Schema, ectx *exec.Ctx) ([]*vector.Batch, *types.Schema, error) {
			return finishLocal(partials, schema, ectx, func(op exec.Operator) exec.Operator {
				return finishAggregate(q, op)
			})
		}
		return &nodeQ, merge, nil
	}

	// Re-aggregation: rewrite AVG into SUM+COUNT; COUNT DISTINCT cannot be
	// merged across nodes without co-location.
	nodeQ := *q
	nodeQ.Having = nil
	nodeQ.PostProject = nil
	nodeQ.PostProjectNames = nil
	nodeQ.OrderBy = nil
	nodeQ.Limit = -1
	nodeQ.Offset = 0
	var nodeAggs []exec.AggSpec
	type aggMap struct {
		kind    exec.AggKind
		sumIdx  int // into nodeAggs
		cntIdx  int // for AVG
		origIdx int
	}
	var maps []aggMap
	for i, a := range q.Aggs {
		switch a.Kind {
		case exec.AggCountDistinct:
			return nil, nil, fmt.Errorf("cluster: COUNT(DISTINCT) requires grouping on the segmentation columns for co-located evaluation (paper §3.6)")
		case exec.AggAvg:
			nodeAggs = append(nodeAggs,
				exec.AggSpec{Kind: exec.AggSum, Arg: mustFloat(a.Arg), Name: a.Name + "_sum"},
				exec.AggSpec{Kind: exec.AggCount, Arg: a.Arg, Name: a.Name + "_cnt"})
			maps = append(maps, aggMap{kind: a.Kind, sumIdx: len(nodeAggs) - 2, cntIdx: len(nodeAggs) - 1, origIdx: i})
		default:
			nodeAggs = append(nodeAggs, a)
			maps = append(maps, aggMap{kind: a.Kind, sumIdx: len(nodeAggs) - 1, origIdx: i})
		}
	}
	nodeQ.Aggs = nodeAggs
	nKeys := len(q.GroupBy)
	merge := func(partials []*vector.Batch, schema *types.Schema, ectx *exec.Ctx) ([]*vector.Batch, *types.Schema, error) {
		return finishLocal(partials, schema, ectx, func(op exec.Operator) exec.Operator {
			// Re-aggregate node partials by the group keys.
			keys := make([]expr.Expr, nKeys)
			names := make([]string, nKeys)
			for i := 0; i < nKeys; i++ {
				keys[i] = expr.NewColRef(i, schema.Col(i).Typ, schema.Col(i).Name)
				names[i] = schema.Col(i).Name
			}
			reAggs := make([]exec.AggSpec, len(nodeAggs))
			for i, a := range nodeAggs {
				col := expr.NewColRef(nKeys+i, schema.Col(nKeys+i).Typ, schema.Col(nKeys+i).Name)
				switch a.Kind {
				case exec.AggCount, exec.AggCountStar:
					reAggs[i] = exec.AggSpec{Kind: exec.AggSum, Arg: col, Name: a.Name}
				case exec.AggSum:
					reAggs[i] = exec.AggSpec{Kind: exec.AggSum, Arg: col, Name: a.Name}
				case exec.AggMin:
					reAggs[i] = exec.AggSpec{Kind: exec.AggMin, Arg: col, Name: a.Name}
				case exec.AggMax:
					reAggs[i] = exec.AggSpec{Kind: exec.AggMax, Arg: col, Name: a.Name}
				}
			}
			op = exec.NewGroupBy(op, keys, names, reAggs)
			// Reshape merged partials back into the original agg outputs.
			outSchema := op.Schema()
			exprs := make([]expr.Expr, nKeys+len(q.Aggs))
			outNames := make([]string, nKeys+len(q.Aggs))
			for i := 0; i < nKeys; i++ {
				exprs[i] = expr.NewColRef(i, outSchema.Col(i).Typ, outSchema.Col(i).Name)
				outNames[i] = outSchema.Col(i).Name
			}
			for _, m := range maps {
				var e expr.Expr
				switch m.kind {
				case exec.AggAvg:
					sum := expr.NewColRef(nKeys+m.sumIdx, types.Float64, "")
					cnt := expr.NewColRef(nKeys+m.cntIdx, types.Int64, "")
					div, _ := expr.NewArith(expr.Div, sum, mustFloat(cnt))
					zero := expr.MustCmp(expr.Eq, cnt, expr.NewConst(types.NewInt(0)))
					c, _ := expr.NewCase([]expr.When{{Cond: zero, Then: expr.NewConst(types.NewNull(types.Float64))}}, div)
					e = c
				default:
					e = expr.NewColRef(nKeys+m.sumIdx, outSchema.Col(nKeys+m.sumIdx).Typ, q.Aggs[m.origIdx].Name)
				}
				exprs[nKeys+m.origIdx] = e
				outNames[nKeys+m.origIdx] = q.Aggs[m.origIdx].Name
			}
			op = exec.NewProject(op, exprs, outNames)
			return finishAggregate(q, op)
		})
	}
	return &nodeQ, merge, nil
}

// finishAggregate applies HAVING, post-projection, ORDER BY and LIMIT over
// the canonical [keys..., aggs...] schema at the initiator.
func finishAggregate(q *optimizer.LogicalQuery, op exec.Operator) exec.Operator {
	if q.Having != nil {
		op = exec.NewFilter(op, q.Having)
	}
	if q.PostProject != nil {
		op = exec.NewProject(op, q.PostProject, q.PostProjectNames)
	}
	if len(q.OrderBy) > 0 {
		op = exec.NewSort(op, q.OrderBy)
	}
	if q.Limit >= 0 || q.Offset > 0 {
		op = exec.NewLimit(op, q.Offset, q.Limit)
	}
	return op
}

func mustFloat(e expr.Expr) expr.Expr {
	if e.Type() == types.Float64 {
		return e
	}
	f, err := expr.NewFunc("FLOAT", e)
	if err != nil {
		return e
	}
	return f
}
