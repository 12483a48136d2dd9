package cluster

import (
	"context"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/exec"
	"repro/internal/expr"
	"repro/internal/optimizer"
	"repro/internal/txn"
	"repro/internal/types"
	"repro/internal/vector"
)

func testCluster(t *testing.T, nodes int) (*Cluster, *catalog.Catalog) {
	t.Helper()
	cat := catalog.New("")
	if err := cat.CreateTable(&catalog.Table{
		Name: "t",
		Schema: types.NewSchema(
			types.Column{Name: "id", Typ: types.Int64},
			types.Column{Name: "v", Typ: types.Float64},
		),
	}); err != nil {
		t.Fatal(err)
	}
	c, err := New(Config{Nodes: nodes, Dir: t.TempDir()}, cat, txn.NewManager())
	if err != nil {
		t.Fatal(err)
	}
	return c, cat
}

func segProjection(t *testing.T, cat *catalog.Catalog, name string, offset int) *catalog.Projection {
	t.Helper()
	p := &catalog.Projection{
		Name: name, Anchor: "t",
		Columns:   []string{"id", "v"},
		SortOrder: []string{"id"},
		Seg:       catalog.Segmentation{ExprText: "HASH(id)", Offset: offset},
		IsBuddy:   offset > 0,
	}
	if err := cat.CreateProjection(p); err != nil {
		t.Fatal(err)
	}
	seg, err := expr.NewFunc("HASH", expr.NewColRef(0, types.Int64, "id"))
	if err != nil {
		t.Fatal(err)
	}
	p.Seg.Expr = seg
	return p
}

// tRows returns a batch of n rows of table t: id = 0..n-1, v = 0.
func tRows(n int) *vector.Batch {
	ids := make([]int64, n)
	for i := range ids {
		ids[i] = int64(i)
	}
	return vector.NewBatch(vector.NewFromInts(types.Int64, ids), vector.NewFromFloats(make([]float64, n)))
}

func TestRouteRowSegmented(t *testing.T) {
	c, cat := testCluster(t, 4)
	p := segProjection(t, cat, "p", 0)
	shares, err := c.shares(p, tRows(4000))
	if err != nil {
		t.Fatal(err)
	}
	for n, share := range shares {
		if cnt := share.Len(); cnt < 500 || cnt > 1500 {
			t.Errorf("node %d got %d rows: ring badly skewed", n, cnt)
		}
	}
}

func TestRouteRowBuddyOffset(t *testing.T) {
	c, cat := testCluster(t, 3)
	p := segProjection(t, cat, "p", 0)
	b := segProjection(t, cat, "p_b1", 1)
	p.Buddy = "p_b1"
	rows := tRows(300)
	pid, bid := nodeOfRow(t, c, p, rows), nodeOfRow(t, c, b, rows)
	for i := range pid {
		if pid[i] == bid[i] {
			t.Fatalf("row %d stored on the same node by both projections (K-safety violated)", i)
		}
		if bid[i] != (pid[i]+1)%3 {
			t.Fatalf("buddy offset wrong: primary %d buddy %d", pid[i], bid[i])
		}
	}
}

// nodeOfRow runs the split over b and returns the node each row went to.
func nodeOfRow(t *testing.T, c *Cluster, p *catalog.Projection, b *vector.Batch) []int {
	shares, err := c.shares(p, b)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]int, b.Len())
	for id, share := range shares {
		if share == nil {
			continue
		}
		for j := range share.Len() {
			i := j
			if share.Sel != nil {
				i = share.Sel[j]
			}
			out[i] = id
		}
	}
	return out
}

// TestRouteRowReplicated: every node stores every row of a replicated
// projection.
func TestRouteRowReplicated(t *testing.T) {
	c, cat := testCluster(t, 3)
	p := &catalog.Projection{
		Name: "r", Anchor: "t", Columns: []string{"id", "v"},
		Seg: catalog.Segmentation{Replicated: true},
	}
	cat.CreateProjection(p)
	tx := c.Txn.Begin()
	if err := c.StageInsert(tx, "t", tRows(5), false); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Txn.Commit(tx); err != nil {
		t.Fatal(err)
	}
	for _, n := range c.Nodes() {
		mgr, err := n.Mgr(p, c.ManagerOpts())
		if err != nil {
			t.Fatal(err)
		}
		if got := mgr.WOS().Len(); got != 5 {
			t.Errorf("node %d holds %d rows of the replicated projection, want 5", n.ID, got)
		}
	}
	shares, err := c.shares(p, tRows(1))
	if err != nil {
		t.Fatal(err)
	}
	for id, share := range shares {
		if share == nil || share.Len() != 1 {
			t.Errorf("replicated row not routed to node %d (%v)", id, share)
		}
	}
}

func TestQuorum(t *testing.T) {
	c, _ := testCluster(t, 5)
	if c.QuorumSize() != 3 {
		t.Errorf("quorum of 5 = %d", c.QuorumSize())
	}
	if !c.HasQuorum() {
		t.Error("full cluster should have quorum")
	}
	c.nodes[0].setUp(false)
	c.nodes[1].setUp(false)
	if !c.HasQuorum() {
		t.Error("3 of 5 should still be quorum")
	}
	c.nodes[2].setUp(false)
	if c.HasQuorum() {
		t.Error("2 of 5 is not quorum")
	}
}

func TestFailNodeEjectsAndHoldsAHM(t *testing.T) {
	c, cat := testCluster(t, 3)
	p := segProjection(t, cat, "p", 0)
	segProjection(t, cat, "p_b1", 1)
	p.Buddy = "p_b1"
	if err := c.FailNode(1); err != nil {
		t.Fatalf("single failure with buddies should not shut down: %v", err)
	}
	if c.Node(1).Up() {
		t.Error("node still up")
	}
	// AHM is held.
	c.Txn.Epochs.CommitDML()
	c.Txn.Epochs.CommitDML()
	if got := c.Txn.Epochs.AdvanceAHM(); got != 0 {
		t.Errorf("AHM advanced to %d while node down", got)
	}
	if err := c.FailNode(1); err == nil {
		t.Error("failing a down node should error")
	}
}

func TestDataUnavailableWithoutBuddies(t *testing.T) {
	c, cat := testCluster(t, 3)
	segProjection(t, cat, "p", 0) // no buddy
	err := c.FailNode(0)
	if err == nil {
		t.Fatal("losing a segment with no buddy must shut the database down")
	}
	if !c.IsShutdown() {
		t.Error("cluster should be shut down")
	}
}

func TestLocalSegmentOf(t *testing.T) {
	c, cat := testCluster(t, 2)
	p := segProjection(t, cat, "p", 0)
	pl, err := c.Placement(p)
	if err != nil {
		t.Fatal(err)
	}
	segs, err := pl.LocalSegmentOf(tRows(3000))
	if err != nil {
		t.Fatal(err)
	}
	counts := map[int]int{}
	for _, s := range segs {
		if s < 0 || s >= 3 {
			t.Fatalf("local segment %d out of range", s)
		}
		counts[s]++
	}
	if len(counts) != 3 {
		t.Errorf("local segments used = %v, want 3 (Figure 2)", counts)
	}
}

func TestStageInsertRejectsNullInNotNull(t *testing.T) {
	cat := catalog.New("")
	cat.CreateTable(&catalog.Table{
		Name: "nn",
		Schema: types.NewSchema(
			types.Column{Name: "id", Typ: types.Int64, Nullable: false},
		),
	})
	c, err := New(Config{Nodes: 1, Dir: t.TempDir()}, cat, txn.NewManager())
	if err != nil {
		t.Fatal(err)
	}
	cat.CreateProjection(&catalog.Projection{Name: "nn_s", Anchor: "nn", Columns: []string{"id"}})
	tx := c.Txn.Begin()
	ids := vector.New(types.Int64, 2)
	ids.AppendValue(types.NewInt(1))
	ids.AppendNull()
	err = c.StageInsert(tx, "nn", vector.NewBatch(ids), false)
	if err == nil {
		t.Error("NULL into NOT NULL column should fail")
	}
}

// measuresCluster builds a cluster of the given size holding table
// m(id, g, v), segmented by HASH(id), with 3000 committed rows (a few v
// NULL) in the WOS.
func measuresCluster(t *testing.T, nodes int) (*Cluster, *catalog.Table) {
	t.Helper()
	cat := catalog.New("")
	tbl := &catalog.Table{
		Name: "m",
		Schema: types.NewSchema(
			types.Column{Name: "id", Typ: types.Int64},
			types.Column{Name: "g", Typ: types.Int64},
			types.Column{Name: "v", Typ: types.Float64, Nullable: true},
		),
	}
	if err := cat.CreateTable(tbl); err != nil {
		t.Fatal(err)
	}
	c, err := New(Config{Nodes: nodes, Dir: t.TempDir()}, cat, txn.NewManager())
	if err != nil {
		t.Fatal(err)
	}
	seg, err := expr.NewFunc("HASH", expr.NewColRef(0, types.Int64, "id"))
	if err != nil {
		t.Fatal(err)
	}
	if err := cat.CreateProjection(&catalog.Projection{
		Name: "m_super", Anchor: "m",
		Columns:   []string{"id", "g", "v"},
		SortOrder: []string{"id"},
		Seg:       catalog.Segmentation{ExprText: "HASH(id)", Expr: seg},
	}); err != nil {
		t.Fatal(err)
	}
	rows := make([]types.Row, 3000)
	for i := range rows {
		v := types.NewFloat(float64((i*7919)%1000) / 4)
		if i%97 == 0 {
			v = types.NewNull(types.Float64)
		}
		rows[i] = types.Row{types.NewInt(int64(i)), types.NewInt(int64(i % 13)), v}
	}
	tx := c.Txn.Begin()
	if err := c.StageInsert(tx, "m", vector.BatchFromRows(tbl.Schema, rows), false); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Txn.Commit(tx); err != nil {
		t.Fatal(err)
	}
	return c, tbl
}

// TestInitiatorMergeMatchesSingleNode runs queries whose last steps happen at
// the initiator on a 3-node cluster — ORDER BY + LIMIT over concatenated
// node results, DISTINCT, and a GROUP BY off the segmentation key that has
// to be re-aggregated (AVG as SUM and COUNT) — and checks the batches the
// merge pipeline yields hold the rows a 1-node cluster computes in its node
// plan alone.
func TestInitiatorMergeMatchesSingleNode(t *testing.T) {
	one, tbl1 := measuresCluster(t, 1)
	three, tbl3 := measuresCluster(t, 3)
	col := func(i int, typ types.Type, name string) expr.Expr { return expr.NewColRef(i, typ, name) }
	queries := map[string]func(tbl *catalog.Table) *optimizer.LogicalQuery{
		"order-by-limit": func(tbl *catalog.Table) *optimizer.LogicalQuery {
			return &optimizer.LogicalQuery{
				From:        []optimizer.TableRef{{Table: tbl, Alias: "m"}},
				Where:       expr.MustCmp(expr.Ge, col(0, types.Int64, "id"), expr.NewConst(types.NewInt(100))),
				SelectExprs: []expr.Expr{col(2, types.Float64, "v"), col(0, types.Int64, "id")},
				SelectNames: []string{"v", "id"},
				OrderBy:     []vector.SortSpec{{Col: 0, Desc: true}, {Col: 1}},
				Offset:      3, Limit: 40,
			}
		},
		"distinct": func(tbl *catalog.Table) *optimizer.LogicalQuery {
			return &optimizer.LogicalQuery{
				From:        []optimizer.TableRef{{Table: tbl, Alias: "m"}},
				SelectExprs: []expr.Expr{col(1, types.Int64, "g")},
				SelectNames: []string{"g"},
				Distinct:    true,
				OrderBy:     []vector.SortSpec{{Col: 0}},
				Limit:       -1,
			}
		},
		"re-aggregated-group-by": func(tbl *catalog.Table) *optimizer.LogicalQuery {
			v := col(2, types.Float64, "v")
			return &optimizer.LogicalQuery{
				From:     []optimizer.TableRef{{Table: tbl, Alias: "m"}},
				GroupBy:  []int{1},
				KeyNames: []string{"g"},
				Aggs: []exec.AggSpec{
					{Kind: exec.AggCountStar, Name: "n"},
					{Kind: exec.AggCount, Arg: v, Name: "nv"},
					{Kind: exec.AggSum, Arg: v, Name: "total"},
					{Kind: exec.AggAvg, Arg: v, Name: "mean"},
					{Kind: exec.AggMin, Arg: v, Name: "lo"},
					{Kind: exec.AggMax, Arg: v, Name: "hi"},
				},
				Having:  expr.MustCmp(expr.Gt, col(1, types.Int64, "n"), expr.NewConst(types.NewInt(0))),
				OrderBy: []vector.SortSpec{{Col: 3, Desc: true}, {Col: 0}},
				Limit:   10,
			}
		},
	}
	for name, build := range queries {
		want, err := one.Run(build(tbl1), optimizer.PlanOpts{})
		if err != nil {
			t.Fatalf("%s on 1 node: %v", name, err)
		}
		// Node plans that fan out to worker pipelines merge at the
		// initiator like serial ones.
		fanned := optimizer.PlanOpts{Parallelism: 2, ForceParallel: true}
		got, err := three.RunCtx(context.Background(), build(tbl3), fanned)
		if err != nil {
			t.Fatalf("%s on 3 nodes: %v", name, err)
		}
		if !strings.Contains(got.Explain.String(), "distributed over 3 node plan(s)") {
			t.Fatalf("%s did not fan out: %s", name, got.Explain)
		}
		wantRows, gotRows := vector.Rows(want.Batches), vector.Rows(got.Batches)
		if len(wantRows) == 0 || len(gotRows) != len(wantRows) {
			t.Fatalf("%s: %d rows from 3 nodes, %d from 1", name, len(gotRows), len(wantRows))
		}
		for i := range wantRows {
			if gotRows[i].String() != wantRows[i].String() {
				t.Fatalf("%s row %d: 3 nodes %s, 1 node %s", name, i, gotRows[i], wantRows[i])
			}
		}
		if got.Schema.String() != want.Schema.String() {
			t.Fatalf("%s schema: 3 nodes %s, 1 node %s", name, got.Schema, want.Schema)
		}
	}
}

// TestCheckPlacement pins the StarOpt placement rule (paper §6.2) a
// multi-node join is held to before admission: every projection but the
// fact's is replicated or segmented exactly as the fact is.
func TestCheckPlacement(t *testing.T) {
	c, m := measuresCluster(t, 3)
	d := &catalog.Table{Name: "d", Schema: types.NewSchema(
		types.Column{Name: "id", Typ: types.Int64},
		types.Column{Name: "name", Typ: types.Varchar},
	)}
	if err := c.cat.CreateTable(d); err != nil {
		t.Fatal(err)
	}
	for _, p := range []*catalog.Projection{
		{Name: "d_rep", Seg: catalog.Segmentation{Replicated: true}},
		{Name: "d_co", Seg: catalog.Segmentation{ExprText: "HASH(id)"}},
		{Name: "d_by_name", Seg: catalog.Segmentation{ExprText: "HASH(name)"}},
	} {
		p.Anchor, p.Columns, p.SortOrder = "d", []string{"id", "name"}, []string{"id"}
		if err := c.cat.CreateProjection(p); err != nil {
			t.Fatal(err)
		}
	}
	q := &optimizer.LogicalQuery{From: []optimizer.TableRef{{Table: m}, {Table: d}}}
	for projs, ok := range map[string]bool{"d_rep": true, "d_co": true, "d_by_name": false} {
		err := c.checkPlacement(q, []string{"m_super", projs})
		if (err == nil) != ok {
			t.Errorf("m_super joined with %s: err = %v", projs, err)
		}
	}
	if err := c.checkPlacement(&optimizer.LogicalQuery{From: q.From[:1]}, []string{"m_super"}); err != nil {
		t.Errorf("a one-table query has nothing to place: %v", err)
	}
}
