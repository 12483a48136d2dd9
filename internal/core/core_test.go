package core

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/types"
)

func openTestDB(t testing.TB, nodes, k int) *Database {
	t.Helper()
	db, err := Open(Options{Dir: t.TempDir(), Nodes: nodes, K: k})
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func setupSales(t testing.TB, db *Database, n int) {
	t.Helper()
	db.MustExecute(`CREATE TABLE sales (sale_id INT, cust INT, price FLOAT, qty INT)`)
	db.MustExecute(`CREATE PROJECTION sales_super ON sales (sale_id, cust, price, qty)
		ORDER BY sale_id SEGMENTED BY HASH(sale_id)`)
	rows := make([]types.Row, 0, n)
	for i := 0; i < n; i++ {
		rows = append(rows, types.Row{
			types.NewInt(int64(i)),
			types.NewInt(int64(i % 10)),
			types.NewFloat(float64(i) + 0.5),
			types.NewInt(int64(i % 3)),
		})
	}
	if err := db.Load("sales", rows, false); err != nil {
		t.Fatal(err)
	}
}

func TestCreateInsertSelect(t *testing.T) {
	db := openTestDB(t, 1, 0)
	db.MustExecute(`CREATE TABLE t1 (a INT, b VARCHAR, c FLOAT)`)
	db.MustExecute(`CREATE PROJECTION t1_super ON t1 (a, b, c) ORDER BY a SEGMENTED BY HASH(a)`)
	db.MustExecute(`INSERT INTO t1 VALUES (1, 'one', 1.5), (2, 'two', 2.5), (3, NULL, 3.5)`)
	res := db.MustExecute(`SELECT a, b, c FROM t1 ORDER BY a`)
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	if res.Rows[0][1].S != "one" || !res.Rows[2][1].Null {
		t.Errorf("rows = %v", res.Rows)
	}
	if res.Schema.Col(2).Typ != types.Float64 {
		t.Error("schema type wrong")
	}
}

func TestSelectWherePredicate(t *testing.T) {
	db := openTestDB(t, 1, 0)
	setupSales(t, db, 100)
	res := db.MustExecute(`SELECT sale_id FROM sales WHERE price > 49.0 AND qty = 0 ORDER BY sale_id`)
	// price > 49.0 means sale_id >= 49; qty = 0 means sale_id % 3 == 0.
	want := 0
	for i := 49; i < 100; i++ {
		if i%3 == 0 {
			want++
		}
	}
	if len(res.Rows) != want {
		t.Fatalf("rows = %d, want %d", len(res.Rows), want)
	}
}

func TestAggregateQuery(t *testing.T) {
	db := openTestDB(t, 1, 0)
	setupSales(t, db, 1000)
	res := db.MustExecute(`SELECT cust, COUNT(*) AS n, SUM(price) AS total, AVG(price) AS ap
		FROM sales GROUP BY cust ORDER BY cust`)
	if len(res.Rows) != 10 {
		t.Fatalf("groups = %d", len(res.Rows))
	}
	r0 := res.Rows[0] // cust 0: sale_ids 0,10,...,990
	if r0[1].I != 100 {
		t.Errorf("count = %v", r0[1])
	}
	wantSum := 0.0
	for i := 0; i < 1000; i += 10 {
		wantSum += float64(i) + 0.5
	}
	if r0[2].F != wantSum {
		t.Errorf("sum = %v, want %v", r0[2], wantSum)
	}
	if r0[3].F != wantSum/100 {
		t.Errorf("avg = %v", r0[3])
	}
}

func TestHavingAndExpressionSelect(t *testing.T) {
	db := openTestDB(t, 1, 0)
	setupSales(t, db, 100)
	res := db.MustExecute(`SELECT cust, COUNT(*) * 2 AS double_n FROM sales
		GROUP BY cust HAVING COUNT(*) > 5 ORDER BY cust`)
	if len(res.Rows) != 10 {
		t.Fatalf("groups = %d", len(res.Rows))
	}
	if res.Rows[0][1].I != 20 {
		t.Errorf("computed select = %v", res.Rows[0][1])
	}
}

func TestGlobalAggregateOnEmptyTable(t *testing.T) {
	db := openTestDB(t, 1, 0)
	db.MustExecute(`CREATE TABLE e (x INT)`)
	db.MustExecute(`CREATE PROJECTION e_super ON e (x) ORDER BY x SEGMENTED BY HASH(x)`)
	res := db.MustExecute(`SELECT COUNT(*), SUM(x) FROM e`)
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	if res.Rows[0][0].I != 0 || !res.Rows[0][1].Null {
		t.Errorf("empty agg = %v", res.Rows[0])
	}
}

func TestJoinWithReplicatedDimension(t *testing.T) {
	db := openTestDB(t, 1, 0)
	setupSales(t, db, 100)
	db.MustExecute(`CREATE TABLE customers (cust_id INT, name VARCHAR, region VARCHAR)`)
	db.MustExecute(`CREATE PROJECTION customers_super ON customers (cust_id, name, region)
		ORDER BY cust_id REPLICATED`)
	var ins []string
	for i := 0; i < 8; i++ { // custs 8,9 have no dimension row
		ins = append(ins, fmt.Sprintf("(%d, 'cust%d', 'r%d')", i, i, i%2))
	}
	db.MustExecute(`INSERT INTO customers VALUES ` + strings.Join(ins, ", "))
	res := db.MustExecute(`SELECT region, COUNT(*) AS n FROM sales
		JOIN customers ON sales.cust = customers.cust_id
		GROUP BY region ORDER BY region`)
	if len(res.Rows) != 2 {
		t.Fatalf("regions = %d: %v", len(res.Rows), res.Rows)
	}
	if res.Rows[0][1].I != 40 || res.Rows[1][1].I != 40 {
		t.Errorf("join counts = %v", res.Rows)
	}
	// Left join keeps unmatched custs.
	res = db.MustExecute(`SELECT COUNT(*) FROM sales LEFT JOIN customers ON sales.cust = customers.cust_id`)
	if res.Rows[0][0].I != 100 {
		t.Errorf("left join count = %v", res.Rows[0][0])
	}
}

func TestDeleteAndTimeTravel(t *testing.T) {
	db := openTestDB(t, 1, 0)
	setupSales(t, db, 50)
	before := db.Txns().Epochs.ReadEpoch()
	res := db.MustExecute(`DELETE FROM sales WHERE sale_id < 10`)
	if res.RowsAffected != 10 {
		t.Fatalf("deleted = %d", res.RowsAffected)
	}
	now := db.MustExecute(`SELECT COUNT(*) FROM sales`)
	if now.Rows[0][0].I != 40 {
		t.Errorf("post-delete count = %v", now.Rows[0][0])
	}
	// Historical query sees the deleted rows (epoch snapshot).
	hist, err := db.QueryAt(`SELECT COUNT(*) FROM sales`, before)
	if err != nil {
		t.Fatal(err)
	}
	if hist.Rows[0][0].I != 50 {
		t.Errorf("historical count = %v, want 50", hist.Rows[0][0])
	}
}

func TestUpdateIsDeletePlusInsert(t *testing.T) {
	db := openTestDB(t, 1, 0)
	setupSales(t, db, 20)
	res := db.MustExecute(`UPDATE sales SET price = 999.0 WHERE sale_id = 5`)
	if res.RowsAffected != 1 {
		t.Fatalf("updated = %d", res.RowsAffected)
	}
	got := db.MustExecute(`SELECT price FROM sales WHERE sale_id = 5`)
	if len(got.Rows) != 1 || got.Rows[0][0].F != 999.0 {
		t.Errorf("updated row = %v", got.Rows)
	}
	cnt := db.MustExecute(`SELECT COUNT(*) FROM sales`)
	if cnt.Rows[0][0].I != 20 {
		t.Errorf("count changed by update: %v", cnt.Rows[0][0])
	}
}

func TestTransactionVisibilityAndRollback(t *testing.T) {
	db := openTestDB(t, 1, 0)
	db.MustExecute(`CREATE TABLE t (x INT)`)
	db.MustExecute(`CREATE PROJECTION t_super ON t (x) ORDER BY x SEGMENTED BY HASH(x)`)
	s := db.NewSession()
	defer s.Close()
	if _, err := s.Execute(`BEGIN`); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Execute(`INSERT INTO t VALUES (1)`); err != nil {
		t.Fatal(err)
	}
	// Uncommitted data is invisible to other sessions.
	res := db.MustExecute(`SELECT COUNT(*) FROM t`)
	if res.Rows[0][0].I != 0 {
		t.Errorf("uncommitted insert visible: %v", res.Rows[0][0])
	}
	if _, err := s.Execute(`ROLLBACK`); err != nil {
		t.Fatal(err)
	}
	res = db.MustExecute(`SELECT COUNT(*) FROM t`)
	if res.Rows[0][0].I != 0 {
		t.Errorf("rollback left data: %v", res.Rows[0][0])
	}
	// Committed transaction becomes visible.
	s2 := db.NewSession()
	defer s2.Close()
	s2.Execute(`BEGIN`)
	s2.Execute(`INSERT INTO t VALUES (2), (3)`)
	s2.Execute(`COMMIT`)
	res = db.MustExecute(`SELECT COUNT(*) FROM t`)
	if res.Rows[0][0].I != 2 {
		t.Errorf("committed rows = %v", res.Rows[0][0])
	}
}

func TestTupleMoverIntegration(t *testing.T) {
	db := openTestDB(t, 1, 0)
	setupSales(t, db, 200)
	// Load went to the WOS (below direct threshold); move it out.
	moved, _, err := db.RunTupleMover()
	if err != nil {
		t.Fatal(err)
	}
	if moved != 200 {
		t.Errorf("moved = %d", moved)
	}
	res := db.MustExecute(`SELECT COUNT(*) FROM sales`)
	if res.Rows[0][0].I != 200 {
		t.Errorf("count after moveout = %v", res.Rows[0][0])
	}
	// Load more and merge out.
	var rows []types.Row
	for i := 200; i < 400; i++ {
		rows = append(rows, types.Row{
			types.NewInt(int64(i)), types.NewInt(int64(i % 10)),
			types.NewFloat(float64(i)), types.NewInt(0),
		})
	}
	db.Load("sales", rows, false)
	if _, _, err := db.RunTupleMover(); err != nil {
		t.Fatal(err)
	}
	res = db.MustExecute(`SELECT COUNT(*) FROM sales`)
	if res.Rows[0][0].I != 400 {
		t.Errorf("count after merge = %v", res.Rows[0][0])
	}
}

// TestPinnedEpochStableAcrossMoveout pins a historical epoch and asserts
// its full result set never changes while the tuple mover migrates the
// rows it covers from WOS to ROS, merges containers, and later DML stamps
// delete vectors — the paper's invariant that the tuple mover is invisible
// to every epoch ("queries take no locks" + epoch snapshots). The AHM is
// held, as a real deployment must when readers pin ancient epochs.
func TestPinnedEpochStableAcrossMoveout(t *testing.T) {
	db := openTestDB(t, 1, 0)
	setupSales(t, db, 120) // below the direct-load threshold: lands in the WOS
	db.Txns().Epochs.HoldAHM(true)

	pin := db.Txns().Epochs.ReadEpoch()
	const pinQ = `SELECT sale_id, cust, price FROM sales ORDER BY sale_id`
	snapshot := func() string {
		res, err := db.QueryAt(pinQ, pin)
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		for _, row := range res.Rows {
			for _, v := range row {
				b.WriteString(v.String())
				b.WriteByte('|')
			}
			b.WriteByte('\n')
		}
		return b.String()
	}
	want := snapshot()
	if want == "" {
		t.Fatal("pinned snapshot is empty")
	}

	// Churn: new inserts, deletes of rows the pin can see, then tuple-mover
	// cycles (moveout of the pinned rows, mergeout of the containers).
	db.MustExecute(`INSERT INTO sales VALUES (500, 1, 1.5, 1), (501, 2, 2.5, 1)`)
	db.MustExecute(`DELETE FROM sales WHERE sale_id < 30`)
	for i := 0; i < 3; i++ {
		if _, _, err := db.RunTupleMover(); err != nil {
			t.Fatal(err)
		}
		if got := snapshot(); got != want {
			t.Fatalf("pinned epoch %d drifted after mover cycle %d:\ngot:\n%s\nwant:\n%s", pin, i+1, got, want)
		}
		db.MustExecute(fmt.Sprintf(`INSERT INTO sales VALUES (%d, 3, 3.5, 1)`, 600+i))
	}
	// The live view meanwhile reflects all the churn.
	live := db.MustExecute(`SELECT COUNT(*) FROM sales`)
	if got := live.Rows[0][0].I; got != 120+2-30+3 {
		t.Errorf("live count = %d, want %d", got, 120+2-30+3)
	}
}

func TestDirectLoadBypassesWOS(t *testing.T) {
	db := openTestDB(t, 1, 0)
	db.MustExecute(`CREATE TABLE big (x INT)`)
	db.MustExecute(`CREATE PROJECTION big_super ON big (x) ORDER BY x SEGMENTED BY HASH(x)`)
	rows := make([]types.Row, 500)
	for i := range rows {
		rows[i] = types.Row{types.NewInt(int64(i))}
	}
	if err := db.Load("big", rows, true); err != nil {
		t.Fatal(err)
	}
	// Direct load: data is in ROS containers, WOS empty.
	p, _ := db.Catalog().Projection("big_super")
	mgr, _ := db.Cluster().Node(0).Mgr(p, db.Cluster().ManagerOpts())
	if mgr.WOS().Len() != 0 {
		t.Error("direct load left rows in WOS")
	}
	if mgr.RowCount() != 500 {
		t.Errorf("ROS rows = %d", mgr.RowCount())
	}
	res := db.MustExecute(`SELECT COUNT(*) FROM big`)
	if res.Rows[0][0].I != 500 {
		t.Errorf("count = %v", res.Rows[0][0])
	}
}

func TestDropPartition(t *testing.T) {
	db := openTestDB(t, 1, 0)
	db.MustExecute(`CREATE TABLE events (id INT, month INT, v FLOAT) PARTITION BY month`)
	db.MustExecute(`CREATE PROJECTION events_super ON events (id, month, v)
		ORDER BY id SEGMENTED BY HASH(id)`)
	var rows []types.Row
	for i := 0; i < 300; i++ {
		rows = append(rows, types.Row{
			types.NewInt(int64(i)), types.NewInt(int64(i % 3)), types.NewFloat(1),
		})
	}
	db.Load("events", rows, true)
	res := db.MustExecute(`DROP PARTITION events '1'`)
	if res.RowsAffected != 100 {
		t.Fatalf("dropped = %d", res.RowsAffected)
	}
	cnt := db.MustExecute(`SELECT COUNT(*) FROM events`)
	if cnt.Rows[0][0].I != 200 {
		t.Errorf("count = %v", cnt.Rows[0][0])
	}
	m := db.MustExecute(`SELECT COUNT(*) FROM events WHERE month = 1`)
	if m.Rows[0][0].I != 0 {
		t.Errorf("partition rows remain: %v", m.Rows[0][0])
	}
}

func TestExplain(t *testing.T) {
	db := openTestDB(t, 1, 0)
	setupSales(t, db, 100)
	res := db.MustExecute(`EXPLAIN SELECT cust, COUNT(*) FROM sales WHERE price > 10 GROUP BY cust`)
	if !strings.Contains(res.Explain.String(), "Scan") || !strings.Contains(res.Explain.String(), "GroupBy") {
		t.Errorf("explain = %s", res.Explain)
	}
}

// --- multi-node ---------------------------------------------------------------

func TestMultiNodeQueryAndAggregate(t *testing.T) {
	db := openTestDB(t, 3, 1)
	setupSales(t, db, 999)
	res := db.MustExecute(`SELECT COUNT(*), SUM(price), AVG(qty) FROM sales`)
	if res.Rows[0][0].I != 999 {
		t.Errorf("count = %v", res.Rows[0][0])
	}
	var wantSum float64
	for i := 0; i < 999; i++ {
		wantSum += float64(i) + 0.5
	}
	if diff := res.Rows[0][1].F - wantSum; diff > 1e-6 || diff < -1e-6 {
		t.Errorf("sum = %v, want %v", res.Rows[0][1], wantSum)
	}
	g := db.MustExecute(`SELECT cust, COUNT(*) AS n FROM sales GROUP BY cust ORDER BY cust`)
	if len(g.Rows) != 10 {
		t.Fatalf("groups = %d", len(g.Rows))
	}
	total := int64(0)
	for _, r := range g.Rows {
		total += r[1].I
	}
	if total != 999 {
		t.Errorf("group total = %d", total)
	}
}

func TestMultiNodeDataIsSegmented(t *testing.T) {
	db := openTestDB(t, 3, 1)
	setupSales(t, db, 600)
	p, _ := db.Catalog().Projection("sales_super")
	counts := make([]int, 3)
	for i, n := range db.Cluster().Nodes() {
		mgr, _ := n.Mgr(p, db.Cluster().ManagerOpts())
		counts[i] = mgr.WOS().Len() + int(mgr.RowCount())
	}
	sum := counts[0] + counts[1] + counts[2]
	if sum != 600 {
		t.Fatalf("segmented rows total %d, want 600 (counts %v)", sum, counts)
	}
	for i, c := range counts {
		if c == 0 || c == 600 {
			t.Errorf("node %d holds %d rows: not segmented", i, c)
		}
	}
	// Buddy projection stores a full second copy offset by one node.
	buddy, err := db.Catalog().Projection("sales_super_b1")
	if err != nil {
		t.Fatal(err)
	}
	bsum := 0
	for _, n := range db.Cluster().Nodes() {
		mgr, _ := n.Mgr(buddy, db.Cluster().ManagerOpts())
		bsum += mgr.WOS().Len() + int(mgr.RowCount())
	}
	if bsum != 600 {
		t.Errorf("buddy rows = %d, want 600", bsum)
	}
}

func TestNodeFailureQueriesViaBuddy(t *testing.T) {
	db := openTestDB(t, 3, 1)
	setupSales(t, db, 300)
	// Move WOS to ROS so the failed node's data is durable on its buddy.
	if _, _, err := db.RunTupleMover(); err != nil {
		t.Fatal(err)
	}
	base := db.MustExecute(`SELECT COUNT(*), SUM(price) FROM sales`)
	if err := db.Cluster().FailNode(1); err != nil {
		t.Fatal(err)
	}
	db.Cluster().Node(1).ClearWOS()
	got := db.MustExecute(`SELECT COUNT(*), SUM(price) FROM sales`)
	if got.Rows[0][0].I != base.Rows[0][0].I {
		t.Errorf("count with node down = %v, want %v", got.Rows[0][0], base.Rows[0][0])
	}
	if got.Rows[0][1].F != base.Rows[0][1].F {
		t.Errorf("sum with node down = %v, want %v", got.Rows[0][1], base.Rows[0][1])
	}
}

func TestNodeFailureRecoveryReplaysMissedDML(t *testing.T) {
	db := openTestDB(t, 3, 1)
	setupSales(t, db, 300)
	db.RunTupleMover()
	if err := db.Cluster().FailNode(2); err != nil {
		t.Fatal(err)
	}
	db.Cluster().Node(2).ClearWOS()
	// DML while the node is down.
	var rows []types.Row
	for i := 300; i < 400; i++ {
		rows = append(rows, types.Row{
			types.NewInt(int64(i)), types.NewInt(int64(i % 10)),
			types.NewFloat(float64(i)), types.NewInt(0),
		})
	}
	if err := db.Load("sales", rows, false); err != nil {
		t.Fatal(err)
	}
	db.MustExecute(`DELETE FROM sales WHERE sale_id < 50`)
	// Recover; the node replays the missed epochs from its buddies.
	if err := db.Cluster().RecoverNode(2); err != nil {
		t.Fatal(err)
	}
	res := db.MustExecute(`SELECT COUNT(*) FROM sales`)
	if res.Rows[0][0].I != 350 {
		t.Errorf("count after recovery = %v, want 350", res.Rows[0][0])
	}
	// Fail a different node: the recovered node must now serve as a buddy
	// source, proving its copy is complete.
	if err := db.Cluster().FailNode(0); err != nil {
		t.Fatal(err)
	}
	db.Cluster().Node(0).ClearWOS()
	res = db.MustExecute(`SELECT COUNT(*) FROM sales`)
	if res.Rows[0][0].I != 350 {
		t.Errorf("count with recovered topology = %v, want 350", res.Rows[0][0])
	}
}

func TestQuorumLossShutsDown(t *testing.T) {
	db := openTestDB(t, 3, 1)
	setupSales(t, db, 30)
	db.RunTupleMover()
	if err := db.Cluster().FailNode(0); err != nil {
		t.Fatal(err)
	}
	// Second failure loses quorum (2 of 3 needed).
	err := db.Cluster().FailNode(1)
	if err == nil {
		t.Fatal("expected shutdown error on quorum loss")
	}
	if !db.Cluster().IsShutdown() {
		t.Error("cluster should be shut down")
	}
	if _, err := db.Execute(`SELECT COUNT(*) FROM sales`); err == nil {
		t.Error("queries should fail after shutdown")
	}
}

// TestKSafetyIsOneBuddy pins K-safety to what the engine keeps: one buddy
// per segmented projection, one node over. Open refuses K = 2, which it
// could not give. At K = 1 on five nodes, two failures stay up exactly
// when neither down node hosts the other's buddy.
func TestKSafetyIsOneBuddy(t *testing.T) {
	if _, err := Open(Options{Dir: t.TempDir(), Nodes: 5, K: 2}); err == nil {
		t.Fatal("Open accepted K = 2 with one buddy per projection")
	}
	for _, tc := range []struct {
		down []int
		up   bool
	}{
		{[]int{0, 2}, true},  // node 0's buddy is on node 1, node 2's on node 3
		{[]int{0, 1}, false}, // node 1 hosts node 0's buddy
	} {
		db := openTestDB(t, 5, 1)
		setupSales(t, db, 100)
		db.RunTupleMover()
		err := db.Cluster().FailNode(tc.down[0])
		if err == nil {
			err = db.Cluster().FailNode(tc.down[1])
		}
		if up := err == nil && !db.Cluster().IsShutdown(); up != tc.up {
			t.Fatalf("down %v: up = %v (err %v), want %v", tc.down, up, err, tc.up)
		}
		if !tc.up {
			continue
		}
		if res := db.MustExecute(`SELECT COUNT(*) FROM sales`); res.Rows[0][0].I != 100 {
			t.Errorf("down %v: count = %v, want 100", tc.down, res.Rows[0][0])
		}
	}
}

func TestAHMHeldWhileNodeDown(t *testing.T) {
	db := openTestDB(t, 3, 1)
	setupSales(t, db, 30)
	db.RunTupleMover()
	ahmBefore := db.Txns().Epochs.AHM()
	db.Cluster().FailNode(1)
	db.MustExecute(`DELETE FROM sales WHERE sale_id = 1`)
	db.RunTupleMover() // would normally advance the AHM
	if got := db.Txns().Epochs.AHM(); got != ahmBefore {
		t.Errorf("AHM advanced to %d while a node was down", got)
	}
	if err := db.Cluster().RecoverNode(1); err != nil {
		t.Fatal(err)
	}
	db.RunTupleMover()
	if got := db.Txns().Epochs.AHM(); got <= ahmBefore {
		t.Errorf("AHM did not advance after recovery: %d", got)
	}
}

func TestRefreshPopulatesNewProjection(t *testing.T) {
	db := openTestDB(t, 1, 0)
	setupSales(t, db, 100)
	db.RunTupleMover()
	db.MustExecute(`CREATE PROJECTION sales_by_cust ON sales (cust, price)
		ORDER BY cust SEGMENTED BY HASH(cust)`)
	p, _ := db.Catalog().Projection("sales_by_cust")
	mgr, _ := db.Cluster().Node(0).Mgr(p, db.Cluster().ManagerOpts())
	if mgr.RowCount() != 100 {
		t.Errorf("refreshed rows = %d", mgr.RowCount())
	}
	// The narrow projection should now serve cust-grouped queries.
	res := db.MustExecute(`EXPLAIN SELECT cust, SUM(price) FROM sales GROUP BY cust`)
	if !strings.Contains(res.Explain.String(), "sales_by_cust") {
		t.Errorf("optimizer did not pick the narrow projection:\n%s", res.Explain)
	}
}

func TestAddNodeAndRebalance(t *testing.T) {
	db := openTestDB(t, 2, 0)
	setupSales(t, db, 400)
	db.RunTupleMover()
	before := db.MustExecute(`SELECT COUNT(*), SUM(price) FROM sales`)
	db.Cluster().AddNode()
	if err := db.Cluster().Rebalance(); err != nil {
		t.Fatal(err)
	}
	after := db.MustExecute(`SELECT COUNT(*), SUM(price) FROM sales`)
	if after.Rows[0][0].I != before.Rows[0][0].I || after.Rows[0][1].F != before.Rows[0][1].F {
		t.Errorf("rebalance changed results: %v -> %v", before.Rows[0], after.Rows[0])
	}
	// The new node now owns a share.
	p, _ := db.Catalog().Projection("sales_super")
	mgr, _ := db.Cluster().Node(2).Mgr(p, db.Cluster().ManagerOpts())
	if mgr.RowCount() == 0 {
		t.Error("new node received no data")
	}
}

func TestBackupSurvivesDataRemoval(t *testing.T) {
	db := openTestDB(t, 1, 0)
	setupSales(t, db, 50)
	db.RunTupleMover()
	backup := t.TempDir()
	if err := db.Cluster().Backup(backup); err != nil {
		t.Fatal(err)
	}
	db.MustExecute(`DELETE FROM sales`)
	// Backup directory still holds container files (hard links).
	res := db.MustExecute(`SELECT COUNT(*) FROM sales`)
	if res.Rows[0][0].I != 0 {
		t.Errorf("delete failed: %v", res.Rows[0][0])
	}
}

func TestInsertLockConflictsWithDelete(t *testing.T) {
	db := openTestDB(t, 1, 0)
	setupSales(t, db, 10)
	s1 := db.NewSession()
	defer s1.Close()
	s1.Execute(`BEGIN`)
	if _, err := s1.Execute(`INSERT INTO sales VALUES (100, 1, 1.0, 1)`); err != nil {
		t.Fatal(err)
	}
	// A concurrent DELETE needs X, which conflicts with the held I lock and
	// must time out.
	_, err := db.Execute(`DELETE FROM sales WHERE sale_id = 1`)
	if err == nil {
		t.Error("DELETE should conflict with concurrent INSERT's I lock")
	}
	s1.Execute(`COMMIT`)
	if _, err := db.Execute(`DELETE FROM sales WHERE sale_id = 1`); err != nil {
		t.Errorf("DELETE after commit: %v", err)
	}
}

func TestDistinct(t *testing.T) {
	db := openTestDB(t, 1, 0)
	setupSales(t, db, 100)
	res := db.MustExecute(`SELECT DISTINCT cust FROM sales ORDER BY cust`)
	if len(res.Rows) != 10 {
		t.Fatalf("distinct rows = %d", len(res.Rows))
	}
	cd := db.MustExecute(`SELECT COUNT(DISTINCT cust) FROM sales`)
	if cd.Rows[0][0].I != 10 {
		t.Errorf("count distinct = %v", cd.Rows[0][0])
	}
}

func TestReopenPersistsCatalogAndData(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(Options{Dir: dir, Nodes: 1})
	if err != nil {
		t.Fatal(err)
	}
	db.MustExecute(`CREATE TABLE t (a INT, b VARCHAR)`)
	db.MustExecute(`CREATE PROJECTION t_super ON t (a, b) ORDER BY a SEGMENTED BY HASH(a)`)
	rows := make([]types.Row, 100)
	for i := range rows {
		rows[i] = types.Row{types.NewInt(int64(i)), types.NewString("x")}
	}
	db.Load("t", rows, true) // direct: durable in ROS
	db2, err := Open(Options{Dir: dir, Nodes: 1})
	if err != nil {
		t.Fatal(err)
	}
	res := db2.MustExecute(`SELECT COUNT(*) FROM t`)
	if res.Rows[0][0].I != 100 {
		t.Errorf("reopened count = %v", res.Rows[0][0])
	}
}

func TestInsertRequiresSuperProjection(t *testing.T) {
	db := openTestDB(t, 1, 0)
	db.MustExecute(`CREATE TABLE t (a INT)`)
	if _, err := db.Execute(`INSERT INTO t VALUES (1)`); err == nil {
		t.Error("insert without projection should fail")
	}
}

func TestCaseExpression(t *testing.T) {
	db := openTestDB(t, 1, 0)
	setupSales(t, db, 10)
	res := db.MustExecute(`SELECT sale_id, CASE WHEN sale_id < 5 THEN 'low' ELSE 'high' END AS bucket
		FROM sales ORDER BY sale_id`)
	if res.Rows[0][1].S != "low" || res.Rows[9][1].S != "high" {
		t.Errorf("case = %v", res.Rows)
	}
}
