package core

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/types"
)

// The tests in this file pin the invariants every way into the ROS shares
// (paper §3.5, §3.6, §5.2): rows keep their delete vectors and their
// partition × local-segment placement whichever path rewrites them. The
// first three failed before recovery, refresh and rebalance went through the
// placed-run writer.

func countSum(t *testing.T, db *Database, q string) (int64, float64) {
	t.Helper()
	res := db.MustExecute(q)
	return res.Rows[0][0].I, res.Rows[0][1].F
}

func TestRebalanceKeepsDeletes(t *testing.T) {
	db := openTestDB(t, 2, 0)
	setupSales(t, db, 400)
	db.MustExecute(`CREATE TABLE dim (d INT, name VARCHAR)`)
	db.MustExecute(`CREATE PROJECTION dim_super ON dim (d, name) ORDER BY d REPLICATED`)
	db.MustExecute(`INSERT INTO dim VALUES (1, 'a'), (2, 'b'), (3, 'c'), (4, 'd')`)
	db.RunTupleMover()
	db.MustExecute(`DELETE FROM sales WHERE sale_id < 100`)
	db.MustExecute(`DELETE FROM dim WHERE d = 2`)
	wantN, wantSum := countSum(t, db, `SELECT COUNT(*), SUM(price) FROM sales`)
	if wantN != 300 {
		t.Fatalf("count before rebalance = %d, want 300", wantN)
	}
	db.Cluster().AddNode()
	if err := db.Cluster().Rebalance(); err != nil {
		t.Fatal(err)
	}
	if n, sum := countSum(t, db, `SELECT COUNT(*), SUM(price) FROM sales`); n != wantN || sum != wantSum {
		t.Errorf("rebalance resurrected deleted rows: count %d sum %v, want %d %v", n, sum, wantN, wantSum)
	}
	// The new node's replica of the replicated projection carries the delete.
	p, _ := db.Catalog().Projection("dim_super")
	mgr, _ := db.Cluster().Node(2).Mgr(p, db.Cluster().ManagerOpts())
	live, dead := 0, 0
	for _, r := range readStored(t, mgr) {
		if r.Deleted == 0 {
			live++
		} else {
			dead++
		}
	}
	if live != 3 || dead != 1 {
		t.Errorf("new replica holds %d live and %d deleted rows, want 3 and 1", live, dead)
	}
	// The delete vectors were persisted, not just held in memory.
	if mem := mgr.DVs().MemTargets(); len(mem) != 0 {
		t.Errorf("rebalanced delete vectors left unpersisted: %v", mem)
	}
}

func TestRefreshKeepsDeletes(t *testing.T) {
	db := openTestDB(t, 1, 0)
	setupSales(t, db, 100)
	db.RunTupleMover()
	before := db.Txns().Epochs.ReadEpoch()
	db.Txns().Epochs.HoldAHM(true) // the historical query below reads before the delete
	db.MustExecute(`DELETE FROM sales WHERE sale_id < 40`)
	db.MustExecute(`CREATE PROJECTION sales_by_cust ON sales (cust, price)
		ORDER BY cust SEGMENTED BY HASH(cust)`)
	const byCust = `SELECT cust, COUNT(*) AS n, SUM(price) AS s FROM sales GROUP BY cust ORDER BY cust`
	if ex := db.MustExecute(`EXPLAIN ` + byCust).Explain.String(); !strings.Contains(ex, "sales_by_cust") {
		t.Fatalf("optimizer did not pick the refreshed projection:\n%s", ex)
	}
	// The super projection answers the same question when qty is dragged in.
	const bySuper = `SELECT cust, COUNT(*) AS n, SUM(price) AS s, MIN(qty) AS q FROM sales GROUP BY cust ORDER BY cust`
	narrow, super := db.MustExecute(byCust), db.MustExecute(bySuper)
	if len(narrow.Rows) != len(super.Rows) {
		t.Fatalf("groups: refreshed %d, super %d", len(narrow.Rows), len(super.Rows))
	}
	var total int64
	for i := range narrow.Rows {
		total += narrow.Rows[i][1].I
		if narrow.Rows[i][1].I != super.Rows[i][1].I || narrow.Rows[i][2].F != super.Rows[i][2].F {
			t.Errorf("cust %v: refreshed projection says %v, super says %v", narrow.Rows[i][0], narrow.Rows[i][1:3], super.Rows[i][1:3])
		}
	}
	if total != 60 {
		t.Errorf("refreshed projection's groups sum to %d rows, want 60", total)
	}
	// Before the delete, both saw all 100 rows.
	hist, err := db.QueryAt(`SELECT cust, COUNT(*) AS n FROM sales GROUP BY cust ORDER BY cust`, before)
	if err != nil {
		t.Fatal(err)
	}
	total = 0
	for _, r := range hist.Rows {
		total += r[1].I
	}
	if total != 100 {
		t.Errorf("historical query on the refreshed projection sees %d rows, want 100", total)
	}
}

func TestRecoveryKeepsPartitions(t *testing.T) {
	db := openTestDB(t, 3, 1)
	db.MustExecute(`CREATE TABLE events (id INT, month INT, v FLOAT) PARTITION BY month`)
	db.MustExecute(`CREATE PROJECTION events_super ON events (id, month, v)
		ORDER BY id SEGMENTED BY HASH(id)`)
	events := func(lo, hi int) []types.Row {
		var rows []types.Row
		for i := lo; i < hi; i++ {
			rows = append(rows, types.Row{types.NewInt(int64(i)), types.NewInt(int64(i % 3)), types.NewFloat(1)})
		}
		return rows
	}
	if err := db.Load("events", events(0, 300), true); err != nil {
		t.Fatal(err)
	}
	if err := db.Cluster().FailNode(2); err != nil {
		t.Fatal(err)
	}
	db.Cluster().Node(2).ClearWOS()
	if err := db.Load("events", events(300, 500), true); err != nil {
		t.Fatal(err)
	}
	if err := db.Load("events", events(500, 600), true); err != nil {
		t.Fatal(err)
	}
	if err := db.Cluster().RecoverNode(2); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"events_super", "events_super_b1"} {
		p, _ := db.Catalog().Projection(name)
		mgr, _ := db.Cluster().Node(2).Mgr(p, db.Cluster().ManagerOpts())
		var parts []string
		for _, r := range mgr.Containers() {
			if !slices.Contains(parts, r.Meta.Partition) {
				parts = append(parts, r.Meta.Partition)
			}
		}
		if slices.Sort(parts); strings.Join(parts, ",") != "0,1,2" {
			t.Errorf("%s on the recovered node holds partitions %q, want 0,1,2", name, parts)
		}
	}
	if res := db.MustExecute(`DROP PARTITION events '1'`); res.RowsAffected != 200 {
		t.Errorf("DROP PARTITION dropped %d rows, want 200", res.RowsAffected)
	}
	check := func(when string) {
		t.Helper()
		if n := db.MustExecute(`SELECT COUNT(*) FROM events WHERE month = 1`).Rows[0][0].I; n != 0 {
			t.Errorf("%s: %d rows of the dropped partition remain", when, n)
		}
		if n := db.MustExecute(`SELECT COUNT(*) FROM events`).Rows[0][0].I; n != 400 {
			t.Errorf("%s: count = %d, want 400", when, n)
		}
	}
	check("all nodes up")
	// Either buddy of the recovered node's segments serves the same answer.
	for _, down := range []int{0, 1} {
		if err := db.Cluster().FailNode(down); err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("node %d down", down))
		db.Cluster().Node(down).ClearWOS()
		if err := db.Cluster().RecoverNode(down); err != nil {
			t.Fatal(err)
		}
	}
	// Recovered containers sit in their partition's stratum like any other.
	if _, _, err := db.RunTupleMover(); err != nil {
		t.Fatal(err)
	}
	check("after a mover cycle")
}

// TestPartitionPlacementErrorIsOneError: a projection that omits the
// partition column cannot be placed. Direct load said so; moveout used to
// swallow the error and write the rows unpartitioned.
func TestPartitionPlacementErrorIsOneError(t *testing.T) {
	db := openTestDB(t, 1, 0)
	db.MustExecute(`CREATE TABLE events (id INT, month INT, v FLOAT) PARTITION BY month`)
	db.MustExecute(`CREATE PROJECTION events_super ON events (id, month, v)
		ORDER BY id SEGMENTED BY HASH(id)`)
	db.MustExecute(`CREATE PROJECTION events_v ON events (id, v) ORDER BY v SEGMENTED BY HASH(id)`)
	rows := []types.Row{{types.NewInt(1), types.NewInt(1), types.NewFloat(1)}}
	const want = `projection "events_v" cannot evaluate partition expression`
	if err := db.Load("events", rows, true); err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("direct load: err = %v, want %q", err, want)
	}
	if err := db.Load("events", rows, false); err != nil {
		t.Fatal(err)
	}
	if _, _, err := db.RunTupleMover(); err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("mover cycle: err = %v, want %q", err, want)
	}
}
