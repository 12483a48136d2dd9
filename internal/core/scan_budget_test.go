package core

import (
	"runtime"
	"testing"

	"repro/internal/exec"
	"repro/internal/expr"
	"repro/internal/types"
	"repro/internal/vector"
)

// The tests in this file hold the ROS scan to a budget on a warm 200 000-row
// sales table, so a regression of the seek or of the view path is noticed
// without running the benchmark: a sort-key point lookup touches a handful
// of key values per container and allocates almost nothing, and a sort-key
// range is emitted as views of the cached blocks.

const budgetRows = 200_000

// budgetDB loads sales in four direct loads (four containers a node, each a
// contiguous key range) and reads every block once.
func budgetDB(t *testing.T) *Database {
	t.Helper()
	db := openTestDB(t, 1, 0)
	db.MustExecute(`CREATE TABLE sales (sale_id INT, cust INT, price FLOAT, qty INT)`)
	db.MustExecute(`CREATE PROJECTION sales_super ON sales (sale_id, cust, price, qty)
		ORDER BY sale_id SEGMENTED BY HASH(sale_id)`)
	for lo := 0; lo < budgetRows; lo += budgetRows / 4 {
		rows := make([]types.Row, 0, budgetRows/4)
		// Strided, so that every container spans the whole key range and a
		// point lookup has to look into each.
		for i := lo / (budgetRows / 4); i < budgetRows; i += 4 {
			rows = append(rows, types.Row{types.NewInt(int64(i)), types.NewInt(int64(i % 997)),
				types.NewFloat(float64(i%9973) / 100), types.NewInt(int64(i%7 + 1))})
		}
		if err := db.Load("sales", rows, true); err != nil {
			t.Fatal(err)
		}
	}
	if n := db.MustExecute(`SELECT COUNT(*), SUM(price), SUM(qty), SUM(cust) FROM sales`).Rows[0][0].I; n != budgetRows {
		t.Fatalf("loaded %d rows, want %d", n, budgetRows)
	}
	return db
}

// salesScan builds the scan the optimizer plans for a predicate on sale_id:
// the projection's columns in order, the sort key set.
func salesScan(t *testing.T, db *Database, cols []int, pred expr.Expr) *exec.Scan {
	t.Helper()
	p, err := db.Catalog().Projection("sales_super")
	if err != nil {
		t.Fatal(err)
	}
	mgr, err := db.Cluster().Node(0).Mgr(p, db.Cluster().ManagerOpts())
	if err != nil {
		t.Fatal(err)
	}
	s := exec.NewScan(p.Name, mgr, p.Schema, cols)
	s.Predicate, s.SortKey = pred, []int{0}
	return s
}

func saleID() *expr.ColRef { return expr.NewColRef(0, types.Int64, "sale_id") }

func withScanProbe(t *testing.T) *exec.ScanProbe {
	t.Helper()
	p := &exec.ScanProbe{}
	exec.SetScanProbe(p)
	t.Cleanup(func() { exec.SetScanProbe(nil) })
	return p
}

func TestPointLookupScanBudget(t *testing.T) {
	db := budgetDB(t)
	probe := withScanProbe(t)

	// Through SQL: the optimizer has to have set the sort key for the scan
	// to seek at all.
	res := db.MustExecute(`SELECT price, qty FROM sales WHERE sale_id = 123457`)
	if len(res.Rows) != 1 || res.Rows[0][1].I != 123457%7+1 {
		t.Fatalf("point lookup returned %v", res.Rows)
	}
	p, _ := db.Catalog().Projection("sales_super")
	mgr, _ := db.Cluster().Node(0).Mgr(p, db.Cluster().ManagerOpts())
	containers := int64(len(mgr.Containers()))
	if containers < 2 {
		t.Fatalf("table sits in %d container(s); the test wants several", containers)
	}
	t.Logf("point lookup compared %d key values over %d containers", probe.KeyCompares.Load(), containers)
	if c := probe.KeyCompares.Load(); c == 0 || c > 64*containers {
		t.Errorf("point lookup compared %d key values over %d containers, want 1..%d (a seek, not a block scan)",
			c, containers, 64*containers)
	}

	// The scan alone, as planned: bytes allocated per execution.
	pred := expr.MustCmp(expr.Eq, saleID(), expr.NewConst(types.NewInt(123457)))
	ctx := exec.NewCtx(db.Txns().Epochs.ReadEpoch())
	run := func() {
		batches, err := exec.Run(ctx, salesScan(t, db, []int{0, 2, 3}, pred))
		if err != nil || vector.NumRows(batches) != 1 {
			t.Fatalf("scan returned %d rows, err %v", vector.NumRows(batches), err)
		}
	}
	run()
	const runs = 200
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		run()
	}
	runtime.ReadMemStats(&after)
	perRun := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("a sort-key point lookup's scan over %d containers allocates %d bytes", containers, perRun)
	if perRun >= 2<<10 {
		t.Errorf("a sort-key point lookup's scan allocates %d bytes, want < 2048", perRun)
	}
}

func TestRangeAggregateEmitsViews(t *testing.T) {
	db := budgetDB(t)
	res := db.MustExecute(`SELECT COUNT(*), SUM(price) FROM sales WHERE sale_id >= 150000 AND sale_id < 151024`)
	if res.Rows[0][0].I != 1024 {
		t.Fatalf("range aggregate counted %d rows, want 1024", res.Rows[0][0].I)
	}
	pred := expr.MustAnd(
		expr.MustCmp(expr.Ge, saleID(), expr.NewConst(types.NewInt(150000))),
		expr.MustCmp(expr.Lt, saleID(), expr.NewConst(types.NewInt(151024))))
	batches, err := exec.Run(exec.NewCtx(db.Txns().Epochs.ReadEpoch()), salesScan(t, db, []int{0, 2}, pred))
	if err != nil || vector.NumRows(batches) != 1024 {
		t.Fatalf("scan returned %d rows, err %v", vector.NumRows(batches), err)
	}
	for _, b := range batches {
		if b.Sel != nil {
			t.Errorf("range scan emitted a selection of %d rows, want a view", len(b.Sel))
		}
		for _, c := range b.Cols {
			if cap(c.Ints) != len(c.Ints) || cap(c.Floats) != len(c.Floats) {
				t.Errorf("emitted view is not capacity-clipped: %s", c)
			}
		}
	}
}
