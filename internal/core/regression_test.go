package core

import (
	"testing"

	"repro/internal/catalog"
	"repro/internal/types"
)

func newPrejoinProjection() *catalog.Projection {
	return &catalog.Projection{
		Name:      "fact_prejoin",
		Anchor:    "fact",
		Columns:   []string{"id", "cust", "price", "dim.region"},
		SortOrder: []string{"id"},
		Seg:       catalog.Segmentation{ExprText: "HASH(id)"},
		Prejoin: []catalog.PrejoinDim{{
			DimTable: "dim", FactKey: "cust", DimKey: "cust_id",
			DimCols: []string{"region"},
		}},
	}
}

// Regression: a pushed-down predicate matching zero rows of a block must
// drop the whole block, not pass it through. (SelectWhere used to return a
// nil selection for zero matches, which the scan read as "no predicate".)
func TestZeroMatchBlocksAreDropped(t *testing.T) {
	db := openTestDB(t, 1, 0)
	db.MustExecute(`CREATE TABLE m (metric VARCHAR, v FLOAT)`)
	db.MustExecute(`CREATE PROJECTION m_super ON m (metric, v) ORDER BY metric SEGMENTED BY HASH(metric)`)
	var rows []types.Row
	for i := 0; i < 9000; i++ {
		rows = append(rows, types.Row{
			types.NewString([]string{"a", "b", "c", "d", "e", "f"}[i%6]),
			types.NewFloat(float64(i)),
		})
	}
	if err := db.Load("m", rows, true); err != nil {
		t.Fatal(err)
	}
	res := db.MustExecute(`SELECT metric, COUNT(*) FROM m WHERE metric IN ('a','b') GROUP BY metric ORDER BY metric`)
	if len(res.Rows) != 2 {
		t.Fatalf("groups = %d, want 2 (got %v)", len(res.Rows), res.Rows)
	}
	if res.Rows[0][1].I != 1500 || res.Rows[1][1].I != 1500 {
		t.Errorf("counts = %v", res.Rows)
	}
	// Same regression via an equality predicate whose value entire blocks
	// cannot contain.
	res = db.MustExecute(`SELECT COUNT(*) FROM m WHERE metric = 'f'`)
	if res.Rows[0][0].I != 1500 {
		t.Errorf("eq count = %v", res.Rows[0][0])
	}
}

// TestPrejoinProjectionServesJoin exercises the prejoin path end-to-end
// (paper §3.3): create a prejoin projection, populate it via refresh, and
// check the optimizer answers a fact-dimension join from the single scan.
func TestPrejoinProjectionServesJoin(t *testing.T) {
	db := openTestDB(t, 1, 0)
	db.MustExecute(`CREATE TABLE fact (id INT, cust INT, price FLOAT)`)
	db.MustExecute(`CREATE TABLE dim (cust_id INT, region VARCHAR)`)
	db.MustExecute(`CREATE PROJECTION fact_super ON fact (id, cust, price)
		ORDER BY id SEGMENTED BY HASH(id)`)
	db.MustExecute(`CREATE PROJECTION dim_super ON dim (cust_id, region)
		ORDER BY cust_id REPLICATED`)
	var frows []types.Row
	for i := 0; i < 400; i++ {
		frows = append(frows, types.Row{
			types.NewInt(int64(i)), types.NewInt(int64(i % 4)), types.NewFloat(float64(i)),
		})
	}
	if err := db.Load("fact", frows, true); err != nil {
		t.Fatal(err)
	}
	var drows []types.Row
	for i := 0; i < 4; i++ {
		drows = append(drows, types.Row{
			types.NewInt(int64(i)), types.NewString([]string{"east", "west"}[i%2]),
		})
	}
	if err := db.Load("dim", drows, true); err != nil {
		t.Fatal(err)
	}
	// Prejoin projections are created programmatically (SQL DDL for them is
	// out of the subset) and populated by refresh.
	pj := newPrejoinProjection()
	if err := db.CreateProjection(pj); err != nil {
		t.Fatal(err)
	}
	if err := db.Cluster().Refresh("fact_prejoin"); err != nil {
		t.Fatal(err)
	}
	res := db.MustExecute(`EXPLAIN SELECT region, SUM(price) FROM fact
		JOIN dim ON cust = cust_id GROUP BY region`)
	if !containsStr(res.Explain.String(), "prejoin projection fact_prejoin") {
		t.Errorf("join not answered from the prejoin projection:\n%s", res.Explain)
	}
	got := db.MustExecute(`SELECT region, SUM(price) FROM fact
		JOIN dim ON cust = cust_id GROUP BY region ORDER BY region`)
	if len(got.Rows) != 2 {
		t.Fatalf("rows = %v", got.Rows)
	}
	// east = custs 0,2; west = custs 1,3. Sum over i: i%4 in {0,2} etc.
	var east, west float64
	for i := 0; i < 400; i++ {
		if (i%4)%2 == 0 {
			east += float64(i)
		} else {
			west += float64(i)
		}
	}
	if got.Rows[0][1].F != east || got.Rows[1][1].F != west {
		t.Errorf("sums = %v, want %v/%v", got.Rows, east, west)
	}
}

func containsStr(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// TestColocatedCountDistinctMultiNode: COUNT(DISTINCT) works across nodes
// when the grouping contains the segmentation columns (paper §3.6:
// segmentation is "particularly effective for the computation of
// high-cardinality distinct aggregates"), and is rejected otherwise.
func TestColocatedCountDistinctMultiNode(t *testing.T) {
	db := openTestDB(t, 3, 1)
	db.MustExecute(`CREATE TABLE t (grp INT, val INT)`)
	db.MustExecute(`CREATE PROJECTION t_super ON t (grp, val)
		ORDER BY grp SEGMENTED BY HASH(grp)`)
	var rows []types.Row
	for i := 0; i < 3000; i++ {
		rows = append(rows, types.Row{
			types.NewInt(int64(i % 10)), types.NewInt(int64(i % 250)),
		})
	}
	if err := db.Load("t", rows, true); err != nil {
		t.Fatal(err)
	}
	res := db.MustExecute(`SELECT grp, COUNT(DISTINCT val) FROM t GROUP BY grp ORDER BY grp`)
	if len(res.Rows) != 10 {
		t.Fatalf("groups = %d", len(res.Rows))
	}
	// val = i%250, grp = i%10: within a group, distinct vals = 25.
	for _, r := range res.Rows {
		if r[1].I != 25 {
			t.Errorf("group %v distinct = %v, want 25", r[0], r[1])
		}
	}
	// Non-co-located distinct is rejected, not answered wrongly.
	if _, err := db.Execute(`SELECT val % 2, COUNT(DISTINCT grp) FROM t GROUP BY val % 2`); err == nil {
		t.Error("non-co-located COUNT DISTINCT should be rejected on a multi-node cluster")
	}
}
