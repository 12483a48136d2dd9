package core

import (
	"strings"
	"testing"
	"time"

	"repro/internal/types"
)

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

// Regression: a projection column qualified by another table ("dim.region")
// is refused at CREATE PROJECTION. It used to be accepted with no join
// clause, and from then on every INSERT and UPDATE of the anchor table
// failed.
func TestProjectionOfAnotherTablesColumnRefused(t *testing.T) {
	db := openTestDB(t, 1, 0)
	db.MustExecute(`CREATE TABLE fact (id INT, cust INT, price FLOAT)`)
	db.MustExecute(`CREATE TABLE dim (cust_id INT, region VARCHAR)`)
	db.MustExecute(`CREATE PROJECTION fact_super ON fact (id, cust, price) ORDER BY id SEGMENTED BY HASH(id)`)
	db.MustExecute(`INSERT INTO fact VALUES (1, 0, 2.5)`)
	if _, err := db.Execute(`CREATE PROJECTION bad ON fact (id, dim.region)`); err == nil ||
		!strings.Contains(err.Error(), "dim.region") {
		t.Errorf("CREATE PROJECTION of dim.region: err = %v, want one naming the column", err)
	}
	if _, err := db.Execute(`INSERT INTO fact VALUES (2, 1, 4.5)`); err != nil {
		t.Errorf("INSERT: %v", err)
	}
	if _, err := db.Execute(`UPDATE fact SET price = 3.5 WHERE id = 1`); err != nil {
		t.Errorf("UPDATE: %v", err)
	}
	res := db.MustExecute(`SELECT id, price FROM fact ORDER BY id`)
	if len(res.Rows) != 2 || res.Rows[0][1].F != 3.5 || res.Rows[1][1].F != 4.5 {
		t.Errorf("fact after INSERT and UPDATE = %v, want [[1 3.5] [2 4.5]]", res.Rows)
	}
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

// Regression: INSERT and UPDATE coerce a value into its column's type by one
// rule. UPDATE used to relabel a string as a TIMESTAMP without parsing it,
// storing 1970-01-01 00:00:00 for '2012-06-01 12:00:00'.
func TestInsertAndUpdateCoerceAlike(t *testing.T) {
	db := openTestDB(t, 1, 0)
	db.MustExecute(`CREATE TABLE e (id INT, ts TIMESTAMP, n INT, f FLOAT)`)
	db.MustExecute(`CREATE PROJECTION e_super ON e (id, ts, n, f) ORDER BY id`)
	db.MustExecute(`INSERT INTO e VALUES (1, '2011-01-01 00:00:00', 1, 1.5)`)
	// The same literals reach row 1 through UPDATE and row 2 through INSERT:
	// string -> TIMESTAMP, FLOAT -> INT, INT -> FLOAT.
	db.MustExecute(`UPDATE e SET ts = '2012-06-01 12:00:00', n = 7.9, f = 3 WHERE id = 1`)
	db.MustExecute(`INSERT INTO e VALUES (2, '2012-06-01 12:00:00', 7.9, 3)`)
	res := db.MustExecute(`SELECT id, ts, n, f FROM e ORDER BY id`)
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %v", res.Rows)
	}
	want := types.Row{types.NewInt(0), types.NewTimestamp(time.Date(2012, 6, 1, 12, 0, 0, 0, time.UTC)),
		types.NewInt(7), types.NewFloat(3)}
	for _, r := range res.Rows {
		for c := 1; c < len(want); c++ {
			if r[c].Typ != want[c].Typ || r[c].String() != want[c].String() {
				t.Errorf("row %d column %d: stored %v (%s), want %v (%s)", r[0].I, c, r[c], r[c].Typ, want[c], want[c].Typ)
			}
		}
	}
	if n := db.MustExecute(`SELECT COUNT(*) FROM e WHERE ts > '2012-01-01'`).Rows[0][0].I; n != 2 {
		t.Errorf("ts > '2012-01-01' counts %d rows, want 2", n)
	}
}
