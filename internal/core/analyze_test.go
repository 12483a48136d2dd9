package core

import (
	"strings"
	"testing"
)

// TestAnalyzeChecksTargetOnly: ANALYZE_STATISTICS resolves its target and
// stores nothing, so the plan, its estimates and the grant it admits with
// are the same before and after; an unknown table or column, a system table
// and the old bucket-count form are rejected.
func TestAnalyzeChecksTargetOnly(t *testing.T) {
	db := openGovernedDB(t, 1, 64<<20, 8)
	setupSales(t, db, 500)
	const q = `SELECT price FROM sales WHERE cust = 3 AND sale_id > 10`
	before := db.MustExecute("EXPLAIN " + q).Explain.String()
	if !strings.Contains(before, "(heuristic)") {
		t.Fatalf("estimates should be heuristic:\n%s", before)
	}
	for _, target := range []string{"sales", "sales.cust", "SALES.Price"} {
		t.Run(target, func(t *testing.T) {
			res, err := db.Execute(`ANALYZE_STATISTICS('` + target + `')`)
			if err != nil || res.RowsAffected != 0 {
				t.Fatalf("ANALYZE_STATISTICS('%s') = %+v, %v", target, res, err)
			}
		})
	}
	if after := db.MustExecute("EXPLAIN " + q).Explain.String(); after != before {
		t.Fatalf("ANALYZE changed the plan:\nbefore:\n%s\nafter:\n%s", before, after)
	}
	db.MustExecute(q)
	profs := db.Governor().Profiles()
	if g := profs[len(profs)-1].GrantBytes; g != 64<<20/8 {
		t.Fatalf("grant %d, want the pool default %d", g, 64<<20/8)
	}
	for _, tc := range []struct{ name, stmt, want string }{
		{"unknown table", `ANALYZE_STATISTICS('nosuch')`, "does not exist"},
		{"unknown column", `ANALYZE_STATISTICS('sales.nosuch')`, "no column"},
		{"system table", `ANALYZE_STATISTICS('v_monitor.sessions')`, "system table"},
		{"bucket count", `ANALYZE_STATISTICS('sales', 64)`, ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := db.Execute(tc.stmt); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("%s: err = %v, want one containing %q", tc.stmt, err, tc.want)
			}
		})
	}
}

// TestAnalyzeMultiNode: on a cluster, with a node down, ANALYZE_STATISTICS
// still only checks its target: the plan and the catalog generation are
// what they were before it.
func TestAnalyzeMultiNode(t *testing.T) {
	db := openTestDB(t, 3, 1)
	setupSales(t, db, 900)
	if err := db.Cluster().FailNode(1); err != nil {
		t.Fatal(err)
	}
	const q = `SELECT cust, SUM(price) FROM sales WHERE sale_id < 100 GROUP BY cust`
	before := db.MustExecute("EXPLAIN " + q).Explain.String()
	gen := db.Catalog().Generation()
	for _, target := range []string{"sales", "sales.cust"} {
		res, err := db.Execute(`ANALYZE_STATISTICS('` + target + `')`)
		if err != nil || res.RowsAffected != 0 || res.Message != "ANALYZE_STATISTICS "+target {
			t.Fatalf("ANALYZE_STATISTICS('%s') with a node down = %+v, %v", target, res, err)
		}
	}
	if _, err := db.Execute(`ANALYZE_STATISTICS('sales.nosuch')`); err == nil {
		t.Error("an unknown column was accepted with a node down")
	}
	if g := db.Catalog().Generation(); g != gen {
		t.Errorf("ANALYZE moved the catalog generation %d -> %d", gen, g)
	}
	if after := db.MustExecute("EXPLAIN " + q).Explain.String(); after != before {
		t.Errorf("ANALYZE changed the plan:\nbefore:\n%s\nafter:\n%s", before, after)
	}
}
