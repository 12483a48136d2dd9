// ANALYZE_STATISTICS is accepted for compatibility with Vertica scripts, but
// the engine keeps no column statistics: every table is planned from its
// stored row counts and the shapes of its predicates (optimizer/estimate.go).
// The statement checks its target and stores nothing.
package core

import (
	"fmt"
	"strings"

	"repro/internal/sql"
)

// execAnalyze implements ANALYZE_STATISTICS('table'[.column]): it resolves
// the target against the catalog, rejecting a system table, an unknown table
// and an unknown column, and returns without scanning or storing anything.
func (db *Database) execAnalyze(st *sql.AnalyzeStmt) (*Result, error) {
	table, column := st.Target, ""
	if _, err := db.cat.Table(table); err != nil {
		if i := strings.LastIndex(st.Target, "."); i > 0 {
			table, column = st.Target[:i], st.Target[i+1:]
		}
	}
	if db.cat.Virtual(table) != nil {
		return nil, fmt.Errorf("core: cannot analyze system table %q", table)
	}
	t, err := db.cat.Table(table)
	if err != nil {
		return nil, err
	}
	if column != "" && t.Schema.ColIndex(column) < 0 {
		return nil, fmt.Errorf("core: table %q has no column %q", table, column)
	}
	return &Result{Message: "ANALYZE_STATISTICS " + st.Target}, nil
}
