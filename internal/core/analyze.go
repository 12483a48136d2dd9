// ANALYZE_STATISTICS: column statistics collection (paper §6.2 — the
// cost-based optimizer is driven by per-column histograms and distinct
// counts gathered on demand). The statement scans the table through the
// normal executor path — ROS containers plus the WOS at the current
// snapshot epoch, admission-controlled like any SELECT — feeds every value
// through a stats.Builder, and persists the resulting ColumnStats in the
// catalog next to the table so they survive restart.
package core

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/expr"
	"repro/internal/optimizer"
	"repro/internal/sql"
	"repro/internal/stats"
	"repro/internal/vector"
)

// resolveAnalyzeTarget splits 'table' / 'table.column' against the catalog.
func (db *Database) resolveAnalyzeTarget(target string) (table, column string, err error) {
	table = target
	if _, terr := db.cat.Table(table); terr != nil {
		if i := strings.LastIndex(target, "."); i > 0 {
			table, column = target[:i], target[i+1:]
		}
	}
	if db.cat.Virtual(table) != nil {
		return "", "", fmt.Errorf("core: cannot analyze system table %q", table)
	}
	if _, terr := db.cat.Table(table); terr != nil {
		return "", "", terr
	}
	return table, column, nil
}

// execAnalyze implements ANALYZE_STATISTICS('table'[.column][, buckets]).
func (db *Database) execAnalyze(ctx context.Context, st *sql.AnalyzeStmt) (*Result, error) {
	table, column, err := db.resolveAnalyzeTarget(st.Target)
	if err != nil {
		return nil, err
	}
	t, err := db.cat.Table(table)
	if err != nil {
		return nil, err
	}
	cols := make([]int, 0, t.Schema.Len())
	if column != "" {
		i := t.Schema.ColIndex(column)
		if i < 0 {
			return nil, fmt.Errorf("core: table %q has no column %q", table, column)
		}
		cols = append(cols, i)
	} else {
		for i := 0; i < t.Schema.Len(); i++ {
			cols = append(cols, i)
		}
	}
	// Scan the target columns through the normal executor path: the plan
	// reads ROS+WOS at the current snapshot, runs distributed across up
	// nodes, and admits against the session's resource pool like a SELECT.
	q := &optimizer.LogicalQuery{
		From:  []optimizer.TableRef{{Table: t, Alias: t.Name}},
		Limit: -1,
	}
	for _, c := range cols {
		col := t.Schema.Col(c)
		q.SelectExprs = append(q.SelectExprs, expr.NewColRef(c, col.Typ, col.Name))
		q.SelectNames = append(q.SelectNames, col.Name)
	}
	res, err := db.cluster.RunCtx(ctx, q, optimizer.PlanOpts{Parallelism: db.opts.Parallelism, ForceParallel: db.opts.ForceParallel})
	if err != nil {
		return nil, err
	}
	builders := make([]*stats.Builder, len(cols))
	for i, c := range cols {
		builders[i] = stats.NewBuilder(t.Schema.Col(c).Name, t.Schema.Col(c).Typ)
	}
	for _, b := range res.Batches {
		for i, col := range b.Flatten().Cols {
			for r := 0; r < col.PhysLen(); r++ {
				builders[i].Add(col.ValueAt(r))
			}
		}
	}
	out := make([]*stats.ColumnStats, len(builders))
	for i, b := range builders {
		out[i] = b.Build(int(st.Buckets))
	}
	if err := db.cat.SetTableStats(table, out); err != nil {
		return nil, err
	}
	// Fresh statistics bumped the stats epoch; retire cached plans eagerly
	// so v_monitor.plan_cache reflects the invalidation immediately.
	db.sweepPlans()
	rows := int64(vector.NumRows(res.Batches))
	return &Result{
		RowsAffected: rows,
		Message:      fmt.Sprintf("ANALYZE_STATISTICS %s (%d rows, %d columns)", st.Target, rows, len(out)),
		Stats:        res.Stats,
	}, nil
}
