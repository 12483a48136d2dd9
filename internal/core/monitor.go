// System tables (the v_monitor and v_catalog schemas): the engine's runtime
// state as SQL-queryable virtual tables, mirroring Vertica's self-monitoring
// design. A table is declared once, as a row struct whose `vt` field tags name
// its columns; registerTable derives the schema and the rows from it.
package core

import (
	"cmp"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"time"

	"repro/internal/catalog"
	"repro/internal/dc"
	"repro/internal/metrics"
	"repro/internal/plancache"
	"repro/internal/storage"
	"repro/internal/types"
)

// cellOf converts one tagged field to its cell: a string, bool, integer,
// time.Time (TIMESTAMP) or fmt.Stringer (VARCHAR) maps by its type; a
// time.Duration needs its unit as conv — us, ms (INTEGER) or float_us (FLOAT)
// — and a []string needs csv. The cell of a type's zero value gives the
// column's SQL type, so schema and rows cannot disagree.
func cellOf(v reflect.Value, conv string) (types.Value, error) {
	x := v.Interface()
	d, isDuration := x.(time.Duration)
	list, isList := x.([]string)
	at, isTime := x.(time.Time)
	str, isStringer := x.(fmt.Stringer)
	switch {
	case isDuration && conv == "us":
		return types.NewInt(d.Microseconds()), nil
	case isDuration && conv == "ms":
		return types.NewInt(d.Milliseconds()), nil
	case isDuration && conv == "float_us":
		return types.NewFloat(float64(d) / 1e3), nil
	case isList && conv == "csv":
		return types.NewString(strings.Join(list, ",")), nil
	case isDuration || conv != "": // no unit, or a conversion that does not apply
	case isTime:
		return types.NewTimestamp(at), nil
	case isStringer:
		return types.NewString(str.String()), nil
	case v.Kind() == reflect.String:
		return types.NewString(v.String()), nil
	case v.Kind() == reflect.Bool:
		return types.NewBool(v.Bool()), nil
	case v.CanInt():
		return types.NewInt(v.Int()), nil
	case v.CanUint():
		return types.NewInt(int64(v.Uint())), nil
	}
	return types.Value{}, fmt.Errorf("unsupported field type %s with conversion %q", v.Type(), conv)
}

// registerTable installs system table name: one column per exported field of
// row struct T, named by its `vt:"column[,conv]"` tag (see cellOf; `vt:"-"`
// leaves a field out), and fetch's records as the rows. A field that cannot
// become a column fails the registration — never a silently missing column.
// Reflection runs here and at scan time, never on a user statement's path.
func registerTable[T any](cat *catalog.Catalog, name string, fetch func() ([]T, error)) error {
	t := reflect.TypeOf((*T)(nil)).Elem()
	var cols []types.Column
	var fields []int // per column: its struct field index
	var convs []string
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		tag, tagged := f.Tag.Lookup("vt")
		if !f.IsExported() || tag == "-" {
			continue
		}
		col, conv, _ := strings.Cut(tag, ",")
		zero, err := cellOf(reflect.Zero(f.Type), conv)
		switch {
		case !tagged || col == "":
			err = errors.New("exported field has no vt column tag")
		case slices.ContainsFunc(cols, func(c types.Column) bool { return c.Name == col }):
			err = fmt.Errorf("duplicate column %q", col)
		}
		if err != nil {
			return fmt.Errorf("system table %s: %s.%s: %w", name, t, f.Name, err)
		}
		cols = append(cols, types.Column{Name: col, Typ: zero.Typ, Nullable: true})
		fields, convs = append(fields, i), append(convs, conv)
	}
	return cat.RegisterVirtual(&catalog.Table{Name: name, Schema: types.NewSchema(cols...)},
		func() ([]types.Row, error) {
			recs, err := fetch()
			rows := make([]types.Row, len(recs))
			for i := range recs {
				rec := reflect.ValueOf(&recs[i]).Elem()
				rows[i] = make(types.Row, len(fields))
				for j, f := range fields {
					rows[i][j], _ = cellOf(rec.Field(f), convs[j]) // validated above
				}
			}
			return rows, err
		})
}

// snapshot adapts a row source that cannot fail to registerTable.
func snapshot[T any](f func() []T) func() ([]T, error) {
	return func() ([]T, error) { return f(), nil }
}

// Row types of the tables with derived columns (sessionRow sits beside Session
// in core.go). Every other table's declaration is its tagged source type in
// resmgr, metrics, dc, plancache or txn.
type (
	// v_catalog.projections: the physical design, one row per projection.
	projectionRow struct {
		Name      string   `vt:"projection_name"`
		Anchor    string   `vt:"anchor_table"`
		Columns   []string `vt:"columns,csv"`
		SortOrder []string `vt:"sort_order,csv"`
		Seg       string   `vt:"segmentation"`
		IsSuper   bool     `vt:"is_super"`
		IsBuddy   bool     `vt:"is_buddy"`
		Buddy     string   `vt:"buddy"`
	}
	// v_monitor.projection_storage: ROS/WOS bytes and rows, container and
	// delete-vector counts per projection and node.
	projectionStorageRow struct {
		Projection string `vt:"projection_name"`
		Node       string `vt:"node_name"`
		ROSBytes   int64  `vt:"ros_bytes"`
		Containers int    `vt:"ros_containers"`
		ROSRows    int64  `vt:"ros_rows"`
		WOSBytes   int64  `vt:"wos_bytes"`
		WOSRows    int    `vt:"wos_rows"`
		DVs        int    `vt:"dv_count"`
	}
	// v_catalog.tables: the logical schema inventory, one row per user table.
	tableRow struct {
		Name        string `vt:"table_name"`
		Columns     int    `vt:"column_count"`
		Partition   string `vt:"partition_expr"`
		Projections int    `vt:"projection_count"`
	}
)

// registerMonitorTables installs every system table. The dc tables are ring
// snapshots (v_monitor.data_collector reports what each ring dropped) and
// join v_monitor.query_profiles on query_id.
func (db *Database) registerMonitorTables() error {
	cat, gov := db.cat, db.Governor()
	return errors.Join(
		registerTable(cat, "v_monitor.resource_pools", snapshot(gov.Pools)),
		registerTable(cat, "v_monitor.query_profiles", snapshot(gov.Profiles)),
		registerTable(cat, "v_monitor.execution_engine_profiles", snapshot(gov.OpProfiles)),
		registerTable(cat, "v_monitor.metrics", snapshot(metrics.Default.Snapshot)),
		registerTable(cat, "v_monitor.locks", snapshot(db.txns.Locks.Snapshot)),
		registerTable(cat, "v_monitor.plan_cache", func() ([]plancache.Info, error) {
			if db.plans == nil {
				return nil, nil
			}
			return db.plans.Snapshot(), nil
		}),
		registerTable(cat, "v_monitor.query_phases", snapshot(db.dcol.Phases)),
		registerTable(cat, "v_monitor.query_events", snapshot(db.dcol.Events)),
		registerTable(cat, "v_monitor.dc_tuple_mover_events", snapshot(db.dcol.MoverEvents)),
		registerTable(cat, "v_monitor.dc_lock_attempts", snapshot(db.dcol.LockEvents)),
		registerTable(cat, "v_monitor.dc_errors", snapshot(db.dcol.Errors)),
		registerTable(cat, "v_monitor.data_collector", func() ([]dc.RingStats, error) {
			return append(db.dcol.Stats(), gov.RingStats()...), nil
		}),
		registerTable(cat, "v_catalog.projections", snapshot(db.projectionRows)),
		registerTable(cat, "v_monitor.projection_storage", db.projectionStorageRows),
		registerTable(cat, "v_catalog.tables", func() (rows []tableRow, _ error) {
			for _, t := range cat.Tables() {
				rows = append(rows, tableRow{Name: t.Name, Columns: t.Schema.Len(),
					Partition: t.PartitionExprText, Projections: len(cat.ProjectionsFor(t.Name))})
			}
			return rows, nil
		}),
		registerTable(cat, "v_monitor.sessions", snapshot(db.sessionRows)),
	)
}

func (db *Database) projectionRows() []projectionRow {
	var rows []projectionRow
	for _, p := range db.cat.Projections() {
		seg := cmp.Or(p.Seg.ExprText, "unsegmented")
		if p.Seg.Replicated {
			seg = "replicated"
		}
		rows = append(rows, projectionRow{Name: p.Name, Anchor: p.Anchor, Columns: p.Columns,
			SortOrder: p.SortOrder, Seg: seg, IsSuper: p.IsSuper, IsBuddy: p.IsBuddy,
			Buddy: p.Buddy})
	}
	return rows
}

func (db *Database) projectionStorageRows() ([]projectionStorageRow, error) {
	var rows []projectionStorageRow
	for _, p := range db.cat.Projections() {
		for _, n := range db.cluster.UpNodes() {
			mgr, err := n.Mgr(p, db.cluster.ManagerOpts())
			if err != nil {
				return nil, err
			}
			dvs := len(mgr.DVs().Get(storage.WOSTarget))
			for _, r := range mgr.Containers() {
				dvs += len(mgr.DVs().Get(r.Meta.ID))
			}
			rows = append(rows, projectionStorageRow{Projection: p.Name, Node: n.Name,
				ROSBytes: mgr.TotalBytes(), Containers: len(mgr.Containers()), ROSRows: mgr.RowCount(),
				WOSBytes: mgr.WOS().Bytes(), WOSRows: mgr.WOS().Len(), DVs: dvs})
		}
	}
	return rows, nil
}
