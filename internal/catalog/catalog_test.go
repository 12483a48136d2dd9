package catalog

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/encoding"
	"repro/internal/expr"
	"repro/internal/stats"
	"repro/internal/types"
)

func salesTable() *Table {
	return &Table{
		Name: "sales",
		Schema: types.NewSchema(
			types.Column{Name: "sale_id", Typ: types.Int64},
			types.Column{Name: "date", Typ: types.Timestamp},
			types.Column{Name: "cust", Typ: types.Varchar},
			types.Column{Name: "price", Typ: types.Float64},
		),
	}
}

func TestCreateAndDropTable(t *testing.T) {
	c := New("")
	if err := c.CreateTable(salesTable()); err != nil {
		t.Fatal(err)
	}
	if err := c.CreateTable(salesTable()); err == nil {
		t.Error("duplicate table should fail")
	}
	if _, err := c.Table("sales"); err != nil {
		t.Error(err)
	}
	if len(c.Tables()) != 1 {
		t.Error("Tables() wrong")
	}
	if err := c.DropTable("nosuch"); err == nil {
		t.Error("dropping missing table should fail")
	}
	if err := c.DropTable("sales"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Table("sales"); err == nil {
		t.Error("table still resolvable after drop")
	}
}

// TestFigure1Projections models the paper's Figure 1: the sales table has a
// super projection sorted by date segmented by HASH(sale_id), and a narrow
// (cust, price) projection sorted and segmented by cust.
func TestFigure1Projections(t *testing.T) {
	c := New("")
	if err := c.CreateTable(salesTable()); err != nil {
		t.Fatal(err)
	}
	super := &Projection{
		Name:      "sales_super",
		Anchor:    "sales",
		Columns:   []string{"sale_id", "date", "cust", "price"},
		SortOrder: []string{"date"},
		Seg:       Segmentation{ExprText: "HASH(sale_id)"},
	}
	if err := c.CreateProjection(super); err != nil {
		t.Fatal(err)
	}
	if !super.IsSuper {
		t.Error("projection with every column must be marked super")
	}
	narrow := &Projection{
		Name:      "sales_cust_price",
		Anchor:    "sales",
		Columns:   []string{"cust", "price"},
		SortOrder: []string{"cust"},
		Seg:       Segmentation{ExprText: "HASH(cust)"},
	}
	if err := c.CreateProjection(narrow); err != nil {
		t.Fatal(err)
	}
	if narrow.IsSuper {
		t.Error("partial projection must not be super")
	}
	if narrow.Schema.Len() != 2 || narrow.Schema.Col(0).Name != "cust" {
		t.Errorf("narrow schema = %v", narrow.Schema)
	}
	if got := narrow.SortKey(); len(got) != 1 || got[0] != 0 {
		t.Errorf("sort key = %v", got)
	}
	sp, err := c.SuperProjection("sales")
	if err != nil || sp.Name != "sales_super" {
		t.Errorf("SuperProjection = %v, %v", sp, err)
	}
	if got := c.ProjectionsFor("sales"); len(got) != 2 {
		t.Errorf("ProjectionsFor = %d", len(got))
	}
}

func TestProjectionValidation(t *testing.T) {
	c := New("")
	c.CreateTable(salesTable())
	// Unknown column.
	err := c.CreateProjection(&Projection{
		Name: "bad", Anchor: "sales", Columns: []string{"nosuch"},
	})
	if err == nil {
		t.Error("unknown column should fail")
	}
	// Sort on unstored column.
	err = c.CreateProjection(&Projection{
		Name: "bad2", Anchor: "sales", Columns: []string{"cust"}, SortOrder: []string{"price"},
	})
	if err == nil {
		t.Error("sort on unstored column should fail")
	}
	// Missing anchor.
	err = c.CreateProjection(&Projection{Name: "bad3", Anchor: "nosuch", Columns: []string{"x"}})
	if err == nil {
		t.Error("missing anchor should fail")
	}
}

func TestLastSuperProjectionCannotBeDropped(t *testing.T) {
	c := New("")
	c.CreateTable(salesTable())
	super := &Projection{
		Name: "s1", Anchor: "sales",
		Columns: []string{"sale_id", "date", "cust", "price"},
	}
	if err := c.CreateProjection(super); err != nil {
		t.Fatal(err)
	}
	if err := c.DropProjection("s1"); err == nil ||
		!strings.Contains(err.Error(), "super projection") {
		t.Errorf("dropping the last super projection should fail: %v", err)
	}
	// With a second super projection it works.
	super2 := &Projection{
		Name: "s2", Anchor: "sales",
		Columns: []string{"sale_id", "date", "cust", "price"},
	}
	c.CreateProjection(super2)
	if err := c.DropProjection("s1"); err != nil {
		t.Errorf("drop with remaining super: %v", err)
	}
}

func TestPersistAndLoad(t *testing.T) {
	dir := t.TempDir()
	c := New(dir)
	tab := salesTable()
	tab.PartitionExprText = "EXTRACT_MONTH(date)"
	if err := c.CreateTable(tab); err != nil {
		t.Fatal(err)
	}
	if err := c.CreateProjection(&Projection{
		Name: "sales_super", Anchor: "sales",
		Columns:   []string{"sale_id", "date", "cust", "price"},
		SortOrder: []string{"date"},
		Seg:       Segmentation{ExprText: "HASH(sale_id)"},
		Encodings: map[string]encoding.Kind{"date": encoding.RLE},
	}); err != nil {
		t.Fatal(err)
	}
	// A second table and projection: the catalog persists both, by name.
	c.CreateTable(&Table{Name: "customers", Schema: types.NewSchema(types.Column{Name: "cust_id", Typ: types.Varchar})})
	c.CreateProjection(&Projection{Name: "customers_super", Anchor: "customers", Columns: []string{"cust_id"}})
	c2, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if ts := c2.Tables(); len(ts) != 2 || ts[0].Name != "customers" || ts[1].Name != "sales" {
		t.Errorf("reloaded tables = %v", ts)
	}
	tb, err := c2.Table("sales")
	if err != nil {
		t.Fatal(err)
	}
	if tb.Schema.Len() != 4 || tb.PartitionExprText == "" {
		t.Errorf("reloaded table = %+v", tb)
	}
	p, err := c2.Projection("sales_super")
	if err != nil {
		t.Fatal(err)
	}
	if p.Schema == nil || p.Encodings["date"] != encoding.RLE {
		t.Errorf("reloaded projection = %+v", p)
	}
	// Rebind expressions with a trivial binder.
	bound := 0
	err = c2.RebindExprs(func(text string, schema *types.Schema) (expr.Expr, error) {
		bound++
		return expr.NewConst(types.NewInt(1)), nil
	})
	if err != nil || bound != 2 {
		t.Errorf("rebind count = %d, err %v", bound, err)
	}
	if tb.PartitionExpr == nil || p.Seg.Expr == nil {
		t.Error("expressions not rebound")
	}
}

func TestLoadEmptyDir(t *testing.T) {
	c, err := Load(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Tables()) != 0 {
		t.Error("empty catalog should have no tables")
	}
}

func TestPersistFailuresSurface(t *testing.T) {
	// A catalog directory that cannot be created fails the DDL that persists.
	file := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := New(filepath.Join(file, "db")).CreateTable(salesTable()); err == nil {
		t.Error("CreateTable persisted under a regular file")
	}
	// An unreadable catalog.json fails Load rather than opening empty.
	dir := t.TempDir()
	if err := os.Mkdir(filepath.Join(dir, "catalog.json"), 0o755); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(dir); err == nil {
		t.Error("Load read a directory as catalog.json")
	}
}

func TestDropTableCascadesProjections(t *testing.T) {
	c := New("")
	c.CreateTable(salesTable())
	c.CreateProjection(&Projection{
		Name: "p", Anchor: "sales", Columns: []string{"cust"},
	})
	c.DropTable("sales")
	if _, err := c.Projection("p"); err == nil {
		t.Error("projection should be dropped with its table")
	}
}

func TestHasColumn(t *testing.T) {
	c := New("")
	c.CreateTable(salesTable())
	p := &Projection{Name: "p", Anchor: "sales", Columns: []string{"cust", "price"}}
	c.CreateProjection(p)
	if !p.HasColumn("cust") || p.HasColumn("date") {
		t.Error("HasColumn wrong")
	}
}

func TestVirtualTables(t *testing.T) {
	c := New("")
	if err := c.RegisterVirtual(&Table{Name: "v_monitor.empty"}, nil); err == nil {
		t.Error("a virtual table without a schema registered")
	}
	sys := &Table{Name: "v_monitor.sessions", Schema: types.NewSchema(types.Column{Name: "id", Typ: types.Int64})}
	rows := func() ([]types.Row, error) { return []types.Row{{types.NewInt(7)}}, nil }
	if err := c.RegisterVirtual(sys, rows); err != nil {
		t.Fatal(err)
	}
	c.RegisterVirtual(&Table{Name: "v_catalog.tables", Schema: sys.Schema}, rows)
	if got := c.VirtualNames(); strings.Join(got, ",") != "v_catalog.tables,v_monitor.sessions" {
		t.Errorf("VirtualNames = %v", got)
	}
	vt := c.Virtual("v_monitor.sessions")
	if vt == nil || vt.Table != sys {
		t.Fatalf("Virtual = %+v", vt)
	}
	if r, err := vt.Rows(); err != nil || r[0][0].I != 7 {
		t.Errorf("Rows = %v, %v", r, err)
	}
	if c.Virtual("v_monitor.nosuch") != nil {
		t.Error("an unregistered virtual table resolved")
	}
	// Tables resolve user tables first, then system tables; Tables lists
	// user tables only.
	if tb, err := c.Table("v_monitor.sessions"); err != nil || tb != sys {
		t.Errorf("Table(system) = %v, %v", tb, err)
	}
	if len(c.Tables()) != 0 {
		t.Error("a virtual table is listed as a user table")
	}
}

func TestGenerationAndStatsEpoch(t *testing.T) {
	c := New("")
	g0, s0 := c.Generation(), c.StatsEpoch()
	c.CreateTable(salesTable())
	c.CreateProjection(&Projection{Name: "p", Anchor: "sales", Columns: []string{"cust"}})
	c.DropProjection("p")
	if g := c.Generation(); g != g0+3 {
		t.Errorf("generation moved %d times for three schema changes", g-g0)
	}
	if c.StatsEpoch() != s0 {
		t.Error("a schema change moved the statistics epoch")
	}
	if err := c.SetTableStats("sales", []*stats.ColumnStats{{Column: "cust", RowCount: 3}}); err != nil {
		t.Fatal(err)
	}
	if c.StatsEpoch() != s0+1 || c.Generation() != g0+3 {
		t.Error("ANALYZE moved the wrong counter")
	}
	if err := c.SetTableStats("nosuch", nil); err == nil {
		t.Error("statistics for a missing table were accepted")
	}
}

func TestColumnStatsMergeAndPersist(t *testing.T) {
	dir := t.TempDir()
	c := New(dir)
	c.CreateTable(salesTable())
	if c.TableStats("sales") != nil || c.ColumnStats("sales", "cust") != nil {
		t.Fatal("an unanalyzed table has statistics")
	}
	c.SetTableStats("sales", []*stats.ColumnStats{{Column: "cust", RowCount: 3, NDV: 2}, {Column: "price", RowCount: 3}})
	// Analyzing one column replaces only that column's record.
	c.SetTableStats("sales", []*stats.ColumnStats{{Column: "cust", RowCount: 5, NDV: 4}})
	all := c.TableStats("sales")
	if len(all) != 2 || all["cust"].NDV != 4 || all["price"].RowCount != 3 {
		t.Fatalf("TableStats = %v", all)
	}
	delete(all, "cust") // the snapshot is the caller's
	if c.ColumnStats("sales", "cust") == nil {
		t.Error("editing a TableStats snapshot changed the catalog")
	}
	c2, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if cs := c2.ColumnStats("sales", "cust"); cs == nil || cs.NDV != 4 || cs.RowCount != 5 {
		t.Errorf("reloaded statistics = %+v", cs)
	}
	// Dropping the table drops its statistics, on disk too.
	c.DropTable("sales")
	if c.TableStats("sales") != nil {
		t.Error("statistics outlived their table")
	}
	c3, _ := Load(dir)
	if c3.TableStats("sales") != nil {
		t.Error("statistics of a dropped table were reloaded")
	}
}

func TestPoolDefinitionsPersist(t *testing.T) {
	dir := t.TempDir()
	c := New(dir)
	if err := c.SavePool(PoolDef{}); err == nil {
		t.Error("a pool without a name was saved")
	}
	c.SavePool(PoolDef{Name: "reports", MemBytes: 1 << 20, Priority: 5, RuntimeCapMS: 100})
	c.SavePool(PoolDef{Name: "etl", MaxConcurrency: 2})
	c.SavePool(PoolDef{Name: "etl", MaxConcurrency: 3, Parallelism: 2}) // an upsert
	if d, ok := c.PoolDef("etl"); !ok || d.MaxConcurrency != 3 || d.Parallelism != 2 {
		t.Errorf("PoolDef(etl) = %+v, %v", d, ok)
	}
	if _, ok := c.PoolDef("nosuch"); ok {
		t.Error("a missing pool resolved")
	}
	c2, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	defs := c2.PoolDefs()
	if len(defs) != 2 || defs[0].Name != "etl" || defs[1].Name != "reports" || defs[1].RuntimeCapMS != 100 {
		t.Fatalf("reloaded pools = %+v", defs)
	}
	if err := c2.DropPool("general"); err != nil {
		t.Errorf("dropping an undefined pool: %v", err)
	}
	if err := c2.DropPool("etl"); err != nil {
		t.Fatal(err)
	}
	c3, _ := Load(dir)
	if defs := c3.PoolDefs(); len(defs) != 1 || defs[0].Name != "reports" {
		t.Errorf("pools after DROP = %+v", defs)
	}
}

func TestSuperProjectionPrefersPlain(t *testing.T) {
	c := New("")
	c.CreateTable(salesTable())
	if _, err := c.SuperProjection("sales"); err == nil {
		t.Error("a table without projections has a super projection")
	}
	all := []string{"sale_id", "date", "cust", "price"}
	c.CreateProjection(&Projection{Name: "b_buddy", Anchor: "sales", Columns: all, IsBuddy: true})
	if p, err := c.SuperProjection("sales"); err == nil {
		t.Errorf("only a buddy super: %v is not the table's super projection", p)
	}
	c.CreateProjection(&Projection{Name: "c_plain", Anchor: "sales", Columns: all})
	if p, err := c.SuperProjection("sales"); err != nil || p.Name != "c_plain" {
		t.Errorf("SuperProjection = %v, %v; want the plain one", p, err)
	}
	var names []string
	for _, p := range c.Projections() {
		names = append(names, p.Name)
	}
	if strings.Join(names, ",") != "b_buddy,c_plain" {
		t.Errorf("Projections = %v", names)
	}
}

func TestCatalogRejectsMalformedDefinitions(t *testing.T) {
	c := New("")
	if err := c.CreateTable(&Table{Name: "empty", Schema: types.NewSchema()}); err == nil {
		t.Error("a table without columns was created")
	}
	c.CreateTable(salesTable())
	for _, p := range []*Projection{
		{Name: "missing_dim", Anchor: "sales", Columns: []string{"nosuch.region"}},
		{Name: "missing_dim_col", Anchor: "sales", Columns: []string{"sales.nosuch"}},
	} {
		if err := c.CreateProjection(p); err == nil {
			t.Errorf("projection %s was created", p.Name)
		}
	}
	c.CreateProjection(&Projection{Name: "p", Anchor: "sales", Columns: []string{"cust"}})
	if err := c.CreateProjection(&Projection{Name: "p", Anchor: "sales", Columns: []string{"cust"}}); err == nil {
		t.Error("a duplicate projection was created")
	}
	if err := c.DropProjection("nosuch"); err == nil {
		t.Error("dropping a missing projection succeeded")
	}
	if _, err := c.Projection("nosuch"); err == nil {
		t.Error("a missing projection resolved")
	}
}

func TestLoadRejectsCorruptCatalog(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "catalog.json"), []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(dir); err == nil || !strings.Contains(err.Error(), "corrupt") {
		t.Errorf("Load of a corrupt catalog: %v", err)
	}
	// A projection whose anchor is gone cannot be bound.
	bad := `{"tables": [], "projections": [{"name": "p", "anchor": "gone", "columns": ["x"]}]}`
	os.WriteFile(filepath.Join(dir, "catalog.json"), []byte(bad), 0o644)
	if _, err := Load(dir); err == nil {
		t.Error("a projection of a missing table was loaded")
	}
}

func TestRebindExprsReportsBinderErrors(t *testing.T) {
	c := New("")
	tab := salesTable()
	tab.PartitionExprText = "BROKEN("
	c.CreateTable(tab)
	err := c.RebindExprs(func(string, *types.Schema) (expr.Expr, error) { return nil, errors.New("parse error") })
	if err == nil || !strings.Contains(err.Error(), "partition") {
		t.Errorf("partition binder error: %v", err)
	}
	tab.PartitionExprText = ""
	c.CreateProjection(&Projection{Name: "p", Anchor: "sales", Columns: []string{"cust"}, Seg: Segmentation{ExprText: "HASH("}})
	err = c.RebindExprs(func(string, *types.Schema) (expr.Expr, error) { return nil, errors.New("parse error") })
	if err == nil || !strings.Contains(err.Error(), "segmentation") {
		t.Errorf("segmentation binder error: %v", err)
	}
}
