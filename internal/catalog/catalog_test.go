package catalog

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/encoding"
	"repro/internal/expr"
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

// TestLoadIgnoresUnknownKeys: a catalog.json holding a section this version
// no longer keeps (an older catalog's per-column statistics, say) still
// loads; the key is ignored and the next write drops it.
func TestLoadIgnoresUnknownKeys(t *testing.T) {
	dir := t.TempDir()
	c := New(dir)
	if err := c.CreateTable(salesTable()); err != nil {
		t.Fatal(err)
	}
	if err := c.CreateProjection(&Projection{Name: "p", Anchor: "sales", Columns: []string{"sale_id", "date", "cust", "price"}}); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "catalog.json")
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	doc["retired_section"] = json.RawMessage(`{"sales": {"cust": {"column": "cust", "row_count": 900,
		"null_count": 0, "ndv": 10, "histogram": {"buckets": [{"upper": 9, "count": 900, "ndv": 10}]}}}}`)
	if b, err = json.Marshal(doc); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	c2, err := Load(dir)
	if err != nil {
		t.Fatalf("a catalog.json with an unknown key failed to load: %v", err)
	}
	if _, err := c2.Table("sales"); err != nil || len(c2.ProjectionsFor("sales")) != 1 {
		t.Fatalf("reloaded catalog lost sales or its projection: %v, %d", err, len(c2.ProjectionsFor("sales")))
	}
	if err := c2.SavePool(PoolDef{Name: "etl"}); err != nil {
		t.Fatal(err)
	}
	if b, err = os.ReadFile(path); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(b), "retired_section") {
		t.Error("a rewrite kept the unknown key")
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

// TestPersistFailuresSurface checks that a catalog write that fails fails
// its DDL and leaves the catalog as it was: in memory (lookups and
// generation) and on disk, so a retry after the fault clears succeeds and a
// restart sees the last good catalog. The write fails two ways: the catalog
// directory cannot be created, and catalog.json.tmp is a directory.
func TestPersistFailuresSurface(t *testing.T) {
	file := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := New(filepath.Join(file, "db")).CreateTable(salesTable()); err == nil {
		t.Error("CreateTable persisted under a regular file")
	}
	for _, fault := range []struct {
		name        string
		inject, fix func(c *Catalog)
	}{
		{"mkdir", func(c *Catalog) { c.dir = filepath.Join(file, "db") }, nil},
		{"tmp is a directory",
			func(c *Catalog) { os.Mkdir(filepath.Join(c.dir, "catalog.json.tmp"), 0o755) },
			func(c *Catalog) { os.Remove(filepath.Join(c.dir, "catalog.json.tmp")) }},
	} {
		t.Run(fault.name, func(t *testing.T) {
			dir := t.TempDir()
			c := New(dir)
			all := []string{"sale_id", "date", "cust", "price"}
			for _, err := range []error{
				c.CreateTable(salesTable()),
				c.CreateProjection(&Projection{Name: "p_super", Anchor: "sales", Columns: all}),
				c.CreateProjection(&Projection{Name: "p_cust", Anchor: "sales", Columns: []string{"cust"}}),
				c.SavePool(PoolDef{Name: "etl", MaxConcurrency: 2}),
			} {
				if err != nil {
					t.Fatal(err)
				}
			}
			fault.inject(c)
			gen := c.Generation()
			fails := func(op string, err error) {
				t.Helper()
				if err == nil {
					t.Errorf("%s succeeded with the catalog unwritable", op)
				}
				if c.Generation() != gen {
					t.Errorf("a failed %s moved the generation %d -> %d", op, gen, c.Generation())
				}
			}
			other := &Table{Name: "other", Schema: types.NewSchema(types.Column{Name: "k", Typ: types.Int64})}
			fails("CreateTable", c.CreateTable(other))
			if _, err := c.Table("other"); err == nil {
				t.Error("a failed CreateTable left its table")
			}
			fails("CreateProjection", c.CreateProjection(&Projection{Name: "p_price", Anchor: "sales", Columns: []string{"price"}}))
			if _, err := c.Projection("p_price"); err == nil {
				t.Error("a failed CreateProjection left its projection")
			}
			fails("DropProjection", c.DropProjection("p_cust"))
			if _, err := c.Projection("p_cust"); err != nil {
				t.Error("a failed DropProjection dropped the projection")
			}
			fails("DropTable", c.DropTable("sales"))
			if _, err := c.Table("sales"); err != nil || len(c.ProjectionsFor("sales")) != 2 {
				t.Errorf("a failed DropTable dropped the table or its projections: %v, %d", err, len(c.ProjectionsFor("sales")))
			}
			fails("SavePool (new)", c.SavePool(PoolDef{Name: "reports"}))
			fails("SavePool (update)", c.SavePool(PoolDef{Name: "etl", MaxConcurrency: 9}))
			fails("DropPool", c.DropPool("etl"))
			if defs := c.PoolDefs(); len(defs) != 1 || defs[0].Name != "etl" || defs[0].MaxConcurrency != 2 {
				t.Errorf("failed pool writes changed the pools: %+v", defs)
			}
			reloaded, err := Load(dir)
			if err != nil {
				t.Fatal(err)
			}
			if len(reloaded.Tables()) != 1 || len(reloaded.Projections()) != 2 || len(reloaded.PoolDefs()) != 1 {
				t.Errorf("the last good catalog on disk changed: %d tables, %d projections, %d pools",
					len(reloaded.Tables()), len(reloaded.Projections()), len(reloaded.PoolDefs()))
			}
			if fault.fix != nil {
				fault.fix(c)
				if err := c.CreateTable(other); err != nil {
					t.Errorf("retrying CreateTable after the fault cleared: %v", err)
				}
			}
		})
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

func TestGeneration(t *testing.T) {
	c := New("")
	g0 := c.Generation()
	c.CreateTable(salesTable())
	c.CreateProjection(&Projection{Name: "p", Anchor: "sales", Columns: []string{"cust"}})
	c.DropProjection("p")
	if g := c.Generation(); g != g0+3 {
		t.Errorf("generation moved %d times for three schema changes", g-g0)
	}
	c.SavePool(PoolDef{Name: "etl"})
	if c.Generation() != g0+3 {
		t.Error("a pool definition moved the schema generation")
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
