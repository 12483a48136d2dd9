// Package catalog implements the metadata catalog (paper §5.3): tables,
// projections and their sort orders, encodings and segmentation clauses.
//
// As in Vertica, the catalog is not stored in database tables — it is a
// memory-resident structure transactionally persisted to disk via its own
// mechanism (here: an atomically renamed JSON snapshot per change).
// Expressions (partition and segmentation clauses) are persisted as SQL text
// and re-bound by the engine on open.
package catalog

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"repro/internal/encoding"
	"repro/internal/expr"
	"repro/internal/types"
)

// Table is a logical table definition.
type Table struct {
	Name   string        `json:"name"`
	Schema *types.Schema `json:"-"`
	// Cols persists the schema.
	Cols []types.Column `json:"columns"`
	// PartitionExprText is the PARTITION BY clause source ("" when the
	// table is unpartitioned); PartitionExpr is its bound runtime form over
	// the table schema.
	PartitionExprText string    `json:"partition_expr,omitempty"`
	PartitionExpr     expr.Expr `json:"-"`
}

// Segmentation describes how a projection's tuples map to nodes (paper
// §3.6): either replicated on every node or ring-segmented by an integral
// expression over the projection's columns.
type Segmentation struct {
	Replicated bool   `json:"replicated"`
	ExprText   string `json:"expr,omitempty"`
	// Offset shifts the ring mapping by whole nodes; buddy projections use
	// offset 1 so that "no row is stored on the same node by both
	// projections" (§5.2).
	Offset int       `json:"offset"`
	Expr   expr.Expr `json:"-"`
}

// Projection is the only physical data structure in Vertica (paper §3.1):
// a sorted subset of a table's columns, segmented across the cluster.
type Projection struct {
	Name      string                   `json:"name"`
	Anchor    string                   `json:"anchor"`  // anchoring table
	Columns   []string                 `json:"columns"` // anchor-table column names
	SortOrder []string                 `json:"sort_order"`
	Seg       Segmentation             `json:"segmentation"`
	Encodings map[string]encoding.Kind `json:"encodings,omitempty"`
	// IsSuper marks a super projection containing every anchor column;
	// Vertica requires at least one per table in place of join indexes
	// (§3.2).
	IsSuper bool `json:"is_super"`
	// Buddy names this projection's buddy (for K-safety); "" when none.
	Buddy string `json:"buddy,omitempty"`
	// IsBuddy marks projections created as buddies of another.
	IsBuddy bool `json:"is_buddy,omitempty"`

	// Schema is the bound projection schema (derived, not persisted).
	Schema *types.Schema `json:"-"`
}

// SortKey returns sort-order column indexes into the projection schema.
func (p *Projection) SortKey() []int {
	out := make([]int, 0, len(p.SortOrder))
	for _, name := range p.SortOrder {
		if i := p.Schema.ColIndex(name); i >= 0 {
			out = append(out, i)
		}
	}
	return out
}

// HasColumn reports whether the projection stores the named column.
func (p *Projection) HasColumn(name string) bool {
	return p.Schema.ColIndex(name) >= 0
}

// VirtualTable is a system table: a schema plus a row producer evaluated at
// scan time. Virtual tables are not persisted and hold no projections; the
// planner scans them through exec.VirtualScan. They model Vertica's
// v_monitor/v_catalog metadata views — "Vertica is self-monitoring":
// runtime state is queryable with plain SQL.
type VirtualTable struct {
	Table *Table
	Rows  func() ([]types.Row, error)
}

// PoolDef is a persisted resource-pool definition (paper §8: workload
// management survives restarts). The catalog stores pool *definitions* only;
// runtime state (queues, grants, counters) lives in the governor, which
// core.Open re-registers these definitions with.
type PoolDef struct {
	Name               string `json:"name"`
	MemBytes           int64  `json:"memorysize,omitempty"`
	MaxMemBytes        int64  `json:"maxmemorysize,omitempty"`
	PlannedConcurrency int    `json:"planned_concurrency,omitempty"`
	MaxConcurrency     int    `json:"max_concurrency,omitempty"`
	// QueueTimeoutMS: 0 inherits the governor default, negative disables.
	QueueTimeoutMS int64 `json:"queue_timeout_ms,omitempty"`
	Priority       int   `json:"priority,omitempty"`
	// RuntimeCapMS bounds statement execution time (0 = uncapped).
	RuntimeCapMS int64 `json:"runtime_cap_ms,omitempty"`
	// Parallelism is the pool's intra-node parallel degree (0 = default).
	Parallelism int `json:"parallelism,omitempty"`
}

// Catalog is the cluster-wide metadata store.
type Catalog struct {
	mu          sync.RWMutex
	dir         string // "" for in-memory catalogs
	tables      map[string]*Table
	projections map[string]*Projection
	virtual     map[string]*VirtualTable
	pools       map[string]*PoolDef
	// generation counts schema mutations (CREATE/DROP TABLE/PROJECTION). It
	// is monotonic and in-memory only: it exists so the plan cache can key
	// entries on the catalog state they were planned against — a bump
	// lazily invalidates every cached plan without touching the cache.
	generation int64
}

// Generation returns the schema-mutation counter (bumped by CREATE/DROP of
// tables and projections).
func (c *Catalog) Generation() int64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.generation
}

// New creates an empty catalog persisted under dir ("" keeps it in memory).
func New(dir string) *Catalog {
	return &Catalog{
		dir:         dir,
		tables:      map[string]*Table{},
		projections: map[string]*Projection{},
		virtual:     map[string]*VirtualTable{},
		pools:       map[string]*PoolDef{},
	}
}

// RegisterVirtual installs (or replaces) a system table under its qualified
// name (e.g. "v_monitor.resource_pools"). Virtual tables shadow nothing:
// user tables resolve first.
func (c *Catalog) RegisterVirtual(t *Table, rows func() ([]types.Row, error)) error {
	if t == nil || t.Schema == nil || t.Schema.Len() == 0 {
		return fmt.Errorf("catalog: virtual table needs a schema")
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.virtual[t.Name] = &VirtualTable{Table: t, Rows: rows}
	return nil
}

// Virtual resolves a virtual table by qualified name (nil when absent).
func (c *Catalog) Virtual(name string) *VirtualTable {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.virtual[name]
}

// VirtualNames lists registered virtual tables sorted by name.
func (c *Catalog) VirtualNames() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]string, 0, len(c.virtual))
	for n := range c.virtual {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Every mutator below that persists applies its change in memory, persists,
// and undoes the change when the write fails: a DDL that returns an error
// leaves the catalog, its generation included, as it was.

// CreateTable registers a table.
func (c *Catalog) CreateTable(t *Table) error {
	if t.Schema == nil || t.Schema.Len() == 0 {
		return fmt.Errorf("catalog: table %q has no columns", t.Name)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.tables[t.Name]; ok {
		return fmt.Errorf("catalog: table %q already exists", t.Name)
	}
	t.Cols = t.Schema.Cols
	c.tables[t.Name] = t
	if err := c.persistLocked(); err != nil {
		delete(c.tables, t.Name)
		return err
	}
	c.generation++
	return nil
}

// DropTable removes a table and all of its projections.
func (c *Catalog) DropTable(name string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	t, ok := c.tables[name]
	if !ok {
		return fmt.Errorf("catalog: table %q does not exist", name)
	}
	delete(c.tables, name)
	var dropped []*Projection
	for pn, p := range c.projections {
		if p.Anchor == name {
			dropped = append(dropped, p)
			delete(c.projections, pn)
		}
	}
	if err := c.persistLocked(); err != nil {
		c.tables[name] = t
		for _, p := range dropped {
			c.projections[p.Name] = p
		}
		return err
	}
	c.generation++
	return nil
}

// Table resolves a table by name; virtual (system) tables resolve after
// user tables.
func (c *Catalog) Table(name string) (*Table, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	t, ok := c.tables[name]
	if !ok {
		if vt, vok := c.virtual[name]; vok {
			return vt.Table, nil
		}
		return nil, fmt.Errorf("catalog: table %q does not exist", name)
	}
	return t, nil
}

// Tables lists all tables sorted by name.
func (c *Catalog) Tables() []*Table {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]*Table, 0, len(c.tables))
	for _, t := range c.tables {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// bindProjectionSchema derives the projection schema from its anchor table.
func (c *Catalog) bindProjectionSchema(p *Projection) error {
	anchor, ok := c.tables[p.Anchor]
	if !ok {
		return fmt.Errorf("catalog: projection %q anchors missing table %q", p.Name, p.Anchor)
	}
	cols := make([]types.Column, 0, len(p.Columns))
	for _, name := range p.Columns {
		i := anchor.Schema.ColIndex(name)
		if i < 0 {
			return fmt.Errorf("catalog: projection %q references missing column %q of %q", p.Name, name, p.Anchor)
		}
		cols = append(cols, anchor.Schema.Col(i))
	}
	p.Schema = types.NewSchema(cols...)
	for _, s := range p.SortOrder {
		if p.Schema.ColIndex(s) < 0 {
			return fmt.Errorf("catalog: projection %q sorts on column %q it does not store", p.Name, s)
		}
	}
	return nil
}

// CreateProjection validates and registers a projection. A projection is
// super when it contains every column of its anchor table.
func (c *Catalog) CreateProjection(p *Projection) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.projections[p.Name]; ok {
		return fmt.Errorf("catalog: projection %q already exists", p.Name)
	}
	if err := c.bindProjectionSchema(p); err != nil {
		return err
	}
	anchor := c.tables[p.Anchor]
	p.IsSuper = true
	for _, col := range anchor.Schema.Cols {
		if p.Schema.ColIndex(col.Name) < 0 {
			p.IsSuper = false
			break
		}
	}
	if p.Encodings == nil {
		p.Encodings = map[string]encoding.Kind{}
	}
	c.projections[p.Name] = p
	if err := c.persistLocked(); err != nil {
		delete(c.projections, p.Name)
		return err
	}
	c.generation++
	return nil
}

// DropProjection removes a projection. The last super projection of a table
// cannot be dropped ("we have no plans to lift the super projection
// requirement", §3.2).
func (c *Catalog) DropProjection(name string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	p, ok := c.projections[name]
	if !ok {
		return fmt.Errorf("catalog: projection %q does not exist", name)
	}
	if p.IsSuper {
		supers := 0
		for _, o := range c.projections {
			if o.Anchor == p.Anchor && o.IsSuper {
				supers++
			}
		}
		if supers <= 1 {
			return fmt.Errorf("catalog: cannot drop %q: every table requires at least one super projection", name)
		}
	}
	delete(c.projections, name)
	if err := c.persistLocked(); err != nil {
		c.projections[name] = p
		return err
	}
	c.generation++
	return nil
}

// Projection resolves a projection by name.
func (c *Catalog) Projection(name string) (*Projection, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	p, ok := c.projections[name]
	if !ok {
		return nil, fmt.Errorf("catalog: projection %q does not exist", name)
	}
	return p, nil
}

// ProjectionsFor lists a table's projections sorted by name.
func (c *Catalog) ProjectionsFor(table string) []*Projection {
	c.mu.RLock()
	defer c.mu.RUnlock()
	var out []*Projection
	for _, p := range c.projections {
		if p.Anchor == table {
			out = append(out, p)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Projections lists every projection sorted by name.
func (c *Catalog) Projections() []*Projection {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]*Projection, 0, len(c.projections))
	for _, p := range c.projections {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// SuperProjection returns a table's first non-buddy super projection.
func (c *Catalog) SuperProjection(table string) (*Projection, error) {
	for _, p := range c.ProjectionsFor(table) {
		if p.IsSuper && !p.IsBuddy {
			return p, nil
		}
	}
	return nil, fmt.Errorf("catalog: table %q has no super projection", table)
}

// --- resource pool definitions ----------------------------------------------

// SavePool upserts a persisted resource-pool definition.
func (c *Catalog) SavePool(def PoolDef) error {
	if def.Name == "" {
		return fmt.Errorf("catalog: pool definition needs a name")
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	old, had := c.pools[def.Name]
	d := def
	c.pools[def.Name] = &d
	if err := c.persistLocked(); err != nil {
		if had {
			c.pools[def.Name] = old
		} else {
			delete(c.pools, def.Name)
		}
		return err
	}
	return nil
}

// DropPool removes a persisted pool definition (no error when absent: the
// built-in general pool and pre-persistence pools have no definition).
func (c *Catalog) DropPool(name string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	d, ok := c.pools[name]
	if !ok {
		return nil
	}
	delete(c.pools, name)
	if err := c.persistLocked(); err != nil {
		c.pools[name] = d
		return err
	}
	return nil
}

// PoolDef returns one persisted pool definition.
func (c *Catalog) PoolDef(name string) (PoolDef, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	d, ok := c.pools[name]
	if !ok {
		return PoolDef{}, false
	}
	return *d, true
}

// PoolDefs lists persisted pool definitions sorted by name.
func (c *Catalog) PoolDefs() []PoolDef {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]PoolDef, 0, len(c.pools))
	for _, d := range c.pools {
		out = append(out, *d)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// persisted is the JSON snapshot layout.
type persisted struct {
	Tables      []*Table      `json:"tables"`
	Projections []*Projection `json:"projections"`
	Pools       []PoolDef     `json:"resource_pools,omitempty"`
}

func (c *Catalog) persistLocked() error {
	if c.dir == "" {
		return nil
	}
	var p persisted
	for _, t := range c.tables {
		p.Tables = append(p.Tables, t)
	}
	for _, pr := range c.projections {
		p.Projections = append(p.Projections, pr)
	}
	sort.Slice(p.Tables, func(i, j int) bool { return p.Tables[i].Name < p.Tables[j].Name })
	sort.Slice(p.Projections, func(i, j int) bool { return p.Projections[i].Name < p.Projections[j].Name })
	for _, d := range c.pools {
		p.Pools = append(p.Pools, *d)
	}
	sort.Slice(p.Pools, func(i, j int) bool { return p.Pools[i].Name < p.Pools[j].Name })
	b, err := json.MarshalIndent(&p, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(c.dir, 0o755); err != nil {
		return err
	}
	tmp := filepath.Join(c.dir, "catalog.json.tmp")
	if err := os.WriteFile(tmp, b, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, filepath.Join(c.dir, "catalog.json"))
}

// Load reopens a persisted catalog. Expression re-binding (partition and
// segmentation clauses) is left to the caller via RebindExprs, since parsing
// lives above this package.
func Load(dir string) (*Catalog, error) {
	c := New(dir)
	b, err := os.ReadFile(filepath.Join(dir, "catalog.json"))
	if os.IsNotExist(err) {
		return c, nil
	}
	if err != nil {
		return nil, err
	}
	var p persisted
	if err := json.Unmarshal(b, &p); err != nil {
		return nil, fmt.Errorf("catalog: corrupt catalog.json: %w", err)
	}
	for _, t := range p.Tables {
		t.Schema = types.NewSchema(t.Cols...)
		c.tables[t.Name] = t
	}
	for _, pr := range p.Projections {
		if err := c.bindProjectionSchema(pr); err != nil {
			return nil, err
		}
		c.projections[pr.Name] = pr
	}
	for i := range p.Pools {
		d := p.Pools[i]
		c.pools[d.Name] = &d
	}
	return c, nil
}

// RebindExprs re-binds persisted expression text to runtime expressions
// using the supplied binder (the SQL layer's expression parser).
func (c *Catalog) RebindExprs(bind func(text string, schema *types.Schema) (expr.Expr, error)) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, t := range c.tables {
		if t.PartitionExprText != "" && t.PartitionExpr == nil {
			e, err := bind(t.PartitionExprText, t.Schema)
			if err != nil {
				return fmt.Errorf("catalog: rebinding partition expr of %q: %w", t.Name, err)
			}
			t.PartitionExpr = e
		}
	}
	for _, p := range c.projections {
		if p.Seg.ExprText != "" && p.Seg.Expr == nil {
			e, err := bind(p.Seg.ExprText, p.Schema)
			if err != nil {
				return fmt.Errorf("catalog: rebinding segmentation of %q: %w", p.Name, err)
			}
			p.Seg.Expr = e
		}
	}
	return nil
}
