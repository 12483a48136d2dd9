package core

import (
	"flag"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/expr"
	"repro/internal/sql"
	"repro/internal/types"
)

var (
	dmlSeed  = flag.Int64("dml.seed", 20120827, "seed of TestDMLMatchesModel (a failure prints the seed to re-run)")
	dmlCases = flag.Int("dml.cases", 4, "tables TestDMLMatchesModel draws per cluster shape (make test-metamorphic draws more)")
)

// TestDMLMatchesModel is the differential test of DELETE and UPDATE. Random
// tables with NULLs, whose rows lie in direct-loaded containers, moved-out
// containers and the WOS with some already deleted at older epochs, take
// random DELETE and UPDATE statements — predicates with and without a
// selector kernel, SET expressions that read the columns they overwrite — on
// one node and on three nodes with K = 1. After every statement its
// RowsAffected and the table's rows must equal a model that evaluates the
// same analysed expressions a row at a time with EvalRow.
func TestDMLMatchesModel(t *testing.T) {
	for _, shape := range []struct{ nodes, k int }{{1, 0}, {3, 1}} {
		for c := range *dmlCases {
			seed := *dmlSeed + int64(c)
			t.Run(fmt.Sprintf("nodes=%d/seed=%d", shape.nodes, seed), func(t *testing.T) {
				m := newDMLModel(t, shape.nodes, shape.k, seed)
				for range 10 {
					m.step()
					if t.Failed() {
						t.Fatalf("seed %d, %d nodes; statements so far:\n%s", seed, shape.nodes, strings.Join(m.log, "\n"))
					}
				}
			})
		}
	}
}

// dmlModel is a table and the rows a row-at-a-time model says it holds.
type dmlModel struct {
	t    *testing.T
	db   *Database
	rng  *rand.Rand
	rows []types.Row // a INT, b INT, c VARCHAR, d FLOAT
	log  []string
}

func newDMLModel(t *testing.T, nodes, k int, seed int64) *dmlModel {
	m := &dmlModel{t: t, db: openTestDB(t, nodes, k), rng: rand.New(rand.NewSource(seed))}
	part := ""
	if m.rng.Intn(2) == 0 {
		part = " PARTITION BY b"
	}
	m.exec(`CREATE TABLE t (a INT, b INT, c VARCHAR, d FLOAT)` + part)
	// The projection's column order is not the table's.
	m.exec(fmt.Sprintf(`CREATE PROJECTION t_super ON t (c, a, d, b) ORDER BY %s SEGMENTED BY HASH(a)`,
		[]string{"a", "b", "c", "d"}[m.rng.Intn(4)]))
	m.load(20+m.rng.Intn(60), true) // direct-loaded containers
	m.load(20+m.rng.Intn(60), false)
	if _, _, err := m.db.RunTupleMover(); err != nil { // moved-out containers
		t.Fatal(err)
	}
	m.step() // deletes at an older epoch, in the ROS
	m.load(10+m.rng.Intn(40), false)
	m.step() // and in the WOS
	return m
}

// load adds n random rows, straight to the ROS when direct.
func (m *dmlModel) load(n int, direct bool) {
	rows := make([]types.Row, n)
	for i := range rows {
		rows[i] = types.Row{m.intOrNull(-20, 20), m.intOrNull(-3, 3), m.strOrNull(), m.floatOrNull()}
	}
	if err := m.db.Load("t", rows, direct); err != nil {
		m.t.Fatal(err)
	}
	m.rows = append(m.rows, rows...)
	m.log = append(m.log, fmt.Sprintf("load %d rows (direct %v)", n, direct))
}

func (m *dmlModel) intOrNull(lo, hi int) types.Value {
	if m.rng.Intn(6) == 0 {
		return types.NewNull(types.Int64)
	}
	return types.NewInt(int64(lo + m.rng.Intn(hi-lo+1)))
}

func (m *dmlModel) strOrNull() types.Value {
	if m.rng.Intn(6) == 0 {
		return types.NewNull(types.Varchar)
	}
	return types.NewString([]string{"", "x", "y", "zz", "Abc"}[m.rng.Intn(5)])
}

func (m *dmlModel) floatOrNull() types.Value {
	if m.rng.Intn(6) == 0 {
		return types.NewNull(types.Float64)
	}
	return types.NewFloat(float64(m.rng.Intn(41)-20) / 4)
}

func (m *dmlModel) exec(text string) *Result {
	m.t.Helper()
	res, err := m.db.Execute(text)
	if err != nil {
		m.t.Fatalf("%s: %v\nstatements so far:\n%s", text, err, strings.Join(m.log, "\n"))
	}
	return res
}

// atoms are predicates over t: the first group has a selector kernel
// (column against constant), the second has none.
var dmlAtoms = [][]string{{
	"a < 5", "a >= -2", "b = 1", "b <> 0", "c = 'x'", "c > 'y'", "d <= 1.5", "d > -2.25",
}, {
	"b IS NULL", "c IS NOT NULL", "a IN (1, 2, 3, -4)", "b NOT IN (0, 1)", "c IN ('x', 'zz')",
	"CASE WHEN a > 0 THEN b ELSE a END > 1", "a + b > 2", "a * 2 - b < 3", "d * 2 > a",
	"NOT (a > 0)", "a BETWEEN -3 AND 4", "(a < 0 OR d IS NULL)", "(b = 2 OR c = 'y')",
	"LENGTH(c) = 1", "ABS(a) < 6",
}}

func (m *dmlModel) where() string {
	if m.rng.Intn(12) == 0 {
		return ""
	}
	n := 1 + m.rng.Intn(3)
	parts := make([]string, n)
	for i := range parts {
		group := dmlAtoms[m.rng.Intn(2)]
		parts[i] = group[m.rng.Intn(len(group))]
	}
	op := " AND "
	if m.rng.Intn(4) == 0 {
		op = " OR "
	}
	return " WHERE " + strings.Join(parts, op)
}

// dmlSets are SET clauses; many read the columns they overwrite, and the
// last ones write two columns from each other.
var dmlSets = []string{
	"a = a + 1", "b = b * 2 - a", "c = UPPER(c)", "d = d + a", "d = a", "a = b",
	"c = CASE WHEN c IS NULL THEN 'n' ELSE c END", "a = CASE WHEN b IS NULL THEN 0 ELSE b END",
	"d = d * 2", "b = a - b", "a = INT(d)", "a = b, b = a", "d = b, b = a + 1, c = 'u'",
}

// step runs one random DELETE or UPDATE on the engine and the model and
// compares what it affected and what the table holds afterwards.
func (m *dmlModel) step() {
	text := "DELETE FROM t" + m.where()
	if m.rng.Intn(2) == 0 {
		text = "UPDATE t SET " + dmlSets[m.rng.Intn(len(dmlSets))] + m.where()
	}
	m.log = append(m.log, text)
	want := m.apply(text)
	res := m.exec(text)
	if res.RowsAffected != want {
		m.t.Errorf("%s: RowsAffected %d, model %d", text, res.RowsAffected, want)
	}
	got := m.exec(`SELECT a, b, c, d FROM t`).Rows
	if g, w := sortedRowText(got), sortedRowText(m.rows); !slices.Equal(g, w) {
		m.t.Errorf("%s: table holds %d rows, model %d\n got %v\nwant %v", text, len(g), len(w), g, w)
	}
}

// apply runs a DELETE or UPDATE on the model: the statement's WHERE and SET
// expressions, analysed as the engine analyses them, evaluated on each row
// with EvalRow. It returns the rows affected.
func (m *dmlModel) apply(text string) int64 {
	stmt, err := sql.Parse(text)
	if err != nil {
		m.t.Fatalf("%s: %v", text, err)
	}
	tbl, err := m.db.Catalog().Table("t")
	if err != nil {
		m.t.Fatal(err)
	}
	bind := func(a sql.AstExpr) expr.Expr {
		if a == nil {
			return nil
		}
		e, err := sql.BindExprToTable(a, tbl)
		if err != nil {
			m.t.Fatalf("%s: %v", text, err)
		}
		return e
	}
	var pred expr.Expr
	set := map[int]expr.Expr{}
	switch st := stmt.(type) {
	case *sql.DeleteStmt:
		pred = bind(st.Where)
	case *sql.UpdateStmt:
		pred = bind(st.Where)
		for _, cn := range st.Cols {
			set[tbl.Schema.ColIndex(cn)] = bind(st.Set[cn])
		}
	}
	eval := func(e expr.Expr, r types.Row) types.Value {
		v, err := e.EvalRow(r)
		if err != nil {
			m.t.Fatalf("%s: EvalRow(%s): %v", text, e, err)
		}
		return v
	}
	var affected int64
	var kept, updated []types.Row
	for _, r := range m.rows {
		if pred != nil && !eval(pred, r).Bool() {
			kept = append(kept, r)
			continue
		}
		affected++
		if len(set) == 0 {
			continue // deleted
		}
		u := r.Clone()
		for ci, e := range set {
			u[ci] = types.Coerce(eval(e, r), tbl.Schema.Col(ci).Typ)
		}
		updated = append(updated, u)
	}
	m.rows = append(kept, updated...)
	return affected
}

func sortedRowText(rows []types.Row) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = fmt.Sprint(r)
	}
	slices.Sort(out)
	return out
}
