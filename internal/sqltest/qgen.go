// Deterministic random query generation for the TLP metamorphic oracle
// (tlp.go). The generator is seeded: a failing predicate is reproduced by
// re-running with the seed printed in the failure message.
package sqltest

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"repro/internal/types"
)

// ColProfile describes one generatable column: its name, type, and SQL
// literals sampled from the table's actual data (so generated comparisons
// hit interesting selectivities instead of always-empty ranges).
type ColProfile struct {
	Name    string
	Typ     types.Type
	Samples []string // rendered SQL literals; never NULL
}

// TableProfile describes one table the generator can build predicates over.
type TableProfile struct {
	Name string
	Cols []ColProfile
}

// QGen generates random boolean predicates over profiled tables. All
// randomness flows from the seed, so a run is fully determined by
// (seed, profiles, call sequence).
type QGen struct {
	rng    *rand.Rand
	tables []TableProfile
}

// NewQGen builds a generator over the given table profiles.
func NewQGen(seed int64, tables []TableProfile) *QGen {
	return &QGen{rng: rand.New(rand.NewSource(seed)), tables: tables}
}

// NextPredicate picks a table and generates a boolean predicate over its
// columns. Predicates mix comparisons, BETWEEN, IN, IS [NOT] NULL and
// AND/OR/NOT composition; under SQL's ternary logic each may evaluate to
// TRUE, FALSE or NULL, which is exactly what TLP partitions on.
func (g *QGen) NextPredicate() (TableProfile, string) {
	t := g.tables[g.rng.Intn(len(g.tables))]
	return t, g.boolExpr(t, 2)
}

func (g *QGen) boolExpr(t TableProfile, depth int) string {
	if depth <= 0 || g.rng.Intn(100) < 40 {
		return g.leaf(t)
	}
	switch g.rng.Intn(3) {
	case 0:
		return fmt.Sprintf("(%s AND %s)", g.boolExpr(t, depth-1), g.boolExpr(t, depth-1))
	case 1:
		return fmt.Sprintf("(%s OR %s)", g.boolExpr(t, depth-1), g.boolExpr(t, depth-1))
	default:
		return fmt.Sprintf("NOT (%s)", g.boolExpr(t, depth-1))
	}
}

// sortKeyPredicate generates a predicate whose first conjunct compares the
// named column — a table's leading sort column — with a literal.
func (g *QGen) sortKeyPredicate(t TableProfile, col string) string {
	for _, c := range t.Cols {
		if c.Name != col || len(c.Samples) == 0 {
			continue
		}
		pred := fmt.Sprintf("%s %s %s", c.Name, cmpOps[g.rng.Intn(len(cmpOps))], g.literal(c))
		switch g.rng.Intn(3) {
		case 0:
			pred = fmt.Sprintf("%s BETWEEN %s AND %s", c.Name, g.literal(c), g.literal(c))
		case 1:
			pred = fmt.Sprintf("(%s AND %s)", pred, g.boolExpr(t, 1))
		}
		return pred
	}
	return g.boolExpr(t, 2)
}

var cmpOps = []string{"=", "<>", "<", "<=", ">", ">="}

func (g *QGen) leaf(t TableProfile) string {
	c := t.Cols[g.rng.Intn(len(t.Cols))]
	if len(c.Samples) == 0 {
		// All-NULL (or unsampled) column: only nullness tests are useful.
		if g.rng.Intn(2) == 0 {
			return c.Name + " IS NULL"
		}
		return c.Name + " IS NOT NULL"
	}
	switch g.rng.Intn(100) {
	case 0, 1, 2, 3, 4, 5, 6, 7, 8, 9:
		return c.Name + " IS NULL"
	case 10, 11, 12, 13, 14, 15, 16, 17, 18, 19:
		return c.Name + " IS NOT NULL"
	case 20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30, 31, 32, 33, 34:
		a, b := g.literal(c), g.literal(c)
		return fmt.Sprintf("%s BETWEEN %s AND %s", c.Name, a, b)
	case 35, 36, 37, 38, 39, 40, 41, 42, 43, 44, 45, 46, 47, 48, 49:
		// IN lists admit only plain literals (no expressions) per the
		// grammar, so draw raw samples rather than perturbed literals.
		n := 1 + g.rng.Intn(3)
		vals := make([]string, n)
		for i := range vals {
			vals[i] = c.Samples[g.rng.Intn(len(c.Samples))]
		}
		not := ""
		if g.rng.Intn(3) == 0 {
			not = "NOT "
		}
		return fmt.Sprintf("%s %sIN (%s)", c.Name, not, strings.Join(vals, ", "))
	default:
		return fmt.Sprintf("%s %s %s", c.Name, cmpOps[g.rng.Intn(len(cmpOps))], g.literal(c))
	}
}

// literal draws a comparison literal for a column: usually one of the
// sampled data values, occasionally a perturbed or out-of-domain value so
// empty and full selections are generated too.
func (g *QGen) literal(c ColProfile) string {
	s := c.Samples[g.rng.Intn(len(c.Samples))]
	if g.rng.Intn(4) != 0 {
		return s
	}
	switch c.Typ {
	case types.Int64:
		return fmt.Sprintf("(%s + %d)", s, g.rng.Intn(7)-3)
	case types.Float64:
		return fmt.Sprintf("(%s + %d.5)", s, g.rng.Intn(3)-1)
	case types.Varchar:
		return "'zzz_none'"
	default:
		return s
	}
}

// GeneratedTLPSetup deterministically builds DDL + multi-row INSERTs for a
// NULL-heavy mixed-type table, so TLP also runs over data that no .slt
// golden happens to define (every type, ~15% NULLs per nullable column,
// duplicate rows, quote-bearing strings).
func GeneratedTLPSetup(seed int64, rows int) []string {
	rng := rand.New(rand.NewSource(seed))
	stmts := []string{
		"CREATE TABLE tlp_data (id INT, grp INT, val FLOAT, name VARCHAR, flag BOOL, ts TIMESTAMP)",
		"CREATE PROJECTION tlp_data_super ON tlp_data (id, grp, val, name, flag, ts) ORDER BY grp",
	}
	names := []string{"alpha", "beta", "gamma", "o'brien", ""}
	base := time.Date(2012, 8, 27, 10, 0, 0, 0, time.UTC)
	null := func() bool { return rng.Intn(100) < 15 }
	var batch []string
	flush := func() {
		if len(batch) > 0 {
			stmts = append(stmts, "INSERT INTO tlp_data VALUES "+strings.Join(batch, ", "))
			batch = nil
		}
	}
	for i := 0; i < rows; i++ {
		grp, val, name, flag, ts := "NULL", "NULL", "NULL", "NULL", "NULL"
		if !null() {
			grp = fmt.Sprintf("%d", rng.Intn(8))
		}
		if !null() {
			// Exactly representable halves keep float SUMs ulp-stable
			// under parallel re-association.
			val = fmt.Sprintf("%d.5", rng.Intn(40)-20)
		}
		if !null() {
			name, _ = SampleLiteral(types.NewString(names[rng.Intn(len(names))]))
		}
		if !null() {
			if rng.Intn(2) == 0 {
				flag = "TRUE"
			} else {
				flag = "FALSE"
			}
		}
		if !null() {
			t := base.Add(time.Duration(rng.Intn(72)) * time.Hour)
			ts = "TIMESTAMP '" + t.Format("2006-01-02 15:04:05") + "'"
		}
		// Duplicate ids (id%32) make multiset-vs-set distinctions matter.
		batch = append(batch, fmt.Sprintf("(%d, %s, %s, %s, %s, %s)", i%32, grp, val, name, flag, ts))
		if len(batch) == 50 {
			flush()
		}
	}
	flush()
	return stmts
}

// SampleLiteral renders a value as a SQL literal for the generator's sample
// pools (strings quoted with ” doubling, timestamps with the TIMESTAMP
// prefix). NULLs must not be sampled; they are reached via IS NULL.
func SampleLiteral(v types.Value) (string, bool) {
	if v.Null {
		return "", false
	}
	switch v.Typ {
	case types.Varchar:
		return "'" + strings.ReplaceAll(v.S, "'", "''") + "'", true
	case types.Timestamp:
		return "TIMESTAMP '" + v.String() + "'", true
	case types.Bool:
		if v.Bool() {
			return "TRUE", true
		}
		return "FALSE", true
	default:
		return v.String(), true
	}
}
