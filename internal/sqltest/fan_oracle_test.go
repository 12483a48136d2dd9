package sqltest

import (
	"flag"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/types"
)

var (
	fanSeed  = flag.Int64("fan.seed", 20120827, "seed of the fan oracle's first generated database")
	fanCases = flag.Int("fan.cases", 3, "generated databases the fan oracle checks")
)

// TestFanOracle is the differential oracle of intra-node parallelism: every
// generated query must return on a fanned engine — worker pipelines that
// claim blocks of one shared scan and probe one shared build — exactly what
// the serial engine returns. Each case generates a database whose fact
// table spreads over at least three ROS containers and the WOS, with
// deleted rows and NULL and duplicate join keys, beside two replicated
// dimensions, and runs every join flavor, aggregates with and without
// partial forms, DISTINCT and ORDER BY … LIMIT on four engines: serial (the
// reference), fans of 2 and 4 with the cardinality gate dropped, and a fan
// of 4 in a 64 KiB pool, where the shared build switches to sort-merge.
// Rows compare as multisets, in order under ORDER BY.
func TestFanOracle(t *testing.T) { fanOracle(t) }

// TestFanOraclePoisoned is the fan oracle with every block a scan gives up
// scribbled over and decoded into again (poisonBlocks).
func TestFanOraclePoisoned(t *testing.T) {
	poisonBlocks(t, poisonBudget)
	fanOracle(t)
}

func fanOracle(t *testing.T) {
	for n := 0; n < *fanCases; n++ {
		seed := *fanSeed + int64(n)
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			defer func() {
				if t.Failed() {
					t.Logf("re-run this case alone: go test ./internal/sqltest -run 'TestFanOracle' -fan.seed %d -fan.cases 1", seed)
				}
			}()
			runFanCase(t, rand.New(rand.NewSource(seed)))
		})
	}
}

// fanEngine is one configuration the oracle runs every query on.
type fanEngine struct {
	name string
	sess *core.Session
	tiny bool // in the 64 KiB pool
}

func runFanCase(t *testing.T, rng *rand.Rand) {
	fact, wos, d1, d2 := fanData(rng)
	deleted := rng.Intn(20)
	var engines []fanEngine
	for _, e := range []struct {
		name string
		ways int
		tiny bool
	}{{"serial", 1, false}, {"fan-2", 2, false}, {"fan-4", 4, false}, {"fan-4-tiny-pool", 4, true}} {
		opts := DefaultOptions(t)
		opts.Parallelism, opts.ForceParallel = e.ways, e.ways > 1
		db, err := core.Open(opts)
		if err != nil {
			t.Fatal(err)
		}
		fanSetup(t, db, fact, wos, d1, d2, deleted)
		sess := db.NewSession()
		t.Cleanup(func() { sess.Close() })
		if e.tiny {
			for _, stmt := range []string{
				`CREATE RESOURCE POOL cramped MEMORYSIZE '64K' MAXMEMORYSIZE '64K' PLANNEDCONCURRENCY 1`,
				`SET RESOURCE POOL cramped`,
			} {
				if _, err := sess.Execute(stmt); err != nil {
					t.Fatal(err)
				}
			}
		}
		engines = append(engines, fanEngine{name: e.name, sess: sess, tiny: e.tiny})
	}
	queries := fanQueries(rng)
	for _, q := range queries {
		ref, err := engines[0].sess.Execute(q.sql)
		if err != nil {
			t.Fatalf("serial engine: %v\n  %s", err, q.sql)
		}
		want := RenderRows(ref)
		for _, e := range engines[1:] {
			res, err := e.sess.Execute(q.sql)
			if err != nil {
				if e.tiny && q.buildsAll && strings.Contains(err.Error(), "cannot switch to sort-merge") {
					continue // a RIGHT or FULL OUTER build that outgrew the pool: a defined error
				}
				t.Errorf("%s: %v\n  %s", e.name, err, q.sql)
				continue
			}
			if diff := compareFan(RenderRows(res), want, q.ordered); diff != "" {
				t.Errorf("%s disagrees with the serial engine: %s\n  %s", e.name, diff, q.sql)
			}
		}
	}
	// The 64 KiB pool is there for the shared build's switch to sort-merge:
	// make sure the oracle reached it.
	tiny := engines[len(engines)-1]
	res, err := tiny.sess.Execute("PROFILE " + queries[0].sql)
	if err != nil {
		t.Fatal(err)
	}
	if plan := res.Explain.String(); !strings.Contains(plan, "(switched to sort-merge) +sip workers=4") {
		t.Errorf("the shared build in the 64 KiB pool did not switch to sort-merge:\n%s", plan)
	}
}

// fanData generates the fact rows (loaded straight into the ROS in two
// loads), the fact rows left in the WOS, and the two dimensions. d1 keys
// repeat and include NULL; about one fact row in twenty has a NULL k1, and
// some k1 values have no partner.
func fanData(rng *rand.Rand) (fact, wos, d1, d2 []types.Row) {
	nullable := func(v int64, share float64) types.Value {
		if rng.Float64() < share {
			return types.NewNull(types.Int64)
		}
		return types.NewInt(v)
	}
	factRow := func(id int) types.Row {
		return types.Row{
			types.NewInt(int64(id)),
			nullable(int64(rng.Intn(1600)), 0.05),
			types.NewInt(int64(rng.Intn(50))),
			types.NewInt(int64(rng.Intn(20))),
			types.NewFloat(float64(rng.Intn(400)) / 2), // halves: sums are exact in any order
			types.NewString(fmt.Sprintf("s%d", rng.Intn(6))),
		}
	}
	for id := 0; id < 6000; id++ {
		fact = append(fact, factRow(id))
	}
	for id := 6000; id < 6240; id++ {
		wos = append(wos, factRow(id))
	}
	for i := 0; i < 2000; i++ {
		d1 = append(d1, types.Row{nullable(int64(rng.Intn(1500)), 0.002), types.NewString(fmt.Sprintf("n%04d", i))})
	}
	for k := 0; k < 40; k++ {
		d2 = append(d2, types.Row{types.NewInt(int64(k)), types.NewInt(int64(k % 7))})
	}
	return fact, wos, d1, d2
}

// fanSetup creates the schema and loads the data: the fact table in two
// direct loads (a container per local segment each), then WOS inserts and
// a DELETE of the rows whose v is deleted, which reaches both stores.
func fanSetup(t *testing.T, db *core.Database, fact, wos, d1, d2 []types.Row, deleted int) {
	t.Helper()
	for _, stmt := range []string{
		`CREATE TABLE f (id INT, k1 INT, k2 INT, v INT, x FLOAT, s VARCHAR)`,
		`CREATE PROJECTION f_super ON f (id, k1, k2, v, x, s) ORDER BY id SEGMENTED BY HASH(id)`,
		`CREATE TABLE d1 (k INT, name VARCHAR)`,
		`CREATE PROJECTION d1_super ON d1 (k, name) ORDER BY k REPLICATED`,
		`CREATE TABLE d2 (k INT, tag INT)`,
		`CREATE PROJECTION d2_super ON d2 (k, tag) ORDER BY k REPLICATED`,
	} {
		db.MustExecute(stmt)
	}
	half := len(fact) / 2
	for _, load := range []struct {
		table string
		rows  []types.Row
	}{{"f", fact[:half]}, {"f", fact[half:]}, {"d1", d1}, {"d2", d2}} {
		if err := db.Load(load.table, load.rows, true); err != nil {
			t.Fatal(err)
		}
	}
	for lo := 0; lo < len(wos); lo += 60 {
		var vals []string
		for _, r := range wos[lo:min(lo+60, len(wos))] {
			cells := make([]string, len(r))
			for i, v := range r {
				cells[i] = sqlLiteral(v)
			}
			vals = append(vals, "("+strings.Join(cells, ", ")+")")
		}
		db.MustExecute("INSERT INTO f VALUES " + strings.Join(vals, ", "))
	}
	db.MustExecute(fmt.Sprintf("DELETE FROM f WHERE v = %d", deleted))
}

func sqlLiteral(v types.Value) string {
	switch {
	case v.Null:
		return "NULL"
	case v.Typ == types.Varchar:
		return "'" + v.S + "'"
	default:
		return v.String()
	}
}

// fanQuery is one generated statement. ordered queries compare row for
// row; buildsAll marks RIGHT and FULL OUTER joins, whose build may not
// switch to sort-merge.
type fanQuery struct {
	sql                string
	ordered, buildsAll bool
}

func fanQueries(rng *rand.Rand) []fanQuery {
	p := func(n int) int { return rng.Intn(n) }
	const j1 = ` FROM f JOIN d1 ON f.k1 = d1.k`
	qs := []fanQuery{
		// Every join flavor; the first is profiled in the 64 KiB pool.
		{sql: fmt.Sprintf(`SELECT f.id, f.v, d1.name%s WHERE f.v < %d`, j1, 5+p(15))},
		{sql: fmt.Sprintf(`SELECT f.id, d1.name FROM f LEFT JOIN d1 ON f.k1 = d1.k WHERE f.v >= %d`, p(15))},
		{sql: `SELECT f.id, d1.k, d1.name FROM f RIGHT JOIN d1 ON f.k1 = d1.k`, buildsAll: true},
		{sql: `SELECT f.id, d1.name FROM f FULL JOIN d1 ON f.k1 = d1.k`, buildsAll: true},
		{sql: fmt.Sprintf(`SELECT f.id, f.v FROM f SEMI JOIN d1 ON f.k1 = d1.k WHERE f.v < %d`, 5+p(15))},
		{sql: `SELECT f.id, f.k1 FROM f ANTI JOIN d1 ON f.k1 = d1.k`},
		// Aggregates with partial forms: keyed, keyless, joined, a star.
		{sql: fmt.Sprintf(`SELECT s, COUNT(*), COUNT(k1), SUM(v), MIN(x), MAX(x), AVG(x) FROM f WHERE v < %d GROUP BY s`, 5+p(15))},
		{sql: `SELECT k1, COUNT(*), SUM(x) FROM f GROUP BY k1`},
		{sql: fmt.Sprintf(`SELECT COUNT(*), SUM(v), MIN(id), MAX(id), AVG(x) FROM f WHERE id >= %d`, p(6000))},
		{sql: fmt.Sprintf(`SELECT d1.name, COUNT(*), SUM(f.x)%s WHERE f.v < %d GROUP BY d1.name`, j1, 5+p(15))},
		{sql: `SELECT d2.tag, COUNT(*), MIN(f.v), MAX(f.x), AVG(f.x)` + j1 + ` JOIN d2 ON f.k2 = d2.k GROUP BY d2.tag`},
		// Holistic aggregates.
		{sql: `SELECT s, COUNT(DISTINCT k1) FROM f GROUP BY s`},
		{sql: `SELECT d2.tag, COUNT(DISTINCT f.s) FROM f JOIN d2 ON f.k2 = d2.k GROUP BY d2.tag`},
		// DISTINCT.
		{sql: fmt.Sprintf(`SELECT DISTINCT s, v FROM f WHERE id > %d`, p(6000))},
		{sql: `SELECT DISTINCT d2.tag, f.s FROM f JOIN d2 ON f.k2 = d2.k`},
		// ORDER BY … LIMIT, totally ordered (id, and d1 names, are unique).
		{sql: fmt.Sprintf(`SELECT id, v, x FROM f WHERE v >= %d ORDER BY x DESC, id LIMIT %d`, p(10), 1+p(40)), ordered: true},
		{sql: fmt.Sprintf(`SELECT f.id, d1.name%s ORDER BY f.id DESC, d1.name LIMIT %d`, j1, 1+p(60)), ordered: true},
		{sql: fmt.Sprintf(`SELECT s, SUM(v) FROM f GROUP BY s ORDER BY s LIMIT %d`, 1+p(6)), ordered: true},
	}
	return qs
}

// compareFan describes how got differs from want, "" when it does not:
// row for row when ordered, as multisets otherwise.
func compareFan(got, want []string, ordered bool) string {
	if !ordered {
		got, want = append([]string(nil), got...), append([]string(nil), want...)
		sort.Strings(got)
		sort.Strings(want)
	}
	for i := 0; i < max(len(got), len(want)); i++ {
		switch {
		case i >= len(got):
			return fmt.Sprintf("%d rows, want %d; missing %q", len(got), len(want), want[i])
		case i >= len(want):
			return fmt.Sprintf("%d rows, want %d; extra %q", len(got), len(want), got[i])
		case got[i] != want[i]:
			return fmt.Sprintf("row %d is %q, want %q (%d rows, want %d)", i, got[i], want[i], len(got), len(want))
		}
	}
	return ""
}
