// Ternary Logic Partitioning (TLP) metamorphic oracle (Rigger & Su, OSDI
// 2020), composed with the parallel-vs-serial differential oracle: for a
// generated predicate p over table t, SQL's three-valued logic guarantees
//
//	SELECT cols FROM t
//	  ≡(multiset)
//	SELECT cols FROM t WHERE p
//	  ∪ SELECT cols FROM t WHERE NOT (p)
//	  ∪ SELECT cols FROM t WHERE (p) IS NULL
//
// because every row makes p evaluate to exactly one of TRUE / FALSE / NULL.
// No expected output is needed — the database is its own oracle — so the
// check exercises predicate evaluation, NULL handling, scan pruning and
// delete-vector filtering far beyond what hand-written goldens cover.
// Every partition query additionally runs on a serial AND a parallel
// (Parallelism=4, ForceParallel) engine and must agree as a multiset, so
// each generated query is simultaneously a TLP and a differential probe.
// A third, NoREC-style axis re-runs it on the serial engine with the scan's
// sort-key seek switched off (exec.ScanProbe, a test-only seam): the same
// predicate answered by binary search and by the selection kernels must
// select the same rows. Two thirds into the setup the tuple mover runs on
// both engines, so the tables the queries read sit partly in sorted ROS
// containers — where a seek can happen — and partly in the WOS.
package sqltest

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/types"
)

// TLPConfig configures one metamorphic run.
type TLPConfig struct {
	// Seed fully determines the generated query stream (given the same
	// Setup); failures print it so runs are reproducible.
	Seed int64
	// Predicates is how many random predicates to generate. Each predicate
	// drives one rowset TLP check plus an alternating aggregate or DISTINCT
	// form (4 + ~4 executed queries, each on both engines).
	Predicates int
	// Setup statements are replayed into both engines before generation
	// (typically the `statement` records of an .slt file). Statements on
	// which both engines fail identically are skipped, so error-exercising
	// setup lines are harmless.
	Setup []string
}

// TLPStats reports what a run executed.
type TLPStats struct {
	Predicates int // predicates generated
	Queries    int // generated SELECTs executed (each ran on both engines)
}

// ParallelOptions is the engine configuration the differential side runs
// under: intra-node parallelism with the planner's cardinality gate dropped
// so tiny test tables still take parallel plans.
func ParallelOptions(t *testing.T) core.Options {
	opts := DefaultOptions(t)
	opts.Parallelism = 4
	opts.ForceParallel = true
	return opts
}

// RunTLP replays cfg.Setup into a serial and a parallel engine, profiles
// the resulting tables, and checks cfg.Predicates generated predicates
// under the TLP identities. Violations are reported with the seed, the
// partition SQL, and a reproduction command.
func RunTLP(t *testing.T, cfg TLPConfig) TLPStats {
	t.Helper()
	serial, err := core.Open(DefaultOptions(t))
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := core.Open(ParallelOptions(t))
	if err != nil {
		t.Fatal(err)
	}
	for i, stmt := range cfg.Setup {
		_, errA := serial.Execute(stmt)
		_, errB := parallel.Execute(stmt)
		if (errA == nil) != (errB == nil) {
			t.Fatalf("TLP setup diverged: serial err=%v, parallel err=%v\n  %s", errA, errB, stmt)
		}
		if i == len(cfg.Setup)*2/3 {
			for _, db := range []*core.Database{serial, parallel} {
				if _, _, err := db.RunTupleMover(); err != nil {
					t.Fatalf("TLP setup: tuple mover: %v", err)
				}
			}
		}
	}
	profiles := ProfileTables(t, serial)
	if len(profiles) == 0 {
		t.Skip("no non-empty tables to generate over")
	}
	run := &tlpRun{t: t, serial: serial, parallel: parallel, seed: cfg.Seed}
	g := NewQGen(cfg.Seed, profiles)
	for i := 0; i < cfg.Predicates; i++ {
		tp, pred := g.NextPredicate()
		run.checkRowset(i, tp, pred)
		if i%2 == 0 {
			run.checkAggregate(i, tp, pred)
		} else {
			run.checkDistinct(i, tp, pred, g)
		}
	}
	// Predicates a scan can seek on: a comparison or a range on the leading
	// sort column of the table's super projection, alone or ANDed with a
	// generated predicate. Drawn after the main stream, which they leave as
	// it was.
	for i := 0; i < cfg.Predicates/2; i++ {
		tp := profiles[g.rng.Intn(len(profiles))]
		proj, err := serial.Catalog().SuperProjection(tp.Name)
		if err != nil || len(proj.SortOrder) == 0 {
			continue
		}
		pred := g.sortKeyPredicate(tp, proj.SortOrder[0])
		run.checkRowset(cfg.Predicates+i, tp, pred)
		run.checkAggregate(cfg.Predicates+i, tp, pred)
	}
	return TLPStats{Predicates: cfg.Predicates, Queries: run.queries}
}

// ProfileTables samples every non-empty catalog table through db, building
// the generator's column profiles (up to 8 distinct non-NULL literals per
// column, drawn from the table's actual data).
func ProfileTables(t *testing.T, db *core.Database) []TableProfile {
	t.Helper()
	var out []TableProfile
	for _, tab := range db.Catalog().Tables() {
		cols := tab.Schema.Cols
		names := make([]string, len(cols))
		for i, c := range cols {
			names[i] = c.Name
		}
		res, err := db.Execute(fmt.Sprintf("SELECT %s FROM %s", strings.Join(names, ", "), tab.Name))
		if err != nil || len(res.Rows) == 0 {
			continue
		}
		tp := TableProfile{Name: tab.Name}
		for i, c := range cols {
			cp := ColProfile{Name: c.Name, Typ: c.Typ}
			seen := map[string]bool{}
			for _, row := range res.Rows {
				if len(cp.Samples) >= 8 {
					break
				}
				lit, ok := SampleLiteral(row[i])
				if ok && !seen[lit] {
					seen[lit] = true
					cp.Samples = append(cp.Samples, lit)
				}
			}
			tp.Cols = append(tp.Cols, cp)
		}
		out = append(out, tp)
	}
	return out
}

// tlpRun holds the two engines and failure context for one RunTLP call.
type tlpRun struct {
	t        *testing.T
	serial   *core.Database
	parallel *core.Database
	seed     int64
	queries  int
}

func (r *tlpRun) repro() string {
	return fmt.Sprintf("reproduce: go test ./internal/sqltest -run TestTLPMetamorphic -tlp.seed=%d", r.seed)
}

// rows executes one generated query on both engines, requires both to
// succeed with multiset-identical results, and returns the sorted rendered
// rows. A generated query erroring at all is itself a finding.
func (r *tlpRun) rows(idx int, sql string) ([]string, bool) {
	r.t.Helper()
	r.queries++
	resA, errA := r.serial.Execute(sql)
	resB, errB := r.parallel.Execute(sql)
	if errA != nil || errB != nil {
		r.t.Errorf("TLP query error (seed=%d, predicate #%d): serial=%v, parallel=%v\n  %s\n%s",
			r.seed, idx, errA, errB, sql, r.repro())
		return nil, false
	}
	exec.SetScanProbe(&exec.ScanProbe{NoSeek: true})
	resC, errC := r.serial.Execute(sql)
	exec.SetScanProbe(nil)
	if errC != nil {
		r.t.Errorf("TLP query error with seek off (seed=%d, predicate #%d): %v\n  %s\n%s", r.seed, idx, errC, sql, r.repro())
		return nil, false
	}
	var got [3][]string
	for i, res := range []*core.Result{resA, resB, resC} {
		got[i] = renderRows(res)
		sort.Strings(got[i])
	}
	for i, axis := range []string{"parallel-vs-serial", "seek-vs-kernel"} {
		if a, b := strings.Join(got[0], "\n  "), strings.Join(got[i+1], "\n  "); a != b {
			r.t.Errorf("%s divergence (seed=%d, predicate #%d):\n  %s\nserial:\n  %s\nother:\n  %s\n%s",
				axis, r.seed, idx, sql, a, b, r.repro())
			return nil, false
		}
	}
	return got[0], true
}

// partitionSQL renders the unpartitioned query and its three TLP partitions.
func partitionSQL(base, pred string) (all, p, notP, nullP string) {
	return base,
		base + " WHERE " + pred,
		base + " WHERE NOT (" + pred + ")",
		base + " WHERE (" + pred + ") IS NULL"
}

func (r *tlpRun) checkRowset(idx int, tp TableProfile, pred string) {
	r.t.Helper()
	names := make([]string, len(tp.Cols))
	for i, c := range tp.Cols {
		names[i] = c.Name
	}
	base := fmt.Sprintf("SELECT %s FROM %s", strings.Join(names, ", "), tp.Name)
	all, p, notP, nullP := partitionSQL(base, pred)
	rowsAll, ok1 := r.rows(idx, all)
	rowsP, ok2 := r.rows(idx, p)
	rowsN, ok3 := r.rows(idx, notP)
	rowsNull, ok4 := r.rows(idx, nullP)
	if !(ok1 && ok2 && ok3 && ok4) {
		return
	}
	if err := CheckTLP(rowsAll, rowsP, rowsN, rowsNull); err != nil {
		r.t.Errorf("TLP rowset violation (seed=%d, predicate #%d): %v\n  %s\n  %s\n  %s\n  %s\n%s",
			r.seed, idx, err, all, p, notP, nullP, r.repro())
	}
}

func (r *tlpRun) checkAggregate(idx int, tp TableProfile, pred string) {
	r.t.Helper()
	// COUNT(*) always; SUM over the first integer column when there is one.
	agg := "COUNT(*)"
	sumCol := ""
	for _, c := range tp.Cols {
		if c.Typ == types.Int64 {
			sumCol = c.Name
			break
		}
	}
	if sumCol != "" {
		agg += ", SUM(" + sumCol + ")"
	}
	base := fmt.Sprintf("SELECT %s FROM %s", agg, tp.Name)
	all, p, notP, nullP := partitionSQL(base, pred)
	rowsAll, ok1 := r.rows(idx, all)
	rowsP, ok2 := r.rows(idx, p)
	rowsN, ok3 := r.rows(idx, notP)
	rowsNull, ok4 := r.rows(idx, nullP)
	if !(ok1 && ok2 && ok3 && ok4) {
		return
	}
	if err := CheckTLPAggregate(rowsAll, rowsP, rowsN, rowsNull); err != nil {
		r.t.Errorf("TLP aggregate violation (seed=%d, predicate #%d): %v\n  %s\n  %s\n  %s\n  %s\n%s",
			r.seed, idx, err, all, p, notP, nullP, r.repro())
	}
}

func (r *tlpRun) checkDistinct(idx int, tp TableProfile, pred string, g *QGen) {
	r.t.Helper()
	c := tp.Cols[g.rng.Intn(len(tp.Cols))]
	base := fmt.Sprintf("SELECT DISTINCT %s FROM %s", c.Name, tp.Name)
	all, p, notP, nullP := partitionSQL(base, pred)
	rowsAll, ok1 := r.rows(idx, all)
	rowsP, ok2 := r.rows(idx, p)
	rowsN, ok3 := r.rows(idx, notP)
	rowsNull, ok4 := r.rows(idx, nullP)
	if !(ok1 && ok2 && ok3 && ok4) {
		return
	}
	if err := CheckTLPDistinct(rowsAll, rowsP, rowsN, rowsNull); err != nil {
		r.t.Errorf("TLP DISTINCT violation (seed=%d, predicate #%d): %v\n  %s\n  %s\n  %s\n  %s\n%s",
			r.seed, idx, err, all, p, notP, nullP, r.repro())
	}
}

// CheckTLP asserts the rowset TLP identity: the unpartitioned result must
// equal the multiset union of the partition results. Inputs are rendered
// row lines; order is irrelevant.
func CheckTLP(all []string, partitions ...[]string) error {
	var union []string
	for _, p := range partitions {
		union = append(union, p...)
	}
	a := append([]string(nil), all...)
	sort.Strings(a)
	sort.Strings(union)
	if len(a) != len(union) {
		return fmt.Errorf("row count: unpartitioned=%d, partitions sum=%d", len(a), len(union))
	}
	for i := range a {
		if a[i] != union[i] {
			return fmt.Errorf("multiset mismatch at sorted row %d: unpartitioned has %q, partitions have %q", i, a[i], union[i])
		}
	}
	return nil
}

// CheckTLPDistinct asserts the DISTINCT TLP identity: the unpartitioned
// distinct values must equal the set union of the partitions' distinct
// values (a value may appear in several partitions).
func CheckTLPDistinct(all []string, partitions ...[]string) error {
	union := map[string]bool{}
	for _, p := range partitions {
		for _, row := range p {
			union[row] = true
		}
	}
	set := map[string]bool{}
	for _, row := range all {
		set[row] = true
	}
	for row := range set {
		if !union[row] {
			return fmt.Errorf("value %q in unpartitioned DISTINCT but in no partition", row)
		}
	}
	for row := range union {
		if !set[row] {
			return fmt.Errorf("value %q in a partition's DISTINCT but not unpartitioned", row)
		}
	}
	return nil
}

// CheckTLPAggregate asserts the aggregate TLP identity for single-row
// results of the form "COUNT|SUM" (or just "COUNT"): each aggregate cell of
// the unpartitioned query must equal the sum of the partitions' cells, with
// a NULL SUM (empty partition) contributing 0.
func CheckTLPAggregate(all []string, partitions ...[]string) error {
	allCells, err := aggCells(all)
	if err != nil {
		return err
	}
	sums := make([]float64, len(allCells))
	for _, p := range partitions {
		cells, err := aggCells(p)
		if err != nil {
			return err
		}
		if len(cells) != len(allCells) {
			return fmt.Errorf("aggregate arity mismatch: %d vs %d", len(cells), len(allCells))
		}
		for i, v := range cells {
			sums[i] += v
		}
	}
	for i, v := range allCells {
		if v != sums[i] {
			return fmt.Errorf("aggregate %d: unpartitioned=%v, partitions sum=%v", i, v, sums[i])
		}
	}
	return nil
}

// aggCells parses a one-row aggregate result into numeric cells, mapping a
// NULL cell (SUM over an empty partition) to 0.
func aggCells(rows []string) ([]float64, error) {
	if len(rows) != 1 {
		return nil, fmt.Errorf("aggregate query returned %d rows, want 1", len(rows))
	}
	parts := strings.Split(rows[0], "|")
	out := make([]float64, len(parts))
	for i, p := range parts {
		if p == "NULL" {
			out[i] = 0
			continue
		}
		v, err := strconv.ParseFloat(p, 64)
		if err != nil {
			return nil, fmt.Errorf("aggregate cell %q is not numeric: %v", p, err)
		}
		out[i] = v
	}
	return out, nil
}
