package sqltest

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
)

// TestSLTFiles runs every golden file under testdata against a fresh
// engine. Regenerate expectations with:
//
//	go test ./internal/sqltest -run TestSLTFiles -update
func TestSLTFiles(t *testing.T) {
	files, err := filepath.Glob("testdata/*.slt")
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("no .slt files found")
	}
	for _, f := range files {
		t.Run(filepath.Base(f), func(t *testing.T) {
			opts := DefaultOptions(t)
			// parallel.slt pins the intra-node parallel plan shapes: it
			// runs 4-way with the cardinality gate dropped so the tiny
			// fixture still plans them. profile.slt does the same so its
			// PROFILE goldens cover a parallel shape next to serial ones
			// (scans without parallel-eligible operators still plan serial).
			switch filepath.Base(f) {
			case "parallel.slt", "profile.slt":
				opts.Parallelism = 4
				opts.ForceParallel = true
			}
			RunFile(t, f, opts)
		})
	}
}

// TestHarnessRejectsMalformed covers the harness's own parser errors.
func TestHarnessRejectsMalformed(t *testing.T) {
	for _, bad := range []string{
		"statement ok\n",
		"statement error\nSELECT 1 FROM t\n",
		"query\nSELECT 1 FROM t\n",
		"query error\nSELECT 1 FROM t\n",
		"query error boom\n",
		"query error boom\nSELECT 1 FROM t\n----\n1\n",
		"bogus directive\n",
		"session\n",
	} {
		dir := t.TempDir()
		path := filepath.Join(dir, "bad.slt")
		if err := os.WriteFile(path, []byte(bad), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, err := parseFile(path); err == nil {
			t.Errorf("expected parse error for %q", bad)
		}
	}
}

// TestRenderRowsZeroRows: a query matching nothing renders zero lines, not
// its plan text.
func TestRenderRowsZeroRows(t *testing.T) {
	db, err := core.Open(DefaultOptions(t))
	if err != nil {
		t.Fatal(err)
	}
	db.MustExecute(`CREATE TABLE t (a INT)`)
	db.MustExecute(`CREATE PROJECTION t_super ON t (a) ORDER BY a`)
	db.MustExecute(`INSERT INTO t VALUES (1)`)
	if got := renderRows(db.MustExecute(`SELECT a FROM t WHERE a = 99`)); len(got) != 0 {
		t.Fatalf("zero-row result rendered %q", got)
	}
}

// TestSLTParallelDifferential runs every golden file twice — serial and
// 4-way parallel with the planner's cardinality gate dropped — and asserts
// identical results: the parallel-vs-serial equivalence oracle pinned in
// CI. EXPLAIN output and system-table queries are executed on both engines
// but not compared (plans and resource counters legitimately differ
// between the configurations).
func TestSLTParallelDifferential(t *testing.T) {
	files, err := filepath.Glob("testdata/*.slt")
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("no .slt files found")
	}
	skip := func(sql string) bool {
		u := strings.ToUpper(strings.TrimSpace(sql))
		return strings.HasPrefix(u, "EXPLAIN") ||
			strings.HasPrefix(u, "PROFILE") ||
			strings.Contains(u, "V_MONITOR.") ||
			strings.Contains(u, "V_CATALOG.")
	}
	for _, f := range files {
		t.Run(filepath.Base(f), func(t *testing.T) {
			serial := DefaultOptions(t)
			parallel := DefaultOptions(t)
			parallel.Parallelism = 4
			parallel.ForceParallel = true
			// Profiling on both sides: the equivalence oracle doubles as the
			// proof that operator timing never perturbs results.
			serial.Profile = true
			parallel.Profile = true
			RunFileDifferential(t, f, serial, parallel, skip)
		})
	}
}
