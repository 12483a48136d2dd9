// Package sqltest is a table-driven SQL logic-test harness in the spirit of
// sqllogictest, applied to this engine as the VDBMS testing roadmap
// (Wang et al., arXiv:2502.20812) prescribes for young engines: golden
// `.slt` files of statement/query/expected-rows triples run against a fresh
// in-memory database, with `-update` regeneration of expectations.
//
// File format (testdata/*.slt), records separated by blank lines:
//
//	# comment                     anywhere; kept verbatim on -update
//
//	statement ok                  the SQL (following lines) must succeed
//	CREATE TABLE t (a INT)
//
//	statement error <substring>   the SQL must fail; the error must contain
//	SELECT * FROM nope            the (case-insensitive) substring
//
//	query                         run the SELECT; compare rendered rows
//	SELECT a FROM t ORDER BY a
//	----
//	1|x                           one line per row, columns joined by '|'
//	2|y
//
//	query error <substring>       the SELECT must fail; the error must
//	SELECT nope FROM t            contain the (case-insensitive) substring.
//	                              No ---- block — there are no rows.
//
//	session <name>                switch the current session (created on
//	                              first use; "main" is the default)
//
// Rows render NULL as "NULL", timestamps as "2006-01-02 15:04:05". Use
// ORDER BY (or single-row aggregates) to keep expectations deterministic.
package sqltest

import (
	"flag"
	"fmt"
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/types"
)

var update = flag.Bool("update", false, "rewrite .slt query expectations from actual engine output")

// record is one parsed directive.
type record struct {
	kind     string // "statement" | "query" | "session"
	arg      string // "ok" / error substring / session name
	sql      string
	expected []string
	line     int // 1-based line of the directive
	expStart int // line index (0-based) where the expected block starts
	expEnd   int // one past the last expected line
}

// parseFile splits an .slt file into records, retaining line spans so
// -update can splice regenerated expectations back in.
func parseFile(path string) ([]string, []*record, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	lines := strings.Split(strings.ReplaceAll(string(raw), "\r\n", "\n"), "\n")
	var recs []*record
	i := 0
	for i < len(lines) {
		line := strings.TrimSpace(lines[i])
		switch {
		case line == "" || strings.HasPrefix(line, "#"):
			i++
		case line == "statement ok" || strings.HasPrefix(line, "statement error"):
			r := &record{kind: "statement", arg: "ok", line: i + 1}
			if strings.HasPrefix(line, "statement error") {
				r.arg = strings.TrimSpace(strings.TrimPrefix(line, "statement error"))
				if r.arg == "" {
					return nil, nil, fmt.Errorf("%s:%d: statement error needs a substring", path, i+1)
				}
			}
			i++
			var sqlLines []string
			for i < len(lines) && strings.TrimSpace(lines[i]) != "" {
				sqlLines = append(sqlLines, lines[i])
				i++
			}
			if len(sqlLines) == 0 {
				return nil, nil, fmt.Errorf("%s:%d: statement without SQL", path, r.line)
			}
			r.sql = strings.Join(sqlLines, "\n")
			recs = append(recs, r)
		case strings.HasPrefix(line, "query error"):
			r := &record{kind: "query", line: i + 1}
			r.arg = strings.TrimSpace(strings.TrimPrefix(line, "query error"))
			if r.arg == "" {
				return nil, nil, fmt.Errorf("%s:%d: query error needs a substring", path, i+1)
			}
			i++
			var sqlLines []string
			for i < len(lines) && strings.TrimSpace(lines[i]) != "" {
				if strings.TrimSpace(lines[i]) == "----" {
					return nil, nil, fmt.Errorf("%s:%d: query error takes no ---- block", path, r.line)
				}
				sqlLines = append(sqlLines, lines[i])
				i++
			}
			if len(sqlLines) == 0 {
				return nil, nil, fmt.Errorf("%s:%d: query error without SQL", path, r.line)
			}
			r.sql = strings.Join(sqlLines, "\n")
			recs = append(recs, r)
		case line == "query":
			r := &record{kind: "query", line: i + 1}
			i++
			var sqlLines []string
			for i < len(lines) && strings.TrimSpace(lines[i]) != "----" {
				if strings.TrimSpace(lines[i]) == "" {
					return nil, nil, fmt.Errorf("%s:%d: query needs a ---- separator", path, r.line)
				}
				sqlLines = append(sqlLines, lines[i])
				i++
			}
			if i >= len(lines) {
				return nil, nil, fmt.Errorf("%s:%d: query needs a ---- separator", path, r.line)
			}
			r.sql = strings.Join(sqlLines, "\n")
			i++ // skip ----
			r.expStart = i
			for i < len(lines) && strings.TrimSpace(lines[i]) != "" {
				r.expected = append(r.expected, lines[i])
				i++
			}
			r.expEnd = i
			recs = append(recs, r)
		case strings.HasPrefix(line, "session"):
			name := strings.TrimSpace(strings.TrimPrefix(line, "session"))
			if name == "" {
				return nil, nil, fmt.Errorf("%s:%d: session needs a name", path, i+1)
			}
			recs = append(recs, &record{kind: "session", arg: name, line: i + 1})
			i++
		default:
			return nil, nil, fmt.Errorf("%s:%d: unknown directive %q", path, i+1, line)
		}
	}
	return lines, recs, nil
}

// durTokens matches PROFILE's wall-clock annotations. Goldens strip them:
// the tokens are timing-dependent in value AND presence (a sub-microsecond
// operator renders no time= at all), so neither can be pinned.
var durTokens = regexp.MustCompile(` (?:time|blocked)=[0-9.]+ms`)

// renderRows renders a result set one line per row, columns joined by '|'.
// EXPLAIN and PROFILE statements produce plan text instead of rows (they
// are the only SELECT results without a schema); it renders one line per
// plan line so goldens can pin projection choices, row estimates, and —
// for PROFILE — actual-row/batch counters, with duration tokens stripped.
// An ordinary query with zero matching rows still renders as zero lines.
func renderRows(res *core.Result) []string {
	if plan := res.Explain.String(); res.Schema == nil && plan != "" {
		text := durTokens.ReplaceAllString(strings.TrimRight(plan, "\n"), "")
		return strings.Split(text, "\n")
	}
	out := make([]string, 0, len(res.Rows))
	for _, row := range res.Rows {
		cells := make([]string, len(row))
		for i, v := range row {
			cells[i] = v.String()
		}
		out = append(out, strings.Join(cells, "|"))
	}
	return out
}

// RenderRows renders a result for comparison — one line per row, columns
// joined by '|'. Exported for harnesses outside the package (the
// continuous-ingest scenario driver) that reuse the TLP multiset checks.
func RenderRows(res *core.Result) []string { return renderRows(res) }

// DefaultOptions is the engine configuration .slt files run under: small
// in-memory-style database, governed, single node.
func DefaultOptions(t *testing.T) core.Options {
	return core.Options{
		Dir:          t.TempDir(),
		TempDir:      t.TempDir(),
		MemPoolBytes: 64 << 20,
	}
}

// RunFile executes one .slt file against a fresh database. With -update,
// query expectations are regenerated from the engine's actual output and the
// file is rewritten.
func RunFile(t *testing.T, path string, opts core.Options) {
	t.Helper()
	lines, recs, err := parseFile(path)
	if err != nil {
		t.Fatal(err)
	}
	db, err := core.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	sessions := map[string]*core.Session{}
	t.Cleanup(func() {
		for _, s := range sessions {
			s.Close()
		}
	})
	sess := func(name string) *core.Session {
		if s, ok := sessions[name]; ok {
			return s
		}
		s := db.NewSession()
		sessions[name] = s
		return s
	}
	cur := "main"

	type patch struct {
		start, end int
		repl       []string
	}
	var patches []patch
	failed := false
	for _, r := range recs {
		switch r.kind {
		case "session":
			cur = r.arg
			sess(cur)
		case "statement":
			res, err := sess(cur).Execute(r.sql)
			_ = res
			if r.arg == "ok" {
				if err != nil {
					t.Errorf("%s:%d: statement failed: %v\n  %s", path, r.line, err, r.sql)
					failed = true
				}
				continue
			}
			if err == nil {
				t.Errorf("%s:%d: statement succeeded, want error containing %q\n  %s", path, r.line, r.arg, r.sql)
				failed = true
			} else if !strings.Contains(strings.ToLower(err.Error()), strings.ToLower(r.arg)) {
				t.Errorf("%s:%d: error %q does not contain %q", path, r.line, err, r.arg)
				failed = true
			}
		case "query":
			res, err := sess(cur).Execute(r.sql)
			if r.arg != "" {
				if err == nil {
					t.Errorf("%s:%d: query succeeded, want error containing %q\n  %s", path, r.line, r.arg, r.sql)
					failed = true
				} else if !strings.Contains(strings.ToLower(err.Error()), strings.ToLower(r.arg)) {
					t.Errorf("%s:%d: error %q does not contain %q", path, r.line, err, r.arg)
					failed = true
				}
				continue
			}
			if err != nil {
				t.Errorf("%s:%d: query failed: %v\n  %s", path, r.line, err, r.sql)
				failed = true
				continue
			}
			got := renderRows(res)
			if *update {
				patches = append(patches, patch{r.expStart, r.expEnd, got})
				continue
			}
			if strings.Join(got, "\n") != strings.Join(r.expected, "\n") {
				t.Errorf("%s:%d: query mismatch\n  %s\ngot:\n  %s\nwant:\n  %s",
					path, r.line, r.sql,
					strings.Join(got, "\n  "), strings.Join(r.expected, "\n  "))
				failed = true
			}
		}
	}
	if *update && !failed {
		// Apply patches back-to-front so earlier spans stay valid.
		out := append([]string{}, lines...)
		for i := len(patches) - 1; i >= 0; i-- {
			p := patches[i]
			out = append(out[:p.start], append(append([]string{}, p.repl...), out[p.end:]...)...)
		}
		if err := os.WriteFile(path, []byte(strings.Join(out, "\n")), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("updated %s", path)
	}
}

// RunFileDifferential executes one .slt file against two engine
// configurations in lockstep and asserts every query returns identical
// results — the self-checking parallel-vs-serial oracle the VDBMS testing
// roadmap recommends: the serial plan is the reference semantics, the
// parallel plan must be observationally equivalent. Statements must agree
// on success vs failure (error text may differ); queries the skip predicate
// accepts (EXPLAIN output, system tables whose counters depend on the
// configuration) are executed on both engines but not compared. Queries
// without an ORDER BY compare as sorted multisets, since parallel plans may
// legitimately reorder unordered results.
//
// Golden-authoring constraint: float aggregates must use exactly
// representable data (x.5-style values) — parallel aggregation
// re-associates SUM/AVG, and results here compare as full-precision
// rendered strings, so a non-representable sum can differ in the last ulp
// between configurations.
func RunFileDifferential(t *testing.T, path string, optsA, optsB core.Options, skip func(sql string) bool) {
	t.Helper()
	_, recs, err := parseFile(path)
	if err != nil {
		t.Fatal(err)
	}
	open := func(opts core.Options) (*core.Database, map[string]*core.Session) {
		db, err := core.Open(opts)
		if err != nil {
			t.Fatal(err)
		}
		return db, map[string]*core.Session{}
	}
	dbA, sessA := open(optsA)
	dbB, sessB := open(optsB)
	t.Cleanup(func() {
		for _, s := range sessA {
			s.Close()
		}
		for _, s := range sessB {
			s.Close()
		}
	})
	sess := func(db *core.Database, m map[string]*core.Session, name string) *core.Session {
		if s, ok := m[name]; ok {
			return s
		}
		s := db.NewSession()
		m[name] = s
		return s
	}
	cur := "main"
	for _, r := range recs {
		switch r.kind {
		case "session":
			cur = r.arg
			sess(dbA, sessA, cur)
			sess(dbB, sessB, cur)
		case "statement":
			_, errA := sess(dbA, sessA, cur).Execute(r.sql)
			_, errB := sess(dbB, sessB, cur).Execute(r.sql)
			if (errA == nil) != (errB == nil) {
				t.Errorf("%s:%d: statement diverged: A err=%v, B err=%v\n  %s",
					path, r.line, errA, errB, r.sql)
			}
		case "query":
			resA, errA := sess(dbA, sessA, cur).Execute(r.sql)
			resB, errB := sess(dbB, sessB, cur).Execute(r.sql)
			if (errA == nil) != (errB == nil) {
				t.Errorf("%s:%d: query diverged: A err=%v, B err=%v\n  %s",
					path, r.line, errA, errB, r.sql)
				continue
			}
			if r.arg != "" {
				// query error: both engines must fail with the substring.
				for side, err := range map[string]error{"A": errA, "B": errB} {
					if err == nil {
						t.Errorf("%s:%d: %s: query succeeded, want error containing %q\n  %s",
							path, r.line, side, r.arg, r.sql)
					} else if !strings.Contains(strings.ToLower(err.Error()), strings.ToLower(r.arg)) {
						t.Errorf("%s:%d: %s: error %q does not contain %q", path, r.line, side, err, r.arg)
					}
				}
				continue
			}
			if errA != nil || (skip != nil && skip(r.sql)) {
				continue
			}
			gotA, gotB := renderRows(resA), renderRows(resB)
			ordered := strings.Contains(strings.ToUpper(r.sql), "ORDER BY")
			if ordered && strings.Join(gotA, "\n") == strings.Join(gotB, "\n") {
				continue
			}
			// Unordered queries compare as multisets; so do ORDER BY
			// queries whose exact order differs — SQL leaves tie order
			// unspecified and serial vs parallel plans may break ties
			// differently. (That an ordered result IS globally ordered is
			// pinned separately: the .slt goldens run exact-match per
			// config, and the optimizer's parallel-sort tests check
			// order.)
			sort.Strings(gotA)
			sort.Strings(gotB)
			if strings.Join(gotA, "\n") != strings.Join(gotB, "\n") {
				t.Errorf("%s:%d: result diverged\n  %s\nA:\n  %s\nB:\n  %s",
					path, r.line, r.sql,
					strings.Join(gotA, "\n  "), strings.Join(gotB, "\n  "))
			}
		}
	}
}

// Rows builds test rows (helper for seeding programmatically in harness
// tests).
func Rows(vals ...[]types.Value) []types.Row {
	out := make([]types.Row, len(vals))
	for i, v := range vals {
		out[i] = types.Row(v)
	}
	return out
}
