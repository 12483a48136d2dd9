package sqltest

import (
	"flag"
	"path/filepath"
	"testing"

	"repro/internal/types"
)

var (
	tlpSeed       = flag.Int64("tlp.seed", 20120827, "seed for the TLP metamorphic query generator")
	tlpPredicates = flag.Int("tlp.queries", 16, "generated predicates per schema")
)

// TestTLPMetamorphic runs the TLP oracle over every .slt schema plus the
// generated mixed-type table. Each generated predicate produces a rowset
// check and an alternating aggregate/DISTINCT check, and every query runs
// on both a serial and a parallel engine — so a single run is a TLP oracle
// and a differential oracle at once. Failures print the seed and the exact
// partition SQL; re-run with -tlp.seed=<seed> to reproduce.
func TestTLPMetamorphic(t *testing.T) { tlpMetamorphic(t) }

// TestTLPPoisoned is the TLP run with every block a scan gives up scribbled
// over and decoded into again (poisonBlocks).
func TestTLPPoisoned(t *testing.T) {
	poisonBlocks(t, poisonBudget)
	tlpMetamorphic(t)
}

func tlpMetamorphic(t *testing.T) {
	files, err := filepath.Glob("testdata/*.slt")
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("no .slt files found")
	}
	total := 0
	for _, f := range files {
		f := f
		t.Run(filepath.Base(f), func(t *testing.T) {
			st := RunTLP(t, TLPConfig{
				Seed:       *tlpSeed,
				Predicates: *tlpPredicates,
				Setup:      sltStatements(t, f),
			})
			total += st.Queries
		})
	}
	t.Run("generated", func(t *testing.T) {
		st := RunTLP(t, TLPConfig{
			Seed:       *tlpSeed,
			Predicates: *tlpPredicates * 2,
			Setup:      GeneratedTLPSetup(*tlpSeed, 200),
		})
		total += st.Queries
	})
	if total < 500 {
		t.Errorf("TLP executed %d generated queries, want >= 500 (raise -tlp.queries)", total)
	}
	t.Logf("TLP executed %d generated queries (seed=%d)", total, *tlpSeed)
}

// sltStatements extracts an .slt file's statement records for setup replay.
// `statement error` records are included: both engines fail on them
// identically, which RunTLP tolerates.
func sltStatements(t *testing.T, path string) []string {
	t.Helper()
	_, recs, err := parseFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, r := range recs {
		if r.kind == "statement" {
			out = append(out, r.sql)
		}
	}
	return out
}

// TestTLPSelfCheck corrupts partition results on purpose and asserts every
// CheckTLP* variant catches it — guarding against an oracle that silently
// passes everything.
func TestTLPSelfCheck(t *testing.T) {
	all := []string{"1|x", "2|y", "2|y", "3|NULL"}
	p := []string{"1|x"}
	n := []string{"2|y", "2|y"}
	nl := []string{"3|NULL"}
	if err := CheckTLP(all, p, n, nl); err != nil {
		t.Fatalf("CheckTLP rejected a correct partitioning: %v", err)
	}
	if err := CheckTLP(all, p, []string{"2|y"}, nl); err == nil {
		t.Error("CheckTLP missed a dropped row")
	}
	if err := CheckTLP(all, p, n, []string{"3|NULL", "9|z"}); err == nil {
		t.Error("CheckTLP missed an extra row")
	}
	if err := CheckTLP(all, p, []string{"2|y", "2|z"}, nl); err == nil {
		t.Error("CheckTLP missed a mutated row")
	}

	if err := CheckTLPDistinct([]string{"a", "b"}, []string{"a"}, []string{"b", "a"}, nil); err != nil {
		t.Fatalf("CheckTLPDistinct rejected a correct partitioning: %v", err)
	}
	if err := CheckTLPDistinct([]string{"a", "b"}, []string{"a"}, nil, nil); err == nil {
		t.Error("CheckTLPDistinct missed a missing value")
	}
	if err := CheckTLPDistinct([]string{"a"}, []string{"a"}, []string{"b"}, nil); err == nil {
		t.Error("CheckTLPDistinct missed a spurious value")
	}

	ok := []string{"4|10"}
	if err := CheckTLPAggregate(ok, []string{"2|6"}, []string{"1|4"}, []string{"1|NULL"}); err != nil {
		t.Fatalf("CheckTLPAggregate rejected a correct partitioning: %v", err)
	}
	if err := CheckTLPAggregate(ok, []string{"2|6"}, []string{"1|5"}, []string{"1|NULL"}); err == nil {
		t.Error("CheckTLPAggregate missed a wrong SUM")
	}
	if err := CheckTLPAggregate(ok, []string{"1|6"}, []string{"1|4"}, []string{"1|NULL"}); err == nil {
		t.Error("CheckTLPAggregate missed a wrong COUNT")
	}
	if err := CheckTLPAggregate([]string{}, []string{"1|1"}, []string{"0|NULL"}, []string{"0|NULL"}); err == nil {
		t.Error("CheckTLPAggregate accepted a zero-row aggregate result")
	}
}

// TestQGenDeterminism pins that the generator is a pure function of its
// seed — the property the reproduce-by-seed workflow relies on.
func TestQGenDeterminism(t *testing.T) {
	prof := []TableProfile{{
		Name: "t",
		Cols: []ColProfile{
			{Name: "a", Typ: types.Int64, Samples: []string{"1", "2", "3"}},
			{Name: "b", Typ: types.Varchar, Samples: []string{"'x'", "'y'"}},
			{Name: "c", Typ: types.Float64},
		},
	}}
	gen := func(seed int64) []string {
		g := NewQGen(seed, prof)
		out := make([]string, 20)
		for i := range out {
			_, out[i] = g.NextPredicate()
		}
		return out
	}
	a, b := gen(42), gen(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at predicate %d:\n  %s\n  %s", i, a[i], b[i])
		}
	}
	c := gen(43)
	same := 0
	for i := range a {
		if a[i] == c[i] {
			same++
		}
	}
	if same == len(a) {
		t.Error("different seeds produced an identical predicate stream")
	}
}
