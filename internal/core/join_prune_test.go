package core

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/exec"
	"repro/internal/types"
)

// Flat columns of the star's joined row f ++ a ++ b, as the references
// below index it.
const (
	fID, fKA, fKB, fAmt, fTag = 0, 1, 2, 3, 4
	aID, aName, aGrp, aVal    = 5, 6, 7, 8
	bID, bName, bGrp          = 9, 10, 11
)

// starData is a fact f and two dimensions: a, whose build outgrows a 64 KiB
// pool, with duplicate, missing and NULL keys, and a small b. About one
// fact row in twenty has a NULL key into a.
func starData() (f, a, b []types.Row) {
	rng := rand.New(rand.NewSource(41))
	maybe := func(v int64, nullShare float64) types.Value {
		if rng.Float64() < nullShare {
			return types.NewNull(types.Int64)
		}
		return types.NewInt(v)
	}
	for i := range 4000 {
		f = append(f, types.Row{types.NewInt(int64(i)), maybe(int64(rng.Intn(2600)), 0.05),
			types.NewInt(int64(rng.Intn(40))), types.NewInt(int64(rng.Intn(100))),
			types.NewString([]string{"x", "y", "z"}[rng.Intn(3)])})
	}
	for i := range 2400 {
		id := int64(i)
		if i%7 == 0 {
			id = int64(rng.Intn(2400)) // a duplicate, and a key left out
		}
		a = append(a, types.Row{maybe(id, 0.01), types.NewString(fmt.Sprintf("a%d", i)),
			types.NewInt(int64(i % 5)), maybe(int64(rng.Intn(100)), 0.1)})
	}
	for i := range 40 {
		b = append(b, types.Row{types.NewInt(int64(i)), types.NewString(fmt.Sprintf("b%d", i)), types.NewInt(int64(i % 4))})
	}
	return f, a, b
}

// nestedJoin is the reference join: every pair of rows whose keys are equal
// and not NULL, as l ++ r, then the outer rows of the flavour padded with
// NULLs; SEMI and ANTI give rows of l.
func nestedJoin(typ exec.JoinType, l, r []types.Row, lk, rk int) []types.Row {
	var out []types.Row
	rMatched := make([]bool, len(r))
	for _, lr := range l {
		matched := false
		for j, rr := range r {
			if lr[lk].Null || rr[rk].Null || lr[lk].I != rr[rk].I {
				continue
			}
			matched, rMatched[j] = true, true
			if typ != exec.SemiJoin && typ != exec.AntiJoin {
				out = append(out, append(slices.Clone(lr), rr...))
			}
		}
		switch {
		case typ == exec.SemiJoin && matched, typ == exec.AntiJoin && !matched:
			out = append(out, lr)
		case !matched && (typ == exec.LeftOuterJoin || typ == exec.FullOuterJoin):
			out = append(out, append(slices.Clone(lr), nulls(len(r[0]))...))
		}
	}
	if typ == exec.RightOuterJoin || typ == exec.FullOuterJoin {
		for j, rr := range r {
			if !rMatched[j] {
				out = append(out, append(nulls(len(l[0])), rr...))
			}
		}
	}
	return out
}

func nulls(n int) types.Row {
	r := make(types.Row, n)
	for i := range r {
		r[i] = types.NewNull(types.Int64)
	}
	return r
}

// project renders the given columns of the rows that keep, as RenderRows
// has them.
func project(rows []types.Row, keep func(types.Row) bool, cols ...int) []string {
	var out []string
	for _, r := range rows {
		if keep != nil && !keep(r) {
			continue
		}
		vals := make([]string, len(cols))
		for i, c := range cols {
			vals[i] = r[c].String()
		}
		out = append(out, strings.Join(vals, "|"))
	}
	return out
}

func rendered(rows []types.Row) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		vals := make([]string, len(r))
		for c, v := range r {
			vals[c] = v.String()
		}
		out[i] = strings.Join(vals, "|")
	}
	return out
}

// TestJoinOutputPruning runs joins whose outputs the planner narrows to the
// columns read above them — the select list, aggregate arguments, GROUP BY,
// residual predicates and later join keys — over a three-table star, and
// compares every answer with a nested loop: six join flavours, a
// cross-table residual, columns read only as join keys or only in WHERE,
// and COUNT(*) with nothing read above the joins. Each runs on a fan of two
// at the default pool and in a 64 KiB pool, where the build of a switches
// to sort-merge; RIGHT and FULL OUTER may fail there, as they must.
func TestJoinOutputPruning(t *testing.T) {
	f, a, b := starData()
	inner := func(typ exec.JoinType) []types.Row { return nestedJoin(typ, f, a, fKA, 0) }
	star := nestedJoin(exec.InnerJoin, nestedJoin(exec.InnerJoin, f, a, fKA, 0), b, fKB, 0)
	count := func(rows []types.Row) []string { return []string{fmt.Sprint(len(rows))} }
	const fab = ` FROM f JOIN a ON f.ka = a.id JOIN b ON f.kb = b.id`
	cases := []struct {
		name, sql string
		want      func() []string
	}{
		{"inner", `SELECT f.id, a.name FROM f JOIN a ON f.ka = a.id`,
			func() []string { return project(inner(exec.InnerJoin), nil, fID, aName) }},
		{"left", `SELECT f.id, a.name FROM f LEFT JOIN a ON f.ka = a.id`,
			func() []string { return project(inner(exec.LeftOuterJoin), nil, fID, aName) }},
		{"right", `SELECT f.amt, a.id, a.name FROM f RIGHT JOIN a ON f.ka = a.id`,
			func() []string { return project(inner(exec.RightOuterJoin), nil, fAmt, aID, aName) }},
		{"full", `SELECT f.id, a.name FROM f FULL JOIN a ON f.ka = a.id`,
			func() []string { return project(inner(exec.FullOuterJoin), nil, fID, aName) }},
		{"semi", `SELECT f.id, f.amt FROM f SEMI JOIN a ON f.ka = a.id`,
			func() []string { return project(inner(exec.SemiJoin), nil, fID, fAmt) }},
		{"anti", `SELECT f.id FROM f ANTI JOIN a ON f.ka = a.id`,
			func() []string { return project(inner(exec.AntiJoin), nil, fID) }},
		{"count of a left join", `SELECT COUNT(*) FROM f LEFT JOIN a ON f.ka = a.id`,
			func() []string { return count(inner(exec.LeftOuterJoin)) }},
		{"star, keys and WHERE columns unread above", `SELECT f.id, a.name, b.name` + fab + ` WHERE b.grp = 1 AND f.tag = 'x'`,
			func() []string {
				return project(star, func(r types.Row) bool { return r[bGrp].I == 1 && r[fTag].S == "x" }, fID, aName, bName)
			}},
		{"star with a cross-table residual", `SELECT f.id, b.name` + fab + ` WHERE f.amt > a.val`,
			func() []string {
				return project(star, func(r types.Row) bool { return !r[aVal].Null && r[fAmt].I > r[aVal].I }, fID, bName)
			}},
		{"star COUNT(*)", `SELECT COUNT(*)` + fab,
			func() []string { return count(star) }},
		{"star aggregate", `SELECT b.grp, COUNT(*), MIN(f.amt)` + fab + ` WHERE a.grp < 3 GROUP BY b.grp`,
			func() []string {
				n, lo := map[int64]int{}, map[int64]int64{}
				for _, r := range star {
					if r[aGrp].I < 3 {
						g := r[bGrp].I
						if _, ok := n[g]; !ok || r[fAmt].I < lo[g] {
							lo[g] = r[fAmt].I
						}
						n[g]++
					}
				}
				var out []string
				for g := range n {
					out = append(out, fmt.Sprintf("%d|%d|%d", g, n[g], lo[g]))
				}
				return out
			}},
	}

	opts := Options{Dir: t.TempDir(), TempDir: t.TempDir(), MemPoolBytes: 64 << 20, Parallelism: 2, ForceParallel: true}
	db, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, stmt := range []string{
		`CREATE TABLE f (id INT, ka INT, kb INT, amt INT, tag VARCHAR)`,
		`CREATE TABLE a (id INT, name VARCHAR, grp INT, val INT)`,
		`CREATE TABLE b (id INT, name VARCHAR, grp INT)`,
		`CREATE PROJECTION f_super ON f (id, ka, kb, amt, tag) ORDER BY id SEGMENTED BY HASH(id)`,
		`CREATE PROJECTION a_super ON a (id, name, grp, val) ORDER BY name REPLICATED`,
		`CREATE PROJECTION b_super ON b (id, name, grp) ORDER BY name REPLICATED`,
		`CREATE RESOURCE POOL cramped MEMORYSIZE '64K' MAXMEMORYSIZE '64K' PLANNEDCONCURRENCY 1`,
	} {
		db.MustExecute(stmt)
	}
	for name, rows := range map[string][]types.Row{"f": f, "a": a, "b": b} {
		if err := db.Load(name, rows, true); err != nil {
			t.Fatal(err)
		}
	}
	cramped := db.NewSession()
	defer cramped.Close()
	if _, err := cramped.Execute(`SET RESOURCE POOL cramped`); err != nil {
		t.Fatal(err)
	}
	pools := []struct {
		name string
		run  func(string) (*Result, error)
	}{{"default pool", db.Execute}, {"64 KiB pool", cramped.Execute}}

	for _, tc := range cases {
		want := tc.want()
		slices.Sort(want)
		for _, pool := range pools {
			res, err := pool.run(tc.sql)
			if err != nil {
				if pool.name == "64 KiB pool" && (tc.name == "right" || tc.name == "full") && errors.Is(err, exec.ErrOuterJoinTooLarge) {
					continue
				}
				t.Errorf("%s, %s: %v\n  %s", tc.name, pool.name, err, tc.sql)
				continue
			}
			got := rendered(res.Rows)
			slices.Sort(got)
			if !slices.Equal(got, want) {
				t.Errorf("%s, %s: %d rows, want %d\n  %s", tc.name, pool.name, len(got), len(want), tc.sql)
				for i := range min(len(got), len(want)) {
					if got[i] != want[i] {
						t.Errorf("  first difference: %q, want %q", got[i], want[i])
						break
					}
				}
			}
		}
	}
	// The 64 KiB pool is there for the switch: make sure a join took it.
	res, err := cramped.Execute("PROFILE " + cases[0].sql)
	if err != nil {
		t.Fatal(err)
	}
	if plan := res.Explain.String(); !strings.Contains(plan, "(switched to sort-merge)") {
		t.Errorf("the join in the 64 KiB pool did not switch to sort-merge:\n%s", plan)
	}
}
