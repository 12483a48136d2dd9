package core

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/resmgr"
)

// profileChildren returns the indices of rec[i]'s direct children in the
// pre-order profile walk: subsequent records one level deeper, up to the
// first record at rec[i]'s depth or shallower.
func profileChildren(recs []resmgr.OpProfile, i int) []int {
	var out []int
	for j := i + 1; j < len(recs) && recs[j].Depth > recs[i].Depth; j++ {
		if recs[j].Depth == recs[i].Depth+1 {
			out = append(out, j)
		}
	}
	return out
}

// TestProfileParallelCountersConsistent runs a 4-way parallel join + sort +
// exchange under PROFILE and checks the per-operator counters are mutually
// consistent: every fan-in operator (ParallelUnion, merging Recv) must emit
// exactly the sum of its partitions' rows, regardless of how the scheduler
// interleaved the worker pipelines. Run under -race in CI, this doubles as
// the data-race check on the concurrent counter updates.
func TestProfileParallelCountersConsistent(t *testing.T) {
	db, err := Open(Options{
		Dir:           t.TempDir(),
		TempDir:       t.TempDir(),
		Parallelism:   4,
		ForceParallel: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	db.MustExecute(`CREATE TABLE sales (id INT, region INT, price FLOAT)`)
	db.MustExecute(`CREATE PROJECTION sales_super ON sales (id, region, price) ORDER BY id SEGMENTED BY HASH(id)`)
	db.MustExecute(`CREATE TABLE regions (rid INT, name VARCHAR)`)
	db.MustExecute(`CREATE PROJECTION regions_super ON regions (rid, name) ORDER BY rid REPLICATED`)
	var ins strings.Builder
	ins.WriteString(`INSERT INTO sales VALUES `)
	const nRows = 4000
	for i := 0; i < nRows; i++ {
		if i > 0 {
			ins.WriteString(", ")
		}
		fmt.Fprintf(&ins, "(%d, %d, %d.5)", i, i%16, i)
	}
	db.MustExecute(ins.String())
	db.MustExecute(`INSERT INTO regions VALUES (0,'a'), (1,'b'), (2,'c'), (3,'d'), (4,'e'), (5,'f'), (6,'g'), (7,'h'), (8,'i'), (9,'j'), (10,'k'), (11,'l'), (12,'m'), (13,'n'), (14,'o'), (15,'p')`)

	const q = `SELECT name, price FROM sales JOIN regions ON region = rid ORDER BY price`
	plain := db.MustExecute(q)
	want := int64(len(plain.Rows))
	if want != nRows {
		t.Fatalf("fixture join returned %d rows, want %d", want, nRows)
	}

	res := db.MustExecute("PROFILE " + q)
	recs := res.OpProfiles
	if len(recs) == 0 {
		t.Fatal("PROFILE returned no operator records")
	}
	if recs[0].Rows != want {
		t.Errorf("root %q produced %d rows, want %d", recs[0].Op, recs[0].Rows, want)
	}
	fanIns := 0
	for i, r := range recs {
		if r.NodeID < 0 {
			t.Errorf("operator %q has no plan-node id", r.Op)
		}
		if !strings.HasPrefix(r.Op.String(), "ParallelUnion") && !strings.Contains(r.Op.String(), "merge") {
			continue
		}
		// Fan-in: output rows must equal the sum over partitions, however
		// the worker goroutines interleaved.
		fanIns++
		var sum int64
		for _, c := range profileChildren(recs, i) {
			sum += recs[c].Rows
		}
		if sum != r.Rows {
			t.Errorf("fan-in %q emitted %d rows but partitions produced %d", r.Op, r.Rows, sum)
		}
		if r.Rows != want {
			t.Errorf("fan-in %q emitted %d rows, want the full %d", r.Op, r.Rows, want)
		}
	}
	if fanIns == 0 {
		t.Fatalf("plan had no fan-in operators — not a parallel plan?\n%s", res.Explain)
	}

	// The sort partitions together consumed every exchanged row: join + sort
	// + exchange all agree on the total.
	var sortRows int64
	sorts := 0
	for _, r := range recs {
		if strings.HasPrefix(r.Op.String(), "Sort") {
			sorts++
			sortRows += r.Rows
		}
	}
	if sorts < 2 {
		t.Fatalf("expected parallel worker sorts, got %d\n%s", sorts, res.Explain)
	}
	if sortRows != want {
		t.Errorf("worker sorts produced %d rows total, want %d", sortRows, want)
	}

	// Timing ran (ProfTimes): the root of a 4000-row sort cannot round to
	// zero microseconds.
	if recs[0].WallUs <= 0 {
		t.Errorf("root wall time not recorded: %+v", recs[0])
	}
}
