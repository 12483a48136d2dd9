package cluster

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/catalog"
	"repro/internal/expr"
	"repro/internal/storage"
	"repro/internal/txn"
	"repro/internal/types"
	"repro/internal/vector"
)

// The routing reference: the row-at-a-time formulas the segmentation kernel
// replaced, kept verbatim so that a change to types.Ring that moves a row to
// another node or local segment fails here.

// refNode is a segmentation value's node: contiguous ranges of the hash
// space, CMAX/N wide, moved by the projection's offset.
func refNode(hash uint64, offset, n int) int {
	if n == 1 {
		return 0
	}
	idx := int(hash / (^uint64(0)/uint64(n) + 1))
	return (idx + offset) % n
}

// refSegment splits a node's range into ls equal local segments.
func refSegment(hash uint64, n, ls int) int {
	rangeWidth := ^uint64(0)
	if n > 1 {
		rangeWidth = ^uint64(0)/uint64(n) + 1
	}
	pos := hash % rangeWidth
	w := rangeWidth/uint64(ls) + 1
	if w == 0 {
		return 0 // 1 node, 1 local segment: the formula divides by zero
	}
	return int(pos / w)
}

// refRingNode is RING_NODE(n, v).
func refRingNode(v uint64, n int) int {
	return int(v / (^uint64(0)/uint64(n) + 1))
}

func TestRingEdges(t *testing.T) {
	for _, v := range []uint64{0, 1, math.MaxInt64, math.MaxInt64 + 1, math.MaxUint64 - 1, math.MaxUint64} {
		for n := 1; n <= 5; n++ {
			node, off, width := types.Ring(v, math.MaxUint64, n)
			want := 0 // RING_NODE(1, v) divided by zero
			if n > 1 {
				want = refRingNode(v, n)
			}
			if node != want {
				t.Errorf("Ring(%d, %d nodes) = node %d, want %d", v, n, node, want)
			}
			for offset := 0; offset <= 2; offset++ {
				if got, want := (node+offset)%n, refNode(v, offset, n); got != want {
					t.Errorf("value %d on %d nodes, offset %d: node %d, want %d", v, n, offset, got, want)
				}
			}
			for ls := 1; ls <= 4; ls++ {
				seg, _, _ := types.Ring(off, width, ls)
				if want := refSegment(v, n, ls); seg != want {
					t.Errorf("value %d on %d nodes, %d local segments: segment %d, want %d", v, n, ls, seg, want)
				}
			}
		}
	}
}

// TestSegmentsMatchReference is the routing differential: random tables with
// INT, FLOAT or VARCHAR keys (NULLs, negatives and the int64 extremes among
// them), segmented by HASH(key) or, for INT, by the key itself, on 1–5 nodes
// with offsets 0–2 and 1–4 local segments. The kernel must give every row the
// node and local segment the reference does, and StageInsert must store it
// there, through the WOS and through direct load.
func TestSegmentsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	for i := 0; i < 40; i++ {
		nodes, offset, ls := 1+rng.Intn(5), rng.Intn(3), 1+rng.Intn(4)
		typ := []types.Type{types.Int64, types.Float64, types.Varchar}[rng.Intn(3)]
		identity := typ == types.Int64 && rng.Intn(2) == 0
		name := fmt.Sprintf("case %d (%s key, identity %v, %d nodes, offset %d, %d local segments)", i, typ, identity, nodes, offset, ls)
		t.Run(name, func(t *testing.T) {
			checkSegments(t, rng, typ, identity, nodes, offset, ls)
		})
	}
}

func checkSegments(t *testing.T, rng *rand.Rand, typ types.Type, identity bool, nodes, offset, ls int) {
	cat := catalog.New("")
	tbl := &catalog.Table{Name: "r", Schema: types.NewSchema(
		types.Column{Name: "x", Typ: types.Int64},
		types.Column{Name: "k", Typ: typ, Nullable: true},
	)}
	if err := cat.CreateTable(tbl); err != nil {
		t.Fatal(err)
	}
	c, err := New(Config{Nodes: nodes, LocalSegments: ls, Dir: t.TempDir()}, cat, txn.NewManager())
	if err != nil {
		t.Fatal(err)
	}
	// The projection stores k first, so its column order is not the table's.
	var seg expr.Expr = expr.NewColRef(0, typ, "k")
	if !identity {
		if seg, err = expr.NewFunc("HASH", seg); err != nil {
			t.Fatal(err)
		}
	}
	p := &catalog.Projection{
		Name: "r_p", Anchor: "r", Columns: []string{"k", "x"}, SortOrder: []string{"x"},
		Seg: catalog.Segmentation{ExprText: seg.String(), Offset: offset},
	}
	if err := cat.CreateProjection(p); err != nil {
		t.Fatal(err)
	}
	p.Seg.Expr = seg

	rows := make([]types.Row, 300)
	for i := range rows {
		rows[i] = types.Row{types.NewInt(int64(i)), randomKey(rng, typ)}
	}
	// want returns the reference node and local segment of a row in p's
	// column order.
	want := func(pr types.Row) (int, int) {
		v, err := seg.EvalRow(pr)
		if err != nil {
			t.Fatal(err)
		}
		return refNode(uint64(v.I), offset, nodes), refSegment(uint64(v.I), nodes, ls)
	}

	b := vector.BatchFromRows(tbl.Schema, rows)
	gotNodes, gotSegs, err := c.segments(p, &vector.Batch{Cols: []*vector.Vector{b.Cols[1], b.Cols[0]}})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range rows {
		node, lseg := want(types.Row{r[1], r[0]})
		if gotNodes[i] != node || gotSegs[i] != lseg {
			t.Fatalf("row %v: kernel says node %d segment %d, reference node %d segment %d", r, gotNodes[i], gotSegs[i], node, lseg)
		}
	}

	// The same rows twice: direct to the ROS, then through the WOS.
	for _, direct := range []bool{true, false} {
		tx := c.Txn.Begin()
		if err := c.StageInsert(tx, "r", b, direct); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Txn.Commit(tx); err != nil {
			t.Fatal(err)
		}
	}
	stored := map[string]int{}
	for _, n := range c.Nodes() {
		mgr, err := n.Mgr(p, c.ManagerOpts())
		if err != nil {
			t.Fatal(err)
		}
		segOf := map[string]int{}
		for _, cr := range mgr.Containers() {
			segOf[cr.Meta.ID] = cr.Meta.LocalSegment
		}
		got, err := ReadRows(mgr)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range got {
			node, lseg := want(r.Row)
			if node != n.ID {
				t.Errorf("row %v stored on node %d, reference node %d", r.Row, n.ID, node)
			}
			if r.Target != storage.WOSTarget && segOf[r.Target] != lseg {
				t.Errorf("row %v in local segment %d, reference %d", r.Row, segOf[r.Target], lseg)
			}
			stored[fmt.Sprint(r.Row)]++
		}
	}
	for _, r := range rows {
		if k := fmt.Sprint(types.Row{r[1], r[0]}); stored[k] != 2 {
			t.Errorf("row %v stored %d times, want 2", r, stored[k])
		}
	}
}

// randomKey draws a key of type typ: NULL one time in ten, and otherwise
// values that cover both signs, zero and, for INT, the int64 extremes and
// -1, which is 2^64−1 unsigned.
func randomKey(rng *rand.Rand, typ types.Type) types.Value {
	if rng.Intn(10) == 0 {
		return types.NewNull(typ)
	}
	switch typ {
	case types.Float64:
		return types.NewFloat(rng.NormFloat64() * 1e6)
	case types.Varchar:
		return types.NewString(fmt.Sprintf("k%d", rng.Intn(1000)-500))
	}
	switch rng.Intn(6) {
	case 0:
		return types.NewInt([]int64{0, -1, math.MinInt64, math.MaxInt64}[rng.Intn(4)])
	case 1:
		return types.NewInt(-rng.Int63())
	default:
		return types.NewInt(rng.Int63())
	}
}
