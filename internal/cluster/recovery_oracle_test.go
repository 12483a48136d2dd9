package cluster_test

import (
	"flag"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/optimizer"
	"repro/internal/sql"
	"repro/internal/storage"
	"repro/internal/types"
	"repro/internal/vector"
)

var (
	oracleSeed  = flag.Int64("oracle.seed", 20120827, "seed of TestRecoveryOracle (a failure prints the seed to re-run)")
	oracleSteps = flag.Int("oracle.steps", 24, "steps TestRecoveryOracle takes (make test-metamorphic takes more)")
)

// TestRecoveryOracle is the differential oracle of the ways into the ROS:
// random WOS and direct loads, DELETE, UPDATE and mover cycles on a
// partitioned K=1 table with a second projection, interleaved with node
// outages (FailNode + ClearWOS + DML + RecoverNode), AddNode + Rebalance and
// CREATE PROJECTION, which refreshes. After every step each projection
// answers COUNT/SUM, a GROUP BY and a historical query exactly as an in-test
// model does — with all nodes up and with each node failed in turn, so every
// buddy serves once — and every container is sorted on its projection's sort
// key and holds one partition × local segment.
func TestRecoveryOracle(t *testing.T) {
	o := newRecoveryOracle(t, *oracleSeed)
	for i := 0; i < *oracleSteps; i++ {
		o.step()
		o.check()
		if t.Failed() {
			t.Fatalf("seed %d failed after step %d; steps so far:\n%s", *oracleSeed, i+1, strings.Join(o.log, "\n"))
		}
	}
	t.Logf("seed %d:\n%s", *oracleSeed, strings.Join(o.log, "\n"))
}

type modelRow struct {
	id, month, grp int64
	v              float64
	ins, del       types.Epoch
}

func (r *modelRow) visibleAt(e types.Epoch) bool {
	return r.ins <= e && (r.del == 0 || r.del > e)
}

type recoveryOracle struct {
	t      *testing.T
	db     *core.Database
	rng    *rand.Rand
	rows   []*modelRow
	nextID int64
	projs  []string // non-buddy projections of ev
	log    []string
	grown  bool
}

func newRecoveryOracle(t *testing.T, seed int64) *recoveryOracle {
	db, err := core.Open(core.Options{Dir: t.TempDir(), Nodes: 3, K: 1, LocalSegments: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Keep some history behind the AHM so the historical query is not the
	// live one.
	db.Txns().Epochs.AHMLagEpochs = 12
	db.MustExecute(`CREATE TABLE ev (id INT, month INT, grp INT, v FLOAT, note VARCHAR) PARTITION BY month`)
	db.MustExecute(`CREATE PROJECTION ev_super ON ev (id, month, grp, v, note)
		ORDER BY id SEGMENTED BY HASH(id)`)
	db.MustExecute(`CREATE PROJECTION ev_grp ON ev (grp ENCODING RLE, month, v, id)
		ORDER BY grp, id SEGMENTED BY HASH(id)`)
	return &recoveryOracle{t: t, db: db, rng: rand.New(rand.NewSource(seed)), projs: []string{"ev_super", "ev_grp"}}
}

func (o *recoveryOracle) logf(format string, args ...interface{}) {
	o.log = append(o.log, fmt.Sprintf("  e%d: ", o.db.Txns().Epochs.Current())+fmt.Sprintf(format, args...))
}

func (o *recoveryOracle) allUp() bool {
	return len(o.db.Cluster().UpNodes()) == o.db.Cluster().N()
}

// step applies one random action to the engine and to the model.
func (o *recoveryOracle) step() {
	c := o.db.Cluster()
	switch k := o.rng.Intn(20); {
	case k < 8:
		o.dml()
	case k < 11:
		o.mover()
	case k < 16:
		// An outage: the node loses its WOS, misses one to three statements
		// and recovers from its buddies.
		n := o.rng.Intn(c.N())
		o.logf("FailNode(%d) + ClearWOS", n)
		if err := c.FailNode(n); err != nil {
			o.t.Fatal(err)
		}
		c.Node(n).ClearWOS()
		for i := 1 + o.rng.Intn(3); i > 0; i-- {
			if o.rng.Intn(4) == 0 {
				o.mover()
			} else {
				o.dml()
			}
		}
		o.logf("RecoverNode(%d)", n)
		if err := c.RecoverNode(n); err != nil {
			o.t.Fatal(err)
		}
	case k < 18 && !o.grown:
		o.grown = true
		o.logf("AddNode + Rebalance")
		c.AddNode()
		if err := c.Rebalance(); err != nil {
			o.t.Fatal(err)
		}
	case len(o.projs) < 3:
		o.logf("CREATE PROJECTION ev_v")
		o.db.MustExecute(`CREATE PROJECTION ev_v ON ev (v, id, month ENCODING RLE, grp)
			ORDER BY v, id SEGMENTED BY HASH(id)`)
		o.projs = append(o.projs, "ev_v")
	default:
		o.dml()
	}
}

func (o *recoveryOracle) mover() {
	o.logf("mover cycle")
	if _, _, err := o.db.RunTupleMover(); err != nil {
		o.t.Fatal(err)
	}
}

// dml runs one random load, DELETE or UPDATE and mirrors it in the model.
func (o *recoveryOracle) dml() {
	lo := o.rng.Int63n(o.nextID + 1)
	hi := lo + 1 + o.rng.Int63n(80)
	switch k := o.rng.Intn(10); {
	case k < 4 || len(o.rows) == 0:
		direct := o.rng.Intn(3) == 0
		n := 10 + o.rng.Intn(50)
		rows := make([]types.Row, n)
		for i := range rows {
			r := &modelRow{id: o.nextID, month: 1 + o.rng.Int63n(2), grp: o.rng.Int63n(5), v: float64(o.rng.Intn(400)) / 4}
			o.nextID++
			o.rows = append(o.rows, r)
			rows[i] = types.Row{types.NewInt(r.id), types.NewInt(r.month), types.NewInt(r.grp), types.NewFloat(r.v), types.NewString("n")}
		}
		o.logf("load %d rows direct=%v", n, direct)
		if err := o.db.Load("ev", rows, direct); err != nil {
			o.t.Fatal(err)
		}
		e := o.db.Txns().Epochs.ReadEpoch()
		for _, r := range o.rows[len(o.rows)-n:] {
			r.ins = e
		}
	case k < 8 || !o.allUp():
		// UPDATE reads its rows from the super projection on up nodes only,
		// so with a node down it would lose that node's share: the oracle
		// sticks to DELETE during an outage.
		grp := o.rng.Int63n(10) // 5..9: every group
		pred := fmt.Sprintf("id >= %d AND id < %d", lo, hi)
		if grp < 5 {
			pred += fmt.Sprintf(" AND grp = %d", grp)
		}
		o.logf("DELETE WHERE %s", pred)
		// RowsAffected is not consulted: it counts the primary super
		// projection on up nodes, so it understates during an outage.
		o.db.MustExecute(`DELETE FROM ev WHERE ` + pred)
		e, cur := o.db.Txns().Epochs.ReadEpoch(), o.db.Txns().Epochs.ReadEpoch()-1
		for _, r := range o.rows {
			if r.id >= lo && r.id < hi && (grp >= 5 || r.grp == grp) && r.visibleAt(cur) {
				r.del = e
			}
		}
	default:
		nv := float64(o.rng.Intn(400)) / 4
		o.logf("UPDATE v=%v for id in [%d,%d)", nv, lo, hi)
		o.db.MustExecute(fmt.Sprintf(`UPDATE ev SET v = %v WHERE id >= %d AND id < %d`, nv, lo, hi))
		e, cur := o.db.Txns().Epochs.ReadEpoch(), o.db.Txns().Epochs.ReadEpoch()-1
		for _, r := range o.rows {
			if r.id >= lo && r.id < hi && r.visibleAt(cur) {
				r.del = e
				nr := *r
				nr.v, nr.ins, nr.del = nv, e, 0
				o.rows = append(o.rows, &nr)
			}
		}
	}
}

// check compares every projection with the model: all nodes up, then with
// each node in turn down, then the containers themselves.
func (o *recoveryOracle) check() {
	c := o.db.Cluster()
	o.compare("all nodes up")
	for n := 0; n < c.N(); n++ {
		if err := c.FailNode(n); err != nil {
			o.t.Fatal(err)
		}
		o.compare(fmt.Sprintf("node %d down", n))
		// Back up without a recovery pass: nothing was missed, and the
		// node's WOS must survive for the next moveout to see.
		c.Node(n).Rejoin()
	}
	c.Txn.Epochs.HoldAHM(false)
	o.checkContainers()
}

func (o *recoveryOracle) compare(when string) {
	em := o.db.Txns().Epochs
	live := em.ReadEpoch()
	hist := live
	if ahm := em.AHM(); ahm < live {
		hist = ahm + types.Epoch(o.rng.Int63n(int64(live-ahm)+1))
	}
	for _, proj := range o.projs {
		for _, e := range []types.Epoch{live, hist} {
			var n int64
			var sum float64
			byGrp := map[int64][2]float64{}
			for _, r := range o.rows {
				if r.visibleAt(e) {
					n++
					sum += r.v
					g := byGrp[r.grp]
					byGrp[r.grp] = [2]float64{g[0] + 1, g[1] + r.v}
				}
			}
			got := o.queryOn(proj, `SELECT COUNT(*), SUM(v) FROM ev`, e)
			if len(got) != 1 || got[0][0].I != n || (n > 0 && got[0][1].F != sum) {
				o.t.Errorf("%s, %s at epoch %d (live %d): COUNT, SUM = %v, model says %d, %v", when, proj, e, live, got, n, sum)
			}
			if e != live {
				continue // one historical query per projection
			}
			got = o.queryOn(proj, `SELECT grp, COUNT(*), SUM(v) FROM ev GROUP BY grp ORDER BY grp`, e)
			if len(got) != len(byGrp) {
				o.t.Errorf("%s, %s at epoch %d: %d groups, model says %d", when, proj, e, len(got), len(byGrp))
				continue
			}
			for _, row := range got {
				if g := byGrp[row[0].I]; float64(row[1].I) != g[0] || row[2].F != g[1] {
					o.t.Errorf("%s, %s at epoch %d: grp %d = (%d, %v), model says %v", when, proj, e, row[0].I, row[1].I, row[2].F, g)
				}
			}
		}
	}
}

// queryOn answers a query at an epoch with projection proj (and its buddy,
// for a down node's share): every other projection of the table is excluded.
func (o *recoveryOracle) queryOn(proj, text string, epoch types.Epoch) []types.Row {
	o.t.Helper()
	st, err := sql.Parse(text)
	if err != nil {
		o.t.Fatal(err)
	}
	sel := st.(*sql.SelectStmt)
	q, err := sql.AnalyzeSelect(sel, o.db.Catalog())
	if err != nil {
		o.t.Fatal(err)
	}
	opts := optimizer.PlanOpts{ExcludeProjections: map[string]bool{}}
	for _, p := range o.db.Catalog().ProjectionsFor("ev") {
		if p.Name != proj && p.Name != proj+"_b1" {
			opts.ExcludeProjections[p.Name] = true
		}
	}
	res, err := o.db.Cluster().RunAt(q, opts, epoch)
	if err != nil {
		o.t.Fatalf("%s on %s at epoch %d: %v", text, proj, epoch, err)
	}
	return vector.Rows(res.Batches)
}

// checkContainers asserts the storage invariants: a container holds one
// partition × local segment, agrees with the placement about which, and is
// sorted on the projection's sort key.
func (o *recoveryOracle) checkContainers() {
	c := o.db.Cluster()
	for _, p := range o.db.Catalog().ProjectionsFor("ev") {
		place, err := c.Placement(p)
		if err != nil {
			o.t.Fatal(err)
		}
		for _, n := range c.Nodes() {
			mgr, err := n.Mgr(p, c.ManagerOpts())
			if err != nil {
				o.t.Fatal(err)
			}
			rows, err := cluster.ReadRows(mgr)
			if err != nil {
				o.t.Fatal(err)
			}
			byTarget := map[string][]cluster.TestRow{}
			for _, r := range rows {
				byTarget[r.Target] = append(byTarget[r.Target], r)
			}
			for _, r := range mgr.Containers() {
				o.checkContainer(p, place, r, n.ID, byTarget[r.Meta.ID])
			}
		}
	}
}

func (o *recoveryOracle) checkContainer(p *catalog.Projection, place *storage.Placement, r *storage.ContainerReader, node int, rows []cluster.TestRow) {
	var prev types.Row
	for _, sr := range rows {
		b := vector.BatchFromRows(p.Schema, []types.Row{sr.Row})
		parts, err := place.PartitionOf(b)
		if err != nil {
			o.t.Error(err)
			return
		}
		segs, err := place.LocalSegmentOf(b)
		if err != nil {
			o.t.Error(err)
			return
		}
		if part, seg := parts.ValueAt(0).String(), segs[0]; part != r.Meta.Partition || seg != r.Meta.LocalSegment {
			o.t.Errorf("%s node %d %s (partition %q, segment %d) holds at %d a row of partition %q, segment %d",
				p.Name, node, r.Meta.ID, r.Meta.Partition, r.Meta.LocalSegment, sr.Pos, part, seg)
		}
		if prev != nil && prev.Compare(sr.Row, place.SortKey) > 0 {
			o.t.Errorf("%s node %d %s is not sorted at position %d", p.Name, node, r.Meta.ID, sr.Pos)
		}
		if sr.Epoch < r.Meta.MinEpoch || sr.Epoch > r.Meta.MaxEpoch {
			o.t.Errorf("%s node %d %s: epoch %d outside the meta's %d..%d", p.Name, node, r.Meta.ID, sr.Epoch, r.Meta.MinEpoch, r.Meta.MaxEpoch)
		}
		prev = sr.Row
	}
}
