package core

import (
	"flag"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/types"
)

var updateLayout = flag.Bool("update-layout", false, "rewrite testdata/storage_layout.golden")

// TestStorageLayoutGolden pins what moveout, mergeout and direct load leave on
// disk: a seeded script over a partitioned and an unpartitioned table (two
// local segments, two nodes with buddies, WOS and direct loads, deletes
// before and after moveout, three mover cycles with the AHM advancing) is
// dumped container by container — placement, row count, merge level, epoch
// range, encoded size, a CRC of the column and position-index files, and the
// delete-vector positions. The golden was recorded before the placed-run
// writer replaced the five hand-written ones; a change to grouping, stable
// order, block size or encodings shows up here before it shows up in the
// benchmark's stored_bytes_per_user_byte.
//
// Every sort key in the script is unique but the UPDATE's twenty ids, whose
// deleted old version and new version tie on both ev sort keys: mergeout emits
// such ties in container-ID order, old version first, so the merged order
// does not depend on how the inputs were picked.
func TestStorageLayoutGolden(t *testing.T) {
	db, err := Open(Options{Dir: t.TempDir(), Nodes: 2, K: 1, LocalSegments: 2})
	if err != nil {
		t.Fatal(err)
	}
	db.MustExecute(`CREATE TABLE ev (id INT, month INT, v FLOAT, tag VARCHAR) PARTITION BY month`)
	db.MustExecute(`CREATE PROJECTION ev_super ON ev (id, month, v, tag)
		ORDER BY id SEGMENTED BY HASH(id)`)
	db.MustExecute(`CREATE PROJECTION ev_by_month ON ev (month ENCODING RLE, id, v)
		ORDER BY month, id SEGMENTED BY HASH(id)`)
	db.MustExecute(`CREATE TABLE plain (k INT, g INT, x FLOAT, name VARCHAR)`)
	db.MustExecute(`CREATE PROJECTION plain_super ON plain (k, g ENCODING RLE, x, name)
		ORDER BY g, k SEGMENTED BY HASH(k)`)

	rng := rand.New(rand.NewSource(20120827))
	nextEv, nextPlain := 0, 0
	evRows := func(n int) []types.Row {
		rows := make([]types.Row, n)
		for i := range rows {
			tag := types.NewString(fmt.Sprintf("t%02d", rng.Intn(17)))
			if rng.Intn(9) == 0 {
				tag = types.NewNull(types.Varchar)
			}
			rows[i] = types.Row{
				types.NewInt(int64(nextEv)), types.NewInt(int64(1 + rng.Intn(3))),
				types.NewFloat(float64(rng.Intn(1000)) / 4), tag,
			}
			nextEv++
		}
		rng.Shuffle(n, func(i, j int) { rows[i], rows[j] = rows[j], rows[i] })
		return rows
	}
	plainRows := func(n int) []types.Row {
		rows := make([]types.Row, n)
		for i := range rows {
			name := types.NewString(fmt.Sprintf("name-%d", rng.Intn(40)))
			if rng.Intn(5) == 0 {
				name = types.NewNull(types.Varchar)
			}
			rows[i] = types.Row{
				types.NewInt(int64(nextPlain)), types.NewInt(int64(rng.Intn(6))),
				types.NewFloat(float64(nextPlain) * 0.5), name,
			}
			nextPlain++
		}
		rng.Shuffle(n, func(i, j int) { rows[i], rows[j] = rows[j], rows[i] })
		return rows
	}
	load := func(table string, rows []types.Row, direct bool) {
		t.Helper()
		if err := db.Load(table, rows, direct); err != nil {
			t.Fatal(err)
		}
	}
	mover := func() {
		t.Helper()
		if _, _, err := db.RunTupleMover(); err != nil {
			t.Fatal(err)
		}
	}

	var out strings.Builder
	dump := func(label string) {
		fmt.Fprintf(&out, "== %s\n", label)
		for _, p := range db.Catalog().Projections() {
			for _, n := range db.Cluster().Nodes() {
				mgr, err := n.Mgr(p, db.Cluster().ManagerOpts())
				if err != nil {
					t.Fatal(err)
				}
				var lines []string
				for _, r := range mgr.Containers() {
					m := r.Meta
					var dvs []string
					for _, e := range mgr.DVs().Get(m.ID) {
						dvs = append(dvs, fmt.Sprintf("%d@%d", e.Pos, e.Epoch))
					}
					lines = append(lines, fmt.Sprintf("part=%q seg=%d rows=%d level=%d epochs=%d..%d bytes=%d crc=%08x dv=[%s]",
						m.Partition, m.LocalSegment, m.RowCount, m.MergeLevel, m.MinEpoch, m.MaxEpoch,
						m.SizeBytes, containerCRC(t, r.Dir), strings.Join(dvs, " ")))
				}
				sort.Strings(lines)
				fmt.Fprintf(&out, "%s node%d wos=%d containers=%d\n", p.Name, n.ID, mgr.WOS().Len(), len(lines))
				for _, l := range lines {
					fmt.Fprintf(&out, "  %s\n", l)
				}
			}
		}
	}

	// Round 1: WOS loads, a direct load, deletes that land on WOS rows.
	load("ev", evRows(240), false)
	load("plain", plainRows(300), false)
	load("ev", evRows(600), true)
	db.MustExecute(`DELETE FROM ev WHERE id < 40`)
	db.MustExecute(`DELETE FROM plain WHERE k < 300 AND g = 2`)
	mover()
	dump("cycle 1")

	// Round 2: deletes that land on ROS rows, a multi-block direct load,
	// an UPDATE (delete + WOS insert), more WOS loads.
	db.MustExecute(`DELETE FROM ev WHERE id >= 200 AND id < 260`)
	db.MustExecute(`DELETE FROM plain WHERE k >= 100 AND k < 130`)
	load("plain", plainRows(40000), true)
	load("ev", evRows(180), false)
	db.MustExecute(`UPDATE ev SET v = 7.25 WHERE id >= 700 AND id < 720`)
	load("plain", plainRows(150), false)
	mover()
	dump("cycle 2")

	// Round 3: the AHM has advanced past round 1's deletes, so mergeout
	// elides them; fresh deletes are carried through.
	db.MustExecute(`DELETE FROM ev WHERE month = 2 AND id >= 900`)
	load("ev", evRows(200), true)
	load("ev", evRows(90), false)
	for i := 0; i < 3; i++ { // multi-block moveout
		load("plain", plainRows(9000), false)
	}
	load("plain", plainRows(40000), true) // same stratum as round 2's: multi-block mergeout
	db.MustExecute(`DELETE FROM plain WHERE k >= 39000 AND k < 42000 AND g = 1`)
	mover()
	dump("cycle 3")
	fmt.Fprintf(&out, "ahm=%d current=%d\n", db.Txns().Epochs.AHM(), db.Txns().Epochs.Current())

	golden := filepath.Join("testdata", "storage_layout.golden")
	if *updateLayout {
		if err := os.WriteFile(golden, []byte(out.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got := out.String(); got != string(want) {
		t.Errorf("storage layout drifted from %s (re-record with -update-layout only for an intended format change):\n%s",
			golden, firstDiff(got, string(want)))
	}
}

// containerCRC checksums a container's column data and position-index files
// in name order (meta.json is left out: it carries the container ID).
func containerCRC(t *testing.T, dir string) uint32 {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	h := crc32.NewIEEE()
	for _, e := range ents { // ReadDir sorts by name
		if e.Name() == "meta.json" {
			continue
		}
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		h.Write([]byte(e.Name()))
		h.Write(b)
	}
	return h.Sum32()
}

func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(g) || i < len(w); i++ {
		var gl, wl string
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if gl != wl {
			return fmt.Sprintf("line %d:\n got  %s\n want %s", i+1, gl, wl)
		}
	}
	return ""
}
