package core

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/storage"
	"repro/internal/types"
	"repro/internal/vector"
)

// loadedS opens a database of the given size (K=1 on more than one node)
// with s(id, c) under its super projection s_super, holding rows 0..n-1.
func loadedS(t *testing.T, nodes, n int) *Database {
	t.Helper()
	db := openTestDB(t, nodes, min(nodes-1, 1))
	db.MustExecute(`CREATE TABLE s (id INT, c INT)`)
	db.MustExecute(`CREATE PROJECTION s_super ON s (id, c) ORDER BY id SEGMENTED BY HASH(id)`)
	for i := 0; i < n; i++ {
		db.MustExecute(fmt.Sprintf(`INSERT INTO s VALUES (%d, %d)`, i, 10*i))
	}
	return db
}

// storedRows counts the live rows projection name holds across the cluster.
func storedRows(t *testing.T, db *Database, name string) int {
	t.Helper()
	p, err := db.Catalog().Projection(name)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, node := range db.Cluster().Nodes() {
		mgr, err := node.Mgr(p, db.Cluster().ManagerOpts())
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range readStored(t, mgr) {
			if r.Deleted == 0 {
				n++
			}
		}
	}
	return n
}

// storedRow is one stored row as the tests see it: the user columns and the
// commit and delete epochs.
type storedRow struct {
	Row            types.Row
	Epoch, Deleted types.Epoch
}

// readStored reads everything mgr stores through ForEachStored and pivots
// each batch's selected rows with Batch.Rows.
func readStored(t *testing.T, mgr *storage.Manager) []storedRow {
	t.Helper()
	var out []storedRow
	err := mgr.ForEachStored(0, types.MaxEpoch, func(_ string, _ int64, b *vector.Batch) error {
		for _, r := range b.Rows() {
			n := len(r) - 2
			out = append(out, storedRow{r[:n:n], types.Epoch(r[n].I), types.Epoch(r[n+1].I)})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestCreateProjectionOnLoadedTableAnswers creates a projection that sorts
// before the super projection by name on a table that already holds rows:
// the statement populates it, so a COUNT the planner answers from it counts
// every row.
func TestCreateProjectionOnLoadedTableAnswers(t *testing.T) {
	for _, nodes := range []int{1, 3} {
		t.Run(fmt.Sprintf("nodes=%d", nodes), func(t *testing.T) {
			db := loadedS(t, nodes, 3)
			db.MustExecute(`CREATE PROJECTION s_by_c ON s (c, id) ORDER BY c`)
			if got := db.MustExecute(`SELECT COUNT(*) FROM s`).Rows[0][0].I; got != 3 {
				t.Errorf("COUNT(*) = %d after CREATE PROJECTION, want 3", got)
			}
		})
	}
}

// TestUpdateAfterCreateProjectionKeepsRows runs an UPDATE after a late
// CREATE PROJECTION: UPDATE reads the rows it re-inserts from a super
// projection, so it must find the row there, and the row must survive the
// new projection's DROP.
func TestUpdateAfterCreateProjectionKeepsRows(t *testing.T) {
	for _, nodes := range []int{1, 3} {
		t.Run(fmt.Sprintf("nodes=%d", nodes), func(t *testing.T) {
			db := loadedS(t, nodes, 3)
			db.MustExecute(`CREATE PROJECTION s_by_c ON s (c, id) ORDER BY c`)
			if n := db.MustExecute(`UPDATE s SET c = c + 1 WHERE id = 1`).RowsAffected; n != 1 {
				t.Errorf("UPDATE affected %d rows, want 1", n)
			}
			db.MustExecute(`DROP PROJECTION s_by_c`)
			res := db.MustExecute(`SELECT id, c FROM s ORDER BY id`)
			if len(res.Rows) != 3 || res.Rows[1][0].I != 1 || res.Rows[1][1].I != 11 {
				t.Errorf("after UPDATE and DROP PROJECTION: %v, want ids 0..2 with c=11 at id 1", res.Rows)
			}
		})
	}
}

// TestCreateProjectionDuringInserts creates a projection while another
// session inserts into its anchor: afterwards every projection, buddies
// included, holds exactly the rows committed, none missed and none twice.
func TestCreateProjectionDuringInserts(t *testing.T) {
	db := loadedS(t, 3, 50)
	inserted := 50
	started, created, done := make(chan struct{}), make(chan struct{}), make(chan struct{})
	go func() {
		// Ten inserts before the CREATE starts, ten after it returns, and
		// whatever fits in between.
		defer close(done)
		var once sync.Once
		defer once.Do(func() { close(started) })
		for after := 0; after < 10; inserted++ {
			if _, err := db.Execute(fmt.Sprintf(`INSERT INTO s VALUES (%d, %d)`, inserted, inserted%7)); err != nil {
				t.Error(err)
				return
			}
			if inserted == 60 {
				once.Do(func() { close(started) })
			}
			select {
			case <-created:
				after++
			default:
			}
		}
	}()
	<-started
	db.MustExecute(`CREATE PROJECTION s_by_c ON s (c, id) ORDER BY c SEGMENTED BY HASH(c)`)
	close(created)
	<-done
	for _, name := range []string{"s_super", "s_super_b1", "s_by_c", "s_by_c_b1"} {
		if got := storedRows(t, db, name); got != inserted {
			t.Errorf("%s holds %d rows, %d committed", name, got, inserted)
		}
	}
	if got := db.MustExecute(`SELECT COUNT(*) FROM s`).Rows[0][0].I; got != int64(inserted) {
		t.Errorf("COUNT(*) = %d, %d committed", got, inserted)
	}
}
