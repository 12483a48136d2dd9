package server

import (
	"context"
	"fmt"
	"io"
	"net"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/types"
)

// startServer opens a governed database, seeds the sales table with n rows,
// and serves it on an ephemeral port.
func startServer(t *testing.T, n int, pool int64, conc int) (*Server, *core.Database) {
	t.Helper()
	db, err := core.Open(core.Options{
		Dir:            t.TempDir(),
		MemPoolBytes:   pool,
		MaxConcurrency: conc,
		TempDir:        t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, `CREATE TABLE sales (sale_id INT, cust INT, price FLOAT)`)
	mustExec(t, db, `CREATE PROJECTION sales_super ON sales (sale_id, cust, price)
		ORDER BY sale_id SEGMENTED BY HASH(sale_id)`)
	rows := make([]types.Row, 0, n)
	for i := 0; i < n; i++ {
		rows = append(rows, types.Row{
			types.NewInt(int64(i)),
			types.NewInt(int64(i % 10)),
			types.NewFloat(float64(i)),
		})
	}
	if err := db.Load("sales", rows, true); err != nil {
		t.Fatal(err)
	}
	srv := New(db, Config{Addr: "127.0.0.1:0", DrainTimeout: 10 * time.Second})
	if err := srv.Listen(); err != nil {
		t.Fatal(err)
	}
	go srv.Serve()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})
	return srv, db
}

func mustExec(t *testing.T, db *core.Database, sqlText string) {
	t.Helper()
	if _, err := db.Execute(sqlText); err != nil {
		t.Fatal(err)
	}
}

func dial(t *testing.T, srv *Server) *Client {
	t.Helper()
	c, err := Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// TestEightClientsConstrainedPool is the acceptance scenario: 8 simultaneous
// clients against a 32MB pool with 2 concurrency slots. Everyone completes
// with correct results and the excess observably queues. Both slots are
// pre-held until all 8 statements are enqueued so queueing is deterministic
// even on a single-CPU machine where fast queries would otherwise never
// overlap.
func TestEightClientsConstrainedPool(t *testing.T) {
	checkGoroutines(t)
	srv, db := startServer(t, 5_000, 32<<20, 2)
	holdA, err := db.Governor().Admit(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	holdB, err := db.Governor().Admit(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	released := false
	defer func() {
		if !released {
			holdA.Release()
			holdB.Release()
		}
	}()
	var wg sync.WaitGroup
	results := make([]*Result, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := Dial(srv.Addr().String())
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			res, err := c.Exec(`SELECT cust, COUNT(*) AS n, SUM(price) AS s FROM sales GROUP BY cust ORDER BY cust`)
			if err != nil {
				t.Errorf("client %d: %v", i, err)
				return
			}
			results[i] = res
		}(i)
	}
	deadline := time.Now().Add(10 * time.Second)
	for db.Governor().Stats().Waiting != 8 {
		if time.Now().After(deadline) {
			t.Fatalf("clients never queued: %+v", db.Governor().Stats())
		}
		time.Sleep(time.Millisecond)
	}
	holdA.Release()
	holdB.Release()
	released = true
	wg.Wait()

	var sawQueueWait bool
	for i, res := range results {
		if res == nil {
			t.Fatalf("client %d got no result", i)
		}
		if len(res.Rows) != 10 {
			t.Fatalf("client %d: %d groups, want 10", i, len(res.Rows))
		}
		for g, row := range res.Rows {
			if row[0] != strconv.Itoa(g) {
				t.Fatalf("client %d group %d: key %q", i, g, row[0])
			}
			if n, _ := strconv.Atoi(row[1]); n != 500 {
				t.Fatalf("client %d group %d: count %q, want 500", i, g, row[1])
			}
		}
		if res.QueueWait > 0 {
			sawQueueWait = true
		}
	}
	if !sawQueueWait {
		t.Fatal("8 clients over 2 slots: no client reported queue wait > 0")
	}
	st := db.Governor().Stats()
	if st.PeakRunning > 2 {
		t.Fatalf("concurrency limit violated: %+v", st)
	}
	if st.Queued == 0 || st.TotalQueueWait <= 0 {
		t.Fatalf("expected observable queueing: %+v", st)
	}
	if st.Running != 0 || st.InUseBytes != 0 {
		t.Fatalf("pool not drained: %+v", st)
	}
	if srv.Sessions.Load() != 8 {
		t.Fatalf("sessions = %d, want 8", srv.Sessions.Load())
	}
}

// TestCancelRunningStatement cancels a spilling sort mid-flight: the
// statement must fail with a cancellation error and the grant must return
// to the pool while the session stays usable.
func TestCancelRunningStatement(t *testing.T) {
	checkGoroutines(t)
	srv, db := startServer(t, 150_000, 2<<20, 2)
	c := dial(t, srv)

	done := make(chan error, 1)
	go func() {
		// Tiny grant (1MB/operator) forces the sort to externalize run
		// after run; plenty of time to land the cancel.
		_, err := c.Exec(`SELECT sale_id, price FROM sales ORDER BY price DESC`)
		done <- err
	}()
	// Wait until the statement is actually running (holding a grant).
	deadline := time.Now().Add(5 * time.Second)
	for db.Governor().Stats().Running == 0 {
		if time.Now().After(deadline) {
			t.Fatal("statement never started")
		}
		time.Sleep(time.Millisecond)
	}
	if err := c.Cancel(); err != nil {
		t.Fatal(err)
	}
	err := <-done
	if err == nil {
		t.Fatal("cancelled statement succeeded")
	}
	if !strings.Contains(err.Error(), "canceled") {
		t.Fatalf("err = %v, want cancellation", err)
	}
	// Grant returned.
	deadline = time.Now().Add(5 * time.Second)
	for {
		st := db.Governor().Stats()
		if st.Running == 0 && st.InUseBytes == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("grant not returned: %+v", st)
		}
		time.Sleep(time.Millisecond)
	}
	// Session survives and runs the next statement.
	res, err := c.Exec(`SELECT COUNT(*) AS n FROM sales`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0] != "150000" {
		t.Fatalf("post-cancel count = %q", res.Rows[0][0])
	}
}

// TestCancelQueuedStatement cancels a statement still waiting in the
// admission queue.
func TestCancelQueuedStatement(t *testing.T) {
	checkGoroutines(t)
	srv, db := startServer(t, 1_000, 1<<20, 1)
	// Occupy the only slot out-of-band so the client's statement queues.
	hold, err := db.Governor().Admit(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer hold.Release()

	c := dial(t, srv)
	done := make(chan error, 1)
	go func() {
		_, err := c.Exec(`SELECT COUNT(*) AS n FROM sales`)
		done <- err
	}()
	deadline := time.Now().Add(5 * time.Second)
	for db.Governor().Stats().Waiting == 0 {
		if time.Now().After(deadline) {
			t.Fatal("statement never queued")
		}
		time.Sleep(time.Millisecond)
	}
	if err := c.Cancel(); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err == nil || !strings.Contains(err.Error(), "canceled") {
		t.Fatalf("queued cancel err = %v", err)
	}
	if st := db.Governor().Stats(); st.Canceled != 1 || st.Waiting != 0 {
		t.Fatalf("governor stats after queued cancel: %+v", st)
	}
}

// TestGracefulDrain lets an in-flight statement finish, then refuses new
// connections.
func TestGracefulDrain(t *testing.T) {
	checkGoroutines(t)
	srv, _ := startServer(t, 30_000, 32<<20, 2)
	c := dial(t, srv)
	done := make(chan *Result, 1)
	errCh := make(chan error, 1)
	go func() {
		res, err := c.Exec(`SELECT cust, SUM(price) AS s FROM sales GROUP BY cust ORDER BY cust`)
		if err != nil {
			errCh <- err
			return
		}
		done <- res
	}()
	time.Sleep(5 * time.Millisecond) // let the statement reach the server
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	select {
	case res := <-done:
		if len(res.Rows) != 10 {
			t.Fatalf("drained statement rows = %d", len(res.Rows))
		}
	case err := <-errCh:
		t.Fatalf("in-flight statement failed during drain: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("drained statement never completed")
	}
	if _, err := Dial(srv.Addr().String()); err == nil {
		t.Fatal("dial succeeded after shutdown")
	}
}

// TestPinnedEpochSnapshot pins a session's snapshot, loads more rows, and
// checks the pinned session keeps reading the old epoch while a fresh
// session sees the new rows.
func TestPinnedEpochSnapshot(t *testing.T) {
	checkGoroutines(t)
	srv, db := startServer(t, 100, 32<<20, 2)
	pinned := dial(t, srv)
	if _, err := pinned.Meta(`\pin`); err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, `INSERT INTO sales VALUES (100000, 99, 1.0)`)

	res, err := pinned.Exec(`SELECT COUNT(*) AS n FROM sales`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0] != "100" {
		t.Fatalf("pinned session sees %q rows, want 100", res.Rows[0][0])
	}
	fresh := dial(t, srv)
	res, err = fresh.Exec(`SELECT COUNT(*) AS n FROM sales`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0] != "101" {
		t.Fatalf("fresh session sees %q rows, want 101", res.Rows[0][0])
	}
	if _, err := pinned.Meta(`\unpin`); err != nil {
		t.Fatal(err)
	}
	res, err = pinned.Exec(`SELECT COUNT(*) AS n FROM sales`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0] != "101" {
		t.Fatalf("unpinned session sees %q rows, want 101", res.Rows[0][0])
	}
}

// TestPinCoversEveryReadPath: the pinned snapshot is a property of the
// session's statement run, so EXECUTE of a prepared SELECT and PROFILE read it
// exactly as a plain SELECT does, the statements are counted in
// v_monitor.sessions like any other, and \unpin returns all three to live reads.
func TestPinCoversEveryReadPath(t *testing.T) {
	checkGoroutines(t)
	srv, _ := startServer(t, 100, 32<<20, 2)
	a, b := dial(t, srv), dial(t, srv)
	exec := func(c *Client, q string) *Result {
		t.Helper()
		res, err := c.Exec(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		return res
	}
	// count, EXECUTE count and PROFILE's root row count as connection a sees them.
	reads := func() [3]string {
		t.Helper()
		profile := exec(a, `PROFILE SELECT sale_id FROM sales`).Message
		root, _, _ := strings.Cut(profile, " est rows=")
		return [3]string{
			exec(a, `SELECT COUNT(*) FROM sales`).Rows[0][0],
			exec(a, `EXECUTE c`).Rows[0][0],
			root[strings.LastIndex(root, "=")+1:],
		}
	}
	statements := func() int {
		t.Helper()
		// Only the session running this very query has a current statement.
		res := exec(a, `SELECT statements FROM v_monitor.sessions WHERE current_statement > ''`)
		if len(res.Rows) != 1 {
			t.Fatalf("v_monitor.sessions shows %d running statements, want this one", len(res.Rows))
		}
		n, err := strconv.Atoi(res.Rows[0][0])
		if err != nil {
			t.Fatal(err)
		}
		return n
	}

	exec(a, `PREPARE c AS SELECT COUNT(*) FROM sales`)
	if _, err := a.Meta(`\pin`); err != nil {
		t.Fatal(err)
	}
	exec(b, `INSERT INTO sales VALUES (100000, 99, 1.0), (100001, 99, 2.0)`)

	if got, want := reads(), [3]string{"100", "100", "100"}; got != want {
		t.Fatalf("pinned SELECT / EXECUTE / PROFILE root see %v rows, want %v", got, want)
	}
	before := statements()
	reads()
	if got := statements() - before; got != 4 {
		t.Fatalf("v_monitor.sessions counted %d statements across 3 pinned reads and its own query, want 4", got)
	}
	if got := exec(b, `SELECT COUNT(*) FROM sales`).Rows[0][0]; got != "102" {
		t.Fatalf("unpinned connection sees %s rows, want 102", got)
	}
	if _, err := a.Meta(`\unpin`); err != nil {
		t.Fatal(err)
	}
	if got, want := reads(), [3]string{"102", "102", "102"}; got != want {
		t.Fatalf("after \\unpin SELECT / EXECUTE / PROFILE root see %v rows, want %v", got, want)
	}
}

// TestFieldEscaping round-trips values containing protocol delimiters.
func TestFieldEscaping(t *testing.T) {
	checkGoroutines(t)
	srv, db := startServer(t, 1, 32<<20, 2)
	mustExec(t, db, `CREATE TABLE notes (id INT, body VARCHAR)`)
	mustExec(t, db, `CREATE PROJECTION notes_super ON notes (id, body) ORDER BY id SEGMENTED BY HASH(id)`)
	tricky := "line1\nline2\tcol\\end"
	if err := db.Load("notes", []types.Row{{types.NewInt(1), types.NewString(tricky)}}, true); err != nil {
		t.Fatal(err)
	}
	c := dial(t, srv)
	res, err := c.Exec(`SELECT id, body FROM notes`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][1] != tricky {
		t.Fatalf("round-trip = %q, want %q", res.Rows[0][1], tricky)
	}
}

// TestSpillStatsOnWire checks a budget-constrained statement reports spill
// bytes back to the client.
func TestSpillStatsOnWire(t *testing.T) {
	checkGoroutines(t)
	srv, _ := startServer(t, 60_000, 1<<19, 4)
	c := dial(t, srv)
	res, err := c.Exec(`SELECT sale_id, price FROM sales ORDER BY price`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 60_000 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	if res.SpilledBytes == 0 {
		t.Fatal("expected spill bytes under a 128KB operator budget")
	}
}

// TestManySequentialStatements exercises statement framing (multi-line,
// comments in strings, back-to-back statements).
func TestManySequentialStatements(t *testing.T) {
	checkGoroutines(t)
	srv, _ := startServer(t, 1_000, 32<<20, 2)
	c := dial(t, srv)
	for i := 0; i < 20; i++ {
		res, err := c.Exec(fmt.Sprintf("SELECT COUNT(*) AS n\nFROM sales\nWHERE cust = %d", i%10))
		if err != nil {
			t.Fatal(err)
		}
		if res.Rows[0][0] != "100" {
			t.Fatalf("iter %d: %q", i, res.Rows[0][0])
		}
	}
	if _, err := c.Meta(`\stats`); err != nil {
		t.Fatal(err)
	}
}

// TestDMLStatsOnWire is the regression test for the SELECT-only stats gap:
// INSERT/DELETE replies must carry queue-wait stats on the OK line exactly
// like SELECT replies carry them on the ROWS header.
func TestDMLStatsOnWire(t *testing.T) {
	checkGoroutines(t)
	srv, db := startServer(t, 100, 32<<20, 2)
	c := dial(t, srv)

	res, err := c.Exec(`INSERT INTO sales VALUES (100000, 1, 9.5)`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Message != "1 rows" {
		t.Fatalf("message = %q", res.Message)
	}
	// The DML admitted through the governor: its profile must be retained
	// and the reply must have parsed a stats suffix (wait may be zero on an
	// idle pool, but the suffix itself is mandatory — probe via a queued
	// statement below).
	st := db.Governor().Stats()
	if st.Admitted == 0 {
		t.Fatalf("governor saw no DML admission: %+v", st)
	}

	// Saturate both slots so the next DML observably queues.
	g1, err := db.Governor().Admit(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	g2, err := db.Governor().Admit(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan *Result, 1)
	errc := make(chan error, 1)
	go func() {
		res, err := c.Exec(`DELETE FROM sales WHERE sale_id = 100000`)
		if err != nil {
			errc <- err
			return
		}
		done <- res
	}()
	for db.Governor().Stats().Waiting != 1 {
		time.Sleep(time.Millisecond)
	}
	g1.Release()
	g2.Release()
	select {
	case err := <-errc:
		t.Fatal(err)
	case res = <-done:
	}
	if res.QueueWait <= 0 {
		t.Fatalf("queued DELETE reported no queue wait: %+v", res)
	}
	if res.Message != "1 rows" {
		t.Fatalf("message with stats stripped = %q", res.Message)
	}
}

// TestResourcePoolsOverTCP is the acceptance scenario: pools are created,
// selected and observed entirely over the wire — SET RESOURCE POOL
// constrains admission per session, and v_monitor.query_profiles returns
// profiles of previously executed statements with pool and queue-wait
// populated even while the pool is saturated.
func TestResourcePoolsOverTCP(t *testing.T) {
	checkGoroutines(t)
	srv, db := startServer(t, 1_000, 32<<20, 4)
	admin := dial(t, srv)

	mustWire := func(c *Client, stmt string) *Result {
		t.Helper()
		res, err := c.Exec(stmt)
		if err != nil {
			t.Fatalf("%s: %v", stmt, err)
		}
		return res
	}

	mustWire(admin, `CREATE RESOURCE POOL reporting MEMORYSIZE '4M' MAXMEMORYSIZE '8M' MAXCONCURRENCY 1 QUEUETIMEOUT 100`)

	// Session A runs in the reporting pool.
	a := dial(t, srv)
	mustWire(a, `SET RESOURCE POOL reporting`)
	mustWire(a, `SELECT COUNT(*) FROM sales`)

	// Saturate the reporting pool out-of-band; session A now times out...
	hold, err := db.Governor().AdmitPoolBytes(context.Background(), "reporting", 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Exec(`SELECT COUNT(*) FROM sales`); err == nil ||
		!strings.Contains(err.Error(), "queue timeout") {
		t.Fatalf("saturated pool should time out, got %v", err)
	}
	// ...while the admin session (general pool) is unaffected, and the
	// system tables remain queryable.
	mustWire(admin, `SELECT COUNT(*) FROM sales`)
	res := mustWire(admin, `SELECT name, running, waiting, timed_out FROM v_monitor.resource_pools WHERE name = 'reporting'`)
	if len(res.Rows) != 1 || res.Rows[0][1] != "1" || res.Rows[0][3] != "1" {
		t.Fatalf("reporting pool row = %v", res.Rows)
	}
	hold.Release()

	// Profiles of the earlier statements are queryable with pool names.
	res = mustWire(admin, `SELECT profile_id, statement, rows_produced, status
		FROM v_monitor.query_profiles WHERE pool = 'reporting' ORDER BY profile_id`)
	if len(res.Rows) < 1 {
		t.Fatalf("no reporting profiles: %v", res.Rows)
	}
	if res.Rows[0][1] != `SELECT COUNT(*) FROM sales;` || res.Rows[0][3] != "ok" {
		t.Fatalf("profile row = %v", res.Rows[0])
	}
	// The timed-out admission left an error profile? No grant existed, so
	// no profile: verify only successful profiles are present and every one
	// carries the pool name.
	for _, r := range res.Rows {
		if r[3] != "ok" {
			t.Fatalf("unexpected non-ok profile: %v", r)
		}
	}

	// Sessions table shows the pool assignment of the live sessions.
	res = mustWire(admin, `SELECT pool, COUNT(*) FROM v_monitor.sessions GROUP BY pool ORDER BY pool`)
	got := map[string]string{}
	for _, r := range res.Rows {
		got[r[0]] = r[1]
	}
	if got["reporting"] != "1" || got["general"] == "" {
		t.Fatalf("session pools = %v", got)
	}

	// Queue-wait lands in profiles when a statement actually queues.
	hold2, err := db.Governor().AdmitPoolBytes(context.Background(), "reporting", 0)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := a.Exec(`SELECT MAX(price) FROM sales`)
		done <- err
	}()
	for db.Governor().Stats().Waiting != 1 {
		time.Sleep(time.Millisecond)
	}
	hold2.Release()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	res = mustWire(admin, `SELECT queue_wait_us FROM v_monitor.query_profiles
		WHERE pool = 'reporting' AND statement = 'SELECT MAX(price) FROM sales;'`)
	if len(res.Rows) != 1 {
		t.Fatalf("queued profile missing: %v", res.Rows)
	}
	if w, err := strconv.ParseInt(res.Rows[0][0], 10, 64); err != nil || w <= 0 {
		t.Fatalf("queue_wait_us = %v (%v)", res.Rows[0][0], err)
	}
}

// TestSessionStopsForDeadPeer queues eight large fetches on one connection
// and resets it as soon as the first reply starts arriving. The first failed
// write must end the session: at most one more statement is admitted (a
// reply that fits the socket buffers whole fails only on the write after
// it), the rest of the queue is dropped unrun, and the handler exits.
func TestSessionStopsForDeadPeer(t *testing.T) {
	checkGoroutines(t)
	srv, db := startServer(t, 100_000, 64<<20, 2)
	admitted := db.Governor().Stats().Admitted
	conn, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	const queued = 8
	if _, err := io.WriteString(conn, strings.Repeat("SELECT sale_id, cust, price FROM sales;\n", queued)); err != nil {
		t.Fatal(err)
	}
	if _, err := io.ReadFull(conn, make([]byte, 4)); err != nil {
		t.Fatal(err)
	}
	conn.(*net.TCPConn).SetLinger(0) // close with RST: the server's next write fails
	conn.Close()

	deadline := time.Now().Add(10 * time.Second)
	for {
		srv.mu.Lock()
		open := len(srv.conns)
		srv.mu.Unlock()
		if open == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("handler still running %v after its peer went away", 10*time.Second)
		}
		time.Sleep(time.Millisecond)
	}
	if ran := db.Governor().Stats().Admitted - admitted; ran > 2 {
		t.Fatalf("%d of %d queued statements ran for a peer that was gone, want at most 2", ran, queued)
	}
	if st := db.Governor().Stats(); st.Running != 0 || st.InUseBytes != 0 {
		t.Fatalf("grants outstanding after the session ended: %+v", st)
	}
}

// checkGoroutines fails the test unless, after it ends, the goroutine count
// falls back to what it was when this was called, within a deadline: no
// session, reader, drain or client goroutine may outlive the test that
// started it. Every test here calls it first, so its check runs last.
func checkGoroutines(t *testing.T) {
	t.Helper()
	before := runtime.NumGoroutine()
	t.Cleanup(func() {
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > before {
			if time.Now().After(deadline) {
				buf := make([]byte, 1<<16)
				t.Errorf("goroutines leaked: %d before, %d after\n%s", before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
				return
			}
			time.Sleep(5 * time.Millisecond)
		}
	})
}
