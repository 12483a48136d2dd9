package server

import (
	"fmt"
	"strings"
	"testing"
)

// TestBinaryFormatRoundTrip verifies binary-mode results decode to exactly
// the rows the text protocol carries, across chunk boundaries (the fixture
// exceeds binaryBlockRows) and for NULL-bearing and empty result sets.
func TestBinaryFormatRoundTrip(t *testing.T) {
	checkGoroutines(t)
	srv, _ := startServer(t, 10_000, 32<<20, 4)
	text := dial(t, srv)
	bin := dial(t, srv)
	if err := bin.Format("binary"); err != nil {
		t.Fatal(err)
	}

	queries := []string{
		`SELECT sale_id, cust, price FROM sales ORDER BY sale_id`,
		`SELECT cust, COUNT(*), SUM(price) FROM sales GROUP BY cust ORDER BY cust`,
		`SELECT sale_id FROM sales WHERE sale_id < 0`,
		`SELECT SUM(price) FROM sales WHERE sale_id < 0`, // NULL aggregate
	}
	for _, q := range queries {
		want, err := text.Exec(q)
		if err != nil {
			t.Fatalf("%s (text): %v", q, err)
		}
		got, err := bin.Exec(q)
		if err != nil {
			t.Fatalf("%s (binary): %v", q, err)
		}
		if strings.Join(got.Cols, "|") != strings.Join(want.Cols, "|") {
			t.Fatalf("%s: cols %v != %v", q, got.Cols, want.Cols)
		}
		if len(got.Rows) != len(want.Rows) {
			t.Fatalf("%s: %d rows != %d rows", q, len(got.Rows), len(want.Rows))
		}
		for i := range want.Rows {
			if strings.Join(got.Rows[i], "|") != strings.Join(want.Rows[i], "|") {
				t.Fatalf("%s row %d: %v != %v", q, i, got.Rows[i], want.Rows[i])
			}
		}
	}
}

// TestBinaryFormatBytesPerRow asserts the point of the columnar frame: the
// sorted sale_id and low-cardinality cust columns compress on the wire, so
// binary mode moves fewer bytes per row than the text frame for the same
// multi-column scan.
func TestBinaryFormatBytesPerRow(t *testing.T) {
	checkGoroutines(t)
	srv, _ := startServer(t, 20_000, 32<<20, 4)
	const q = `SELECT sale_id, cust, price FROM sales ORDER BY sale_id`

	text := dial(t, srv)
	before := text.BytesRead()
	if _, err := text.Exec(q); err != nil {
		t.Fatal(err)
	}
	textBytes := text.BytesRead() - before

	bin := dial(t, srv)
	if err := bin.Format("binary"); err != nil {
		t.Fatal(err)
	}
	before = bin.BytesRead()
	if _, err := bin.Exec(q); err != nil {
		t.Fatal(err)
	}
	binBytes := bin.BytesRead() - before

	if binBytes >= textBytes {
		t.Fatalf("binary frame (%d bytes) not smaller than text (%d bytes)", binBytes, textBytes)
	}
	t.Logf("text %d bytes, binary %d bytes (%.1fx smaller)", textBytes, binBytes,
		float64(textBytes)/float64(binBytes))
}

// TestFormatNegotiation covers the \format meta command: querying the mode,
// switching back to text, and rejecting unknown formats.
func TestFormatNegotiation(t *testing.T) {
	checkGoroutines(t)
	srv, _ := startServer(t, 10, 32<<20, 2)
	c := dial(t, srv)

	res, err := c.Meta(`\format`)
	if err != nil || res.Message != "format text" {
		t.Fatalf("default format: %v %v", res, err)
	}
	if err := c.Format("binary"); err != nil {
		t.Fatal(err)
	}
	res, err = c.Meta(`\format`)
	if err != nil || res.Message != "format binary" {
		t.Fatalf("after negotiation: %v %v", res, err)
	}
	if err := c.Format("text"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Exec(`SELECT COUNT(*) FROM sales`); err != nil {
		t.Fatalf("text mode after switch-back: %v", err)
	}
	if err := c.Format("csv"); err == nil || !strings.Contains(err.Error(), "unknown result format") {
		t.Fatalf("bad format accepted: %v", err)
	}
}

// TestPreparedStatementsOverWire drives PREPARE/EXECUTE/DEALLOCATE through
// the TCP protocol, including the error replies for unknown names and
// argument arity mismatches.
func TestPreparedStatementsOverWire(t *testing.T) {
	checkGoroutines(t)
	srv, _ := startServer(t, 1_000, 32<<20, 2)
	c := dial(t, srv)

	if _, err := c.Exec(`PREPARE pt AS SELECT sale_id, price FROM sales WHERE cust = $1 AND sale_id < $2 ORDER BY sale_id`); err != nil {
		t.Fatal(err)
	}
	res, err := c.Exec(`EXECUTE pt(3, 50)`)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range res.Rows {
		if row[0] >= "50" && len(row[0]) >= 2 {
			t.Fatalf("row outside predicate: %v", row)
		}
	}
	direct, err := c.Exec(`SELECT sale_id, price FROM sales WHERE cust = 3 AND sale_id < 50 ORDER BY sale_id`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != len(direct.Rows) {
		t.Fatalf("EXECUTE returned %d rows, ad-hoc %d", len(res.Rows), len(direct.Rows))
	}

	if _, err := c.Exec(`EXECUTE missing(1)`); err == nil || !strings.Contains(err.Error(), "does not exist") {
		t.Fatalf("unknown statement: %v", err)
	}
	if _, err := c.Exec(`EXECUTE pt(1)`); err == nil || !strings.Contains(err.Error(), "parameter") {
		t.Fatalf("arity mismatch: %v", err)
	}
	if _, err := c.Exec(`DEALLOCATE pt`); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Exec(`EXECUTE pt(3, 50)`); err == nil {
		t.Fatal("EXECUTE after DEALLOCATE succeeded")
	}

	// Prepared statements are session-scoped: a second connection cannot
	// execute this session's statement.
	if _, err := c.Exec(`PREPARE pt AS SELECT COUNT(*) FROM sales WHERE cust = $1`); err != nil {
		t.Fatal(err)
	}
	other := dial(t, srv)
	if _, err := other.Exec(`EXECUTE pt(1)`); err == nil {
		t.Fatal("prepared statement leaked across sessions")
	}
}

// TestClassifyPinnedRouting checks the parser-driven classification that
// replaced prefix sniffing: on a pinned session, EXPLAIN goes through the
// session executor (plan text in an OK frame), EXECUTE reaches the
// session's prepared statements, and a plain SELECT still reads the pinned
// epoch.
func TestClassifyPinnedRouting(t *testing.T) {
	checkGoroutines(t)
	srv, db := startServer(t, 100, 32<<20, 2)
	c := dial(t, srv)

	if _, err := c.Exec(`PREPARE cnt AS SELECT COUNT(*) FROM sales WHERE cust = $1`); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Meta(`\pin`); err != nil {
		t.Fatal(err)
	}
	res, err := c.Exec(`SELECT COUNT(*) FROM sales`)
	if err != nil {
		t.Fatal(err)
	}
	pinnedCount := res.Rows[0][0]

	// New rows land in a later epoch; the pinned SELECT must not see them.
	mustExec(t, db, `INSERT INTO sales VALUES (100000, 1, 1.0)`)
	res, err = c.Exec(`SELECT COUNT(*) FROM sales`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0] != pinnedCount {
		t.Fatalf("pinned SELECT saw new epoch: %s != %s", res.Rows[0][0], pinnedCount)
	}

	// EXPLAIN must not be routed to the pinned SELECT path.
	res, err = c.Exec(`EXPLAIN SELECT COUNT(*) FROM sales`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Message == "" || !strings.Contains(res.Message, "Scan") {
		t.Fatalf("EXPLAIN reply missing plan text: %q", res.Message)
	}

	// EXECUTE must reach the session executor (prepared map lives there).
	if _, err := c.Exec(fmt.Sprintf(`EXECUTE cnt(%d)`, 1)); err != nil {
		t.Fatalf("EXECUTE on pinned session: %v", err)
	}
}
