package server

import (
	"bytes"
	"flag"
	"io"
	"math"
	"net"
	"os"
	"path/filepath"
	"regexp"
	"testing"
	"time"

	"repro/internal/types"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden reply files from what the server sends now")

// Timings are the only bytes of a reply that differ between two runs: the
// queue wait and wall clock of a ROWS / BROWS header and of a DML OK line.
var (
	rowsTimings = regexp.MustCompile(`(?m)^(B?ROWS(?: \d+){2,3}) \d+ (\d+) \d+$`)
	okTimings   = regexp.MustCompile(`wait_us=\d+ (spilled=\d+) wall_us=\d+\]`)
)

func maskTimings(reply []byte) []byte {
	reply = rowsTimings.ReplaceAll(reply, []byte("$1 _ $2 _"))
	return okTimings.ReplaceAll(reply, []byte("wait_us=_ $1 wall_us=_]"))
}

// TestGoldenReplies pins the wire format byte for byte: one session's whole
// reply stream — result sets over all five types with NULLs, escapes,
// multi-byte text and run-length constant columns, an empty result, an
// aggregate, DML, EXPLAIN-free errors — must equal the stream recorded from
// the row-at-a-time renderer this one replaced (testdata/replies_*.golden,
// timings masked), in text and in binary framing.
func TestGoldenReplies(t *testing.T) {
	checkGoroutines(t)
	srv, db := startServer(t, 3, 32<<20, 2)
	mustExec(t, db, `CREATE TABLE g (id INT, f FLOAT, s VARCHAR, b BOOLEAN, ts TIMESTAMP)`)
	mustExec(t, db, `CREATE PROJECTION g_super ON g (id, f, s, b, ts) ORDER BY id SEGMENTED BY HASH(id)`)
	ts := func(s string) types.Value {
		tm, err := time.Parse(time.RFC3339Nano, s)
		if err != nil {
			t.Fatal(err)
		}
		return types.NewTimestamp(tm)
	}
	null := types.NewNull
	rows := []types.Row{
		{types.NewInt(1), types.NewFloat(0.1), types.NewString("plain"), types.NewBool(true), ts("2012-08-27T09:30:00Z")},
		{types.NewInt(2), types.NewFloat(-2.5e-7), types.NewString(""), types.NewBool(false), ts("1969-12-31T23:59:59.999999Z")},
		{types.NewInt(3), types.NewFloat(1e21), types.NewString("NULL"), null(types.Bool), ts("2038-01-19T03:14:08Z")},
		{types.NewInt(4), null(types.Float64), null(types.Varchar), types.NewBool(true), null(types.Timestamp)},
		{types.NewInt(5), types.NewFloat(math.Inf(-1)), types.NewString("tab\there\nline\rcr\\slash"), types.NewBool(false), ts("0001-01-01T00:00:00Z")},
		{types.NewInt(6), types.NewFloat(123456789.125), types.NewString("naïve — 数据库 🙂"), types.NewBool(true), ts("9999-12-31T23:59:59Z")},
		{types.NewInt(math.MinInt64), types.NewFloat(-0.0), types.NewString(`\t is not a tab`), null(types.Bool), ts("2012-08-27T09:30:00.5Z")},
		{null(types.Int64), types.NewFloat(3), types.NewString(" lead and trail "), types.NewBool(false), ts("2000-02-29T12:00:00Z")},
	}
	if err := db.Load("g", rows, true); err != nil {
		t.Fatal(err)
	}
	statements := "SELECT id, f, s, b, ts FROM g ORDER BY id;\n" +
		"SELECT id, 7 AS seven, 'k\tv' AS tag, s FROM g WHERE id > 0 ORDER BY id;\n" +
		"SELECT s, id FROM g WHERE id > 100;\n" +
		"SELECT COUNT(*) AS n, SUM(f) AS total, MIN(s) AS lo, MAX(ts) AS latest FROM g WHERE id > 0 AND id < 5;\n" +
		"SELECT cust, COUNT(*) AS n, AVG(price) AS mean FROM sales GROUP BY cust ORDER BY cust;\n" +
		"INSERT INTO sales VALUES (100, 1, 2.5);\n" +
		"SELECT nope FROM g;\n" +
		"\\stats_is_not_a_command\n" +
		"\\q\n"
	for _, format := range []string{"text", "binary"} {
		conn, err := net.Dial("tcp", srv.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		conn.SetDeadline(time.Now().Add(10 * time.Second))
		if _, err := io.WriteString(conn, "\\format "+format+"\n"+statements); err != nil {
			t.Fatal(err)
		}
		raw, err := io.ReadAll(conn) // the server closes after \q
		conn.Close()
		if err != nil {
			t.Fatal(err)
		}
		got := maskTimings(raw)
		path := filepath.Join("testdata", "replies_"+format+".golden")
		if *updateGolden {
			if err := os.MkdirAll("testdata", 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, got, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s replies differ from %s:\n got %q\nwant %q", format, path, got, want)
		}
	}
}
