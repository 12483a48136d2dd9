package core

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

// BenchmarkInsertValues runs the ingest statement of the benchmark's
// ingest_query workload: a 200-row INSERT … VALUES into a five-column table
// partitioned by id / 40000 and segmented by HASH(id) on one node, with a
// tuple-mover cycle every 50 statements. The mover cycles, and the making
// of the statements' text, run outside the timer. Run it with -benchmem;
// it also reports ns a row.
func BenchmarkInsertValues(b *testing.B) {
	const rowsPerStmt, moverEvery = 200, 50
	db := openTestDB(b, 1, 0)
	db.MustExecute(`CREATE TABLE events (id INT, grp INT, val FLOAT, ts TIMESTAMP, note VARCHAR)
		PARTITION BY id / 40000`)
	db.MustExecute(`CREATE PROJECTION events_super ON events (id, grp, val, ts, note)
		ORDER BY id SEGMENTED BY HASH(id)`)
	notes := [4]string{"alpha", "beta", "gamma", "delta-long-note"}
	next := 0
	stmts := func() []string {
		out := make([]string, moverEvery)
		for k := range out {
			var sb strings.Builder
			sb.WriteString("INSERT INTO events VALUES ")
			for j := range rowsPerStmt {
				i := next + j
				if j > 0 {
					sb.WriteString(", ")
				}
				ts := time.UnixMicro(1_293_840_000_000_000 + int64(i)*1_000_000).UTC().Format("2006-01-02 15:04:05")
				fmt.Fprintf(&sb, "(%d, %d, %v, TIMESTAMP '%s', '%s')", i, (i*7)%16, float64((i*13)%1000)/8, ts, notes[i%4])
			}
			next += rowsPerStmt
			out[k] = sb.String()
		}
		return out
	}
	batch := stmts()
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		if n > 0 && n%moverEvery == 0 {
			b.StopTimer()
			if _, _, err := db.RunTupleMover(); err != nil {
				b.Fatal(err)
			}
			batch = stmts()
			b.StartTimer()
		}
		if _, err := db.Execute(batch[n%moverEvery]); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*rowsPerStmt), "ns/row")
}
