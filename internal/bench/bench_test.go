package bench

import "testing"

// TestTable3SmallScale runs Table 3's seven queries on both engines: each
// returns groups, the engines agree on every cardinality, and Vertica's
// disk footprint is the smaller.
func TestTable3SmallScale(t *testing.T) {
	const n = 30_000
	db, err := SetupVertica(t.TempDir(), n, 0)
	if err != nil {
		t.Fatal(err)
	}
	st := SetupCStore(n)
	for q := 0; q < 7; q++ {
		vRows, err := RunVerticaQuery(db, q)
		if err != nil {
			t.Fatalf("Q%d vertica: %v", q+1, err)
		}
		cRows, err := RunCStoreQuery(st, q)
		if err != nil {
			t.Fatalf("Q%d cstore: %v", q+1, err)
		}
		if vRows == 0 {
			t.Errorf("Q%d returned no groups", q+1)
		}
		if vRows != cRows {
			t.Errorf("Q%d cardinality: vertica %d, cstore %d", q+1, vRows, cRows)
		}
	}
	cDisk, err := st.WriteDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	vDisk := VerticaDiskBytes(db)
	if vDisk <= 0 || cDisk <= 0 {
		t.Error("disk sizes missing")
	}
	// The paper's shape: Vertica uses less disk than C-Store.
	if vDisk >= cDisk {
		t.Errorf("vertica disk %d >= cstore disk %d: compression advantage lost", vDisk, cDisk)
	}
}

func TestTable4IntsShape(t *testing.T) {
	rows, err := Table4Ints(t.TempDir(), 100_000, 10_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	raw, gz, gzSort, vertica := rows[0], rows[1], rows[2], rows[3]
	// Paper shape: raw > gzip > gzip+sort > Vertica.
	if !(raw.Bytes > gz.Bytes && gz.Bytes > gzSort.Bytes && gzSort.Bytes > vertica.Bytes) {
		t.Errorf("ordering violated: raw=%d gzip=%d gzip+sort=%d vertica=%d",
			raw.Bytes, gz.Bytes, gzSort.Bytes, vertica.Bytes)
	}
	// Paper: Vertica ~12.5x vs raw (0.6 MB from 7.5 MB) at 1M rows; at this
	// reduced scale the delta-dictionary overhead per block is relatively
	// larger, so require >4x.
	if vertica.Ratio < 4 {
		t.Errorf("vertica ratio = %.1f, want > 4", vertica.Ratio)
	}
}

func TestTable4MeterShape(t *testing.T) {
	summary, perCol, err := Table4Meter(t.TempDir(), 200_000)
	if err != nil {
		t.Fatal(err)
	}
	if len(summary) != 3 || len(perCol) != 4 {
		t.Fatalf("summary=%d perCol=%d", len(summary), len(perCol))
	}
	raw, gz, vertica := summary[0], summary[1], summary[2]
	if !(raw.Bytes > gz.Bytes && gz.Bytes > vertica.Bytes) {
		t.Errorf("ordering violated: raw=%d gzip=%d vertica=%d", raw.Bytes, gz.Bytes, vertica.Bytes)
	}
	// Paper: Vertica beats gzip (14.8x vs 5.9x) and lands near ~2 bytes/row
	// at 200M rows; at small scale require simply beating gzip and raw by a
	// wide margin.
	if vertica.Ratio < gz.Ratio {
		t.Errorf("vertica ratio %.1f < gzip ratio %.1f", vertica.Ratio, gz.Ratio)
	}
	// Per-column shape (§8.2.2): metric compresses to almost nothing;
	// value dominates the footprint.
	metric, value := perCol[0], perCol[3]
	if metric.Bytes*10 > value.Bytes {
		t.Errorf("metric (%d B) should be far smaller than value (%d B)", metric.Bytes, value.Bytes)
	}
}
