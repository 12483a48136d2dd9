package bench

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/types"
)

// Table 4 reproduction (§8.2): compression of one million random integers
// and of the customer meter dataset, comparing raw text, gzip, gzip of
// sorted data, and the engine's columnar storage.

// CompressionRow is one Table 4 line.
type CompressionRow struct {
	Label       string
	Bytes       int64
	Ratio       float64 // vs raw
	BytesPerRow float64
}

// Table4Ints runs the §8.2.1 experiment on n random integers in [1, max].
func Table4Ints(dir string, n int, max int64) ([]CompressionRow, error) {
	vals := gen.RandomInts(n, max, 7)
	raw := gen.IntsTextBytes(vals)
	gz, err := gzipBytes(raw)
	if err != nil {
		return nil, err
	}
	sorted := append([]int64{}, vals...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	gzSorted, err := gzipBytes(gen.IntsTextBytes(sorted))
	if err != nil {
		return nil, err
	}
	// Vertica: a single-column table with a sorted projection; the engine
	// sorts on load and picks the encoding empirically (Auto).
	db, err := core.Open(core.Options{Dir: dir})
	if err != nil {
		return nil, err
	}
	if _, err := db.Execute(`CREATE TABLE ints (x INT)`); err != nil {
		return nil, err
	}
	if _, err := db.Execute(`CREATE PROJECTION ints_super ON ints (x) ORDER BY x SEGMENTED BY HASH(x)`); err != nil {
		return nil, err
	}
	rows := make([]types.Row, n)
	for i, v := range vals {
		rows[i] = types.Row{types.NewInt(v)}
	}
	if err := db.Load("ints", rows, true); err != nil {
		return nil, err
	}
	vBytes, err := projectionColumnBytes(db, "ints_super", "x")
	if err != nil {
		return nil, err
	}
	mk := func(label string, b int64) CompressionRow {
		return CompressionRow{
			Label: label, Bytes: b,
			Ratio:       float64(len(raw)) / float64(b),
			BytesPerRow: float64(b) / float64(n),
		}
	}
	return []CompressionRow{
		mk("Raw", int64(len(raw))),
		mk("gzip", int64(len(gz))),
		mk("gzip+sort", int64(len(gzSorted))),
		mk("Vertica", vBytes),
	}, nil
}

// Table4Meter runs the §8.2.2 experiment on n meter-metric rows (the paper
// used 200M; bytes-per-row is the scale-free comparator).
func Table4Meter(dir string, n int) ([]CompressionRow, []CompressionRow, error) {
	rows := gen.MeterData(n, 300, 2000, 11)
	csv := gen.MeterCSVBytes(rows)
	gz, err := gzipBytes(csv)
	if err != nil {
		return nil, nil, err
	}
	db, err := core.Open(core.Options{Dir: dir})
	if err != nil {
		return nil, nil, err
	}
	stmts := []string{
		`CREATE TABLE meters (metric VARCHAR, meter INT, ts TIMESTAMP, value FLOAT)`,
		// Sorted on metric, meter, collection time — "Vertica not only
		// optimizes common query predicates ... but exposes great
		// compression opportunities for each column" (§8.2.2).
		`CREATE PROJECTION meters_super ON meters (metric, meter, ts, value)
			ORDER BY metric, meter, ts SEGMENTED BY HASH(meter)`,
	}
	for _, s := range stmts {
		if _, err := db.Execute(s); err != nil {
			return nil, nil, err
		}
	}
	if err := db.Load("meters", rows, true); err != nil {
		return nil, nil, err
	}
	var vertica int64
	perCol := make([]CompressionRow, 0, 4)
	for _, col := range []string{"metric", "meter", "ts", "value"} {
		b, err := projectionColumnBytes(db, "meters_super", col)
		if err != nil {
			return nil, nil, err
		}
		vertica += b
		perCol = append(perCol, CompressionRow{
			Label: col, Bytes: b,
			BytesPerRow: float64(b) / float64(len(rows)),
		})
	}
	mk := func(label string, b int64) CompressionRow {
		return CompressionRow{
			Label: label, Bytes: b,
			Ratio:       float64(len(csv)) / float64(b),
			BytesPerRow: float64(b) / float64(len(rows)),
		}
	}
	summary := []CompressionRow{
		mk("Raw CSV", int64(len(csv))),
		mk("gzip", int64(len(gz))),
		mk("Vertica", vertica),
	}
	return summary, perCol, nil
}

// projectionColumnBytes sums the encoded bytes of one column across a
// projection's containers (excluding position indexes and the implicit
// epoch column so the comparison matches the paper's per-column numbers).
func projectionColumnBytes(db *core.Database, projName, col string) (int64, error) {
	p, err := db.Catalog().Projection(projName)
	if err != nil {
		return 0, err
	}
	var total int64
	for _, n := range db.Cluster().Nodes() {
		mgr, err := n.Mgr(p, db.Cluster().ManagerOpts())
		if err != nil {
			return 0, err
		}
		for _, r := range mgr.Containers() {
			ci := r.Meta.ColIndex(col)
			if ci < 0 {
				return 0, fmt.Errorf("bench: projection %s lacks column %s", projName, col)
			}
			pidx, err := r.Pidx(ci)
			if err != nil {
				return 0, err
			}
			for _, e := range pidx {
				total += e.Length
			}
		}
	}
	return total, nil
}

func gzipBytes(b []byte) ([]byte, error) {
	var buf bytes.Buffer
	w, err := gzip.NewWriterLevel(&buf, gzip.DefaultCompression)
	if err != nil {
		return nil, err
	}
	if _, err := w.Write(b); err != nil {
		return nil, err
	}
	if err := w.Close(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}
