package server

import (
	"bufio"
	"bytes"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/types"
	"repro/internal/vector"
)

// sink is a session's peer that keeps (or, when nil, drops) what it is sent.
type sink struct{ buf *bytes.Buffer }

func (s sink) Write(p []byte) (int, error) {
	if s.buf == nil {
		return len(p), nil
	}
	return s.buf.Write(p)
}
func (sink) Close() error { return nil }

// renderSession is a session with no server behind it: enough to render
// replies into buf (nil discards them).
func renderSession(buf *bytes.Buffer, binary bool) *session {
	return &session{conn: sink{buf}, binary: binary}
}

// render returns the reply frame a session sends for res.
func render(res *core.Result, binary bool) []byte {
	var buf bytes.Buffer
	st := renderSession(&buf, binary)
	st.writeResult(res)
	st.flush()
	return buf.Bytes()
}

// parse runs the client's reply parser over a recorded frame.
func parse(frame []byte) (*Result, error) {
	c := &Client{br: bufio.NewReaderSize(bytes.NewReader(frame), 64<<10)}
	return c.readReply()
}

var fiveTypes = types.NewSchema(
	types.Column{Name: "i", Typ: types.Int64},
	types.Column{Name: "f", Typ: types.Float64},
	types.Column{Name: "s\twith tab", Typ: types.Varchar},
	types.Column{Name: "b", Typ: types.Bool},
	types.Column{Name: "ts", Typ: types.Timestamp},
)

var (
	sampleStrings = []string{"", "NULL", "plain", "a\tb", "line\nfeed", "cr\rhere", `back\slash`, `\t`, `\\`,
		"naïve — 数据库 🙂", "tab at end\t", "\n", " padded ", `\`, "x\\\ty"}
	sampleFloats = []float64{0, 1, -1, 0.1, 1e21, -2.5e-7, math.Inf(1), math.Inf(-1), math.NaN(), math.MaxFloat64,
		math.SmallestNonzeroFloat64, 123456789.125}
	sampleInts = []int64{0, 1, -1, 42, math.MaxInt64, math.MinInt64, 1346059800000000, -1}
)

func randomValue(rng *rand.Rand, t types.Type) types.Value {
	if rng.Intn(6) == 0 {
		return types.NewNull(t)
	}
	switch t {
	case types.Float64:
		if rng.Intn(2) == 0 {
			return types.NewFloat(sampleFloats[rng.Intn(len(sampleFloats))])
		}
		return types.NewFloat(rng.NormFloat64() * 1e6)
	case types.Varchar:
		return types.NewString(sampleStrings[rng.Intn(len(sampleStrings))])
	case types.Bool:
		return types.NewBool(rng.Intn(2) == 0)
	case types.Timestamp:
		// Year 0001 to 9999, the range the layout renders with four digits.
		return types.NewTimestampMicros(rng.Int63n(315537897599e6) - 62135596800e6)
	default:
		if rng.Intn(2) == 0 {
			return types.NewInt(sampleInts[rng.Intn(len(sampleInts))])
		}
		return types.NewInt(rng.Int63n(2_000_000) - 1_000_000)
	}
}

// randomBatch builds a batch of n live rows in one of the three shapes a
// plan root hands over: flat, selected (live rows scattered among decoys),
// or with some columns run-length encoded.
func randomBatch(rng *rand.Rand, schema *types.Schema, n int) *vector.Batch {
	switch rng.Intn(3) {
	case 0: // flat
		b := vector.NewBatchForSchema(schema, n)
		for r := 0; r < n; r++ {
			for c, col := range b.Cols {
				col.AppendValue(randomValue(rng, schema.Col(c).Typ))
			}
		}
		return b
	case 1: // selected: every physical row is a decoy unless Sel names it
		phys := n + rng.Intn(2*n+3)
		b := vector.NewBatchForSchema(schema, phys)
		for r := 0; r < phys; r++ {
			for c, col := range b.Cols {
				col.AppendValue(randomValue(rng, schema.Col(c).Typ))
			}
		}
		b.Sel = rng.Perm(phys)[:n]
		sort.Ints(b.Sel)
		return b
	default: // RLE: each column independently flat or in runs (zero-length runs included)
		b := vector.NewBatchForSchema(schema, n)
		for c, col := range b.Cols {
			if rng.Intn(3) == 0 {
				for r := 0; r < n; r++ {
					col.AppendValue(randomValue(rng, schema.Col(c).Typ))
				}
				continue
			}
			col.RunLens = []int{}
			for left := n; left > 0; {
				run := rng.Intn(left + 1)
				col.AppendValue(randomValue(rng, schema.Col(c).Typ))
				col.RunLens = append(col.RunLens, run)
				left -= run
			}
		}
		return b
	}
}

// fieldEscaper is the replacer the renderer once ran on a cell holding a
// delimiter; appendField now escapes such a cell byte by byte.
var fieldEscaper = strings.NewReplacer("\\", "\\\\", "\t", "\\t", "\n", "\\n", "\r", "\\r")

// referenceLines renders rows the way the row-at-a-time writer this package
// used to have did: Value.String, the escaper on every cell, strings.Join.
func referenceLines(rows []types.Row) []string {
	out := make([]string, len(rows))
	for i, row := range rows {
		cells := make([]string, len(row))
		for c, v := range row {
			cells[c] = fieldEscaper.Replace(v.String())
		}
		out[i] = strings.Join(cells, "\t")
	}
	return out
}

// TestRenderParseProperty drives random results through both frames and the
// client: what comes out must be Value.String of what went in, cell for
// cell, and the text frame's data lines must be the reference renderer's.
func TestRenderParseProperty(t *testing.T) {
	checkGoroutines(t)
	rng := rand.New(rand.NewSource(20120827))
	for iter := 0; iter < 300; iter++ {
		var batches []*vector.Batch
		maxRows := 40
		if iter%50 == 0 {
			maxRows = 3000 // results that cross the binary frame's 4096-row chunks
		}
		for nb := rng.Intn(4); nb > 0; nb-- {
			batches = append(batches, randomBatch(rng, fiveTypes, 1+rng.Intn(maxRows)))
		}
		rows := vector.Rows(batches)
		res := &core.Result{Schema: fiveTypes, Batches: batches}
		res.Stats.QueryID = int64(iter)
		res.Stats.QueueWait = time.Duration(rng.Intn(1000)) * time.Microsecond
		res.Stats.WallTime = time.Duration(1+rng.Intn(1000)) * time.Microsecond

		text := render(res, false)
		lines := strings.Split(string(text), "\n")
		want := referenceLines(rows)
		if len(lines) != len(want)+4 || lines[len(want)+2] != "DONE" || lines[len(want)+3] != "" {
			t.Fatalf("iter %d: %d lines for %d rows: %q", iter, len(lines), len(want), text)
		}
		for i, w := range want {
			if lines[2+i] != w {
				t.Fatalf("iter %d: data line %d = %q, reference %q", iter, i, lines[2+i], w)
			}
		}
		for _, frame := range [][]byte{text, render(res, true)} {
			got, err := parse(frame)
			if err != nil {
				t.Fatalf("iter %d: %v\n%q", iter, err, frame)
			}
			if got.QueryID != res.Stats.QueryID || got.QueueWait != res.Stats.QueueWait || got.WallTime != res.Stats.WallTime {
				t.Fatalf("iter %d: header stats %+v, sent %+v", iter, got, res.Stats)
			}
			if len(got.Cols) != fiveTypes.Len() || got.Cols[2] != "s\twith tab" {
				t.Fatalf("iter %d: cols %q", iter, got.Cols)
			}
			if len(got.Rows) != len(rows) {
				t.Fatalf("iter %d: %d rows back, %d sent", iter, len(got.Rows), len(rows))
			}
			for r, row := range rows {
				for c, v := range row {
					if got.Rows[r][c] != v.String() {
						t.Fatalf("iter %d (%q...): row %d col %d = %q, want %q", iter, frame[:5], r, c, got.Rows[r][c], v.String())
					}
				}
			}
		}
	}
}

// fetchResult is a serving_fetch-shaped result: rows × (sale_id, cust,
// price, qty) in batches of 4096, the price a decimal of cents.
func fetchResult(rows int) *core.Result {
	schema := types.NewSchema(
		types.Column{Name: "sale_id", Typ: types.Int64}, types.Column{Name: "cust", Typ: types.Int64},
		types.Column{Name: "price", Typ: types.Float64}, types.Column{Name: "qty", Typ: types.Int64})
	res := &core.Result{Schema: schema}
	for lo := 0; lo < rows; lo += vector.DefaultBatchSize {
		b := vector.NewBatchForSchema(schema, vector.DefaultBatchSize)
		for i := lo; i < min(lo+vector.DefaultBatchSize, rows); i++ {
			b.AppendRow(types.Row{types.NewInt(int64(100000 + i)), types.NewInt(int64(i % 10)),
				types.NewFloat(float64(i*7%9973) / 100), types.NewInt(int64(i % 3))})
		}
		res.Batches = append(res.Batches, b)
	}
	res.Stats.QueryID = 1234
	res.Stats.WallTime = 85 * time.Microsecond
	return res
}

// mixedResult is fetchResult with the cells the plain one lacks: cust in
// runs of 16, a NULL in every seventh price, and a VARCHAR name before qty,
// one in three of which holds a delimiter the renderer escapes.
func mixedResult(rows int) *core.Result {
	schema := types.NewSchema(
		types.Column{Name: "sale_id", Typ: types.Int64}, types.Column{Name: "cust", Typ: types.Int64},
		types.Column{Name: "price", Typ: types.Float64}, types.Column{Name: "name", Typ: types.Varchar},
		types.Column{Name: "qty", Typ: types.Int64})
	names := []string{"anvil", "rocket skates", "giant\tmagnet", "bird seed", `C:\acme\crate`, "two\r\nlines"}
	res := &core.Result{Schema: schema}
	for lo := 0; lo < rows; lo += vector.DefaultBatchSize {
		hi := min(lo+vector.DefaultBatchSize, rows)
		b := vector.NewBatchForSchema(schema, hi-lo)
		cust := b.Cols[1]
		cust.RunLens = []int{}
		for i := lo; i < hi; i++ {
			price := types.NewFloat(float64(i*7%9973) / 100)
			if i%7 == 0 {
				price = types.NewNull(types.Float64)
			}
			b.Cols[0].AppendValue(types.NewInt(int64(100000 + i)))
			b.Cols[2].AppendValue(price)
			b.Cols[3].AppendValue(types.NewString(names[i%len(names)]))
			b.Cols[4].AppendValue(types.NewInt(int64(i % 3)))
			if (i-lo)%16 == 0 {
				cust.AppendValue(types.NewInt(int64(i / 16 % 10)))
				cust.RunLens = append(cust.RunLens, min(16, hi-i))
			}
		}
		res.Batches = append(res.Batches, b)
	}
	return res
}

// BenchmarkAppendRows times the text renderer's row loop alone, into a
// buffer already grown, over 8192 rows: ns/row is the render layer's cost
// per row, and allocs/op must stay 0.
func BenchmarkAppendRows(b *testing.B) {
	for _, bc := range []struct {
		name string
		res  *core.Result
	}{{"fetch", fetchResult(8192)}, {"mixed", mixedResult(8192)}} {
		b.Run(bc.name, func(b *testing.B) {
			cur := make([]colCursor, bc.res.Schema.Len())
			render := func(dst []byte) []byte {
				for _, batch := range bc.res.Batches {
					dst = appendRows(dst, batch, cur)
				}
				return dst
			}
			dst := render(nil)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				dst = render(dst[:0])
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*vector.NumRows(bc.res.Batches)), "ns/row")
		})
	}
}

// The row loop allocates nothing once dst has room, escaped cells included,
// and writes each escaped cell as the reference escaper would.
func TestAppendRowsEscapesInPlace(t *testing.T) {
	res := mixedResult(64)
	cur := make([]colCursor, res.Schema.Len())
	dst := appendRows(nil, res.Batches[0], cur)
	if allocs := testing.AllocsPerRun(20, func() { dst = appendRows(dst[:0], res.Batches[0], cur) }); allocs != 0 {
		t.Errorf("rendering 64 mixed rows allocated %.0f times", allocs)
	}
	want := strings.Join(referenceLines(vector.Rows(res.Batches)), "\n") + "\n"
	if string(dst) != want {
		t.Errorf("rendered\n%q\nreference\n%q", dst, want)
	}
}

// TestRenderParseAllocations guards the point of the columnar path: a reply
// costs a fixed number of allocations on both sides of the wire, whatever
// its row count. The one-row bounds are what the row-at-a-time path spent on
// the same reply (9 to render, 22 to parse); at 8192 × 4 it spent 32 775 and
// 106 516.
func TestRenderParseAllocations(t *testing.T) {
	checkGoroutines(t)
	for _, tc := range []struct {
		rows, render, parse int
	}{{8192, 8, 16}, {1, 9, 22}} {
		res := fetchResult(tc.rows)
		frame := render(res, false)
		st := renderSession(nil, false)
		st.writeResult(res) // warm the session buffer
		st.flush()
		rendered := testing.AllocsPerRun(20, func() { st.writeResult(res); st.flush() })
		if rendered > float64(tc.render) {
			t.Errorf("rendering %d rows: %.0f allocations, want at most %d", tc.rows, rendered, tc.render)
		}
		r := bytes.NewReader(frame)
		c := &Client{br: bufio.NewReaderSize(r, 64<<10)}
		parsed := testing.AllocsPerRun(20, func() {
			r.Reset(frame)
			c.br.Reset(r)
			if out, err := c.readReply(); err != nil {
				t.Fatal(err)
			} else if len(out.Rows) != tc.rows {
				t.Fatalf("%d rows back, want %d", len(out.Rows), tc.rows)
			}
		})
		if parsed > float64(tc.parse) {
			t.Errorf("parsing %d rows: %.0f allocations, want at most %d", tc.rows, parsed, tc.parse)
		}
		t.Logf("%d rows: %.0f allocations to render, %.0f to parse", tc.rows, rendered, parsed)
	}
}

// TestClientKeepsRowsApart appends to one parsed row and checks the next is
// untouched: rows are capped slices of one slab.
func TestClientKeepsRowsApart(t *testing.T) {
	checkGoroutines(t)
	got, err := parse(render(fetchResult(3), false))
	if err != nil {
		t.Fatal(err)
	}
	next := got.Rows[1][0]
	_ = append(got.Rows[0], "spill")
	if got.Rows[1][0] != next {
		t.Fatalf("appending to row 0 overwrote row 1: %q", got.Rows[1])
	}
}
