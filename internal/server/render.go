package server

import (
	stdbin "encoding/binary"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/encoding"
	"repro/internal/resmgr"
	"repro/internal/types"
	"repro/internal/vector"
)

// Result frames are rendered from the engine's column batches straight into
// the session's output buffer: no row is assembled and, outside a cell that
// needs escaping, nothing is allocated.

func (st *session) writeResult(res *core.Result) {
	switch {
	case res.Schema == nil:
		st.writeOK(res)
	case st.binary:
		st.writeBinaryResult(res)
	default:
		st.writeTextResult(res)
	}
}

// writeOK renders a row-less statement's reply.
func (st *session) writeOK(res *core.Result) {
	st.out = append(st.out, "OK "...)
	if plan := res.Explain.String(); plan != "" {
		st.out = appendOneLine(st.out, plan, " | ")
	} else {
		st.out = appendOneLine(st.out, res.Message, " ")
	}
	// Row-less statements that ran under the governor (DML) surface their
	// resource stats on the OK line, as SELECTs do on ROWS.
	if s := res.Stats; s.WallTime > 0 {
		st.out = fmt.Appendf(st.out, " [query_id=%d wait_us=%d spilled=%d wall_us=%d]",
			s.QueryID, s.QueueWait.Microseconds(), s.SpilledBytes, s.WallTime.Microseconds())
	}
	st.out = append(st.out, '\n')
}

// writeTextResult renders a ROWS frame.
func (st *session) writeTextResult(res *core.Result) {
	st.out = append(st.out, "ROWS "...)
	st.out = strconv.AppendInt(st.out, int64(vector.NumRows(res.Batches)), 10)
	st.out = appendStats(st.out, res.Stats)
	st.out = appendNames(st.out, res.Schema)
	if cap(st.cursors) < res.Schema.Len() {
		st.cursors = make([]colCursor, res.Schema.Len())
	}
	for _, b := range res.Batches {
		st.out = appendRows(st.out, b, st.cursors[:res.Schema.Len()])
		if len(st.out) >= flushBytes {
			st.flush()
		}
	}
	st.out = append(st.out, "DONE\n"...)
}

// appendStats ends a ROWS/BROWS header line: query id, queue wait, spilled
// bytes, wall clock.
func appendStats(dst []byte, s resmgr.QueryStats) []byte {
	for _, v := range [...]int64{s.QueryID, s.QueueWait.Microseconds(), s.SpilledBytes, s.WallTime.Microseconds()} {
		dst = append(dst, ' ')
		dst = strconv.AppendInt(dst, v, 10)
	}
	return append(dst, '\n')
}

func appendNames(dst []byte, schema *types.Schema) []byte {
	for i, c := range schema.Cols {
		if i > 0 {
			dst = append(dst, '\t')
		}
		dst = appendField(dst, c.Name)
	}
	return append(dst, '\n')
}

// colCursor is how appendRows reads one column of a batch. A flat INTEGER
// or FLOAT column without NULLs goes straight to its kernel: direct is its
// type, chosen once per batch, and Invalid for every other column. An RLE
// column is walked in row order: run is the run the current row lies in,
// left how many of its rows are still to come.
type colCursor struct {
	direct    types.Type
	run, left int
}

// appendRows renders every live row of b as one tab-separated, escaped line.
// Flat columns are addressed through the selection vector, RLE columns
// (never selected, see vector.Batch) through cur, which has one entry per
// column.
func appendRows(dst []byte, b *vector.Batch, cur []colCursor) []byte {
	for c, col := range b.Cols {
		cur[c] = colCursor{run: -1}
		if col.RunLens == nil && col.Nulls == nil && (col.Typ == types.Int64 || col.Typ == types.Float64) {
			cur[c].direct = col.Typ
		}
	}
	for r, n := 0, b.Len(); r < n; r++ {
		phys := r
		if b.Sel != nil {
			phys = b.Sel[r]
		}
		for c, col := range b.Cols {
			if c > 0 {
				dst = append(dst, '\t')
			}
			switch cur[c].direct {
			case types.Int64:
				dst = types.AppendInt(dst, col.Ints[phys])
				continue
			case types.Float64:
				dst = types.AppendFloat(dst, col.Floats[phys])
				continue
			}
			i := phys
			if col.RunLens != nil {
				k := &cur[c]
				for k.left == 0 {
					k.run++
					k.left = col.RunLens[k.run]
				}
				k.left--
				i = k.run
			}
			// Only a string can hold a delimiter; every other type's text,
			// NULL included, goes out as the formatter wrote it.
			if col.Typ == types.Varchar && !col.NullAt(i) {
				dst = appendField(dst, col.Strs[i])
			} else {
				dst = col.AppendText(dst, i)
			}
		}
		dst = append(dst, '\n')
	}
	return dst
}

// binaryBlockRows bounds one BROWS column block: chunking keeps a huge
// result from buffering as one giant block on either side of the wire.
const binaryBlockRows = 4096

// writeBinaryResult renders a BROWS frame: the result's column vectors,
// regrouped into chunks of binaryBlockRows rows, each travel as one
// self-describing encoding block, Auto-encoded the way storage blocks are.
func (st *session) writeBinaryResult(res *core.Result) {
	// Encode every block before the first header byte: an encoding failure
	// must produce a clean ERR reply, not a half-written binary frame.
	blocks, err := encodeBlocks(res.Schema, res.Batches)
	if err != nil {
		st.replyLine("ERR ", err.Error())
		return
	}
	st.out = append(st.out, "BROWS "...)
	st.out = strconv.AppendInt(st.out, int64(vector.NumRows(res.Batches)), 10)
	st.out = append(st.out, ' ')
	st.out = strconv.AppendInt(st.out, int64(res.Schema.Len()), 10)
	st.out = appendStats(st.out, res.Stats)
	st.out = appendNames(st.out, res.Schema)
	for i, c := range res.Schema.Cols {
		if i > 0 {
			st.out = append(st.out, '\t')
		}
		st.out = append(st.out, c.Typ.String()...)
	}
	st.out = append(st.out, '\n')
	for _, blob := range blocks {
		st.out = stdbin.BigEndian.AppendUint32(st.out, uint32(len(blob)))
		st.out = append(st.out, blob...)
		if len(st.out) >= flushBytes {
			st.flush()
		}
	}
	st.out = append(st.out, "DONE\n"...)
}

// encodeBlocks regroups the batches' live rows, column at a time, into
// chunks of binaryBlockRows and encodes each chunk's columns in order.
func encodeBlocks(schema *types.Schema, batches []*vector.Batch) ([][]byte, error) {
	var blocks [][]byte
	left := vector.NumRows(batches)
	var chunk *vector.Batch
	var enc encoding.Encoder
	for _, b := range batches {
		for lo, n := 0, b.Len(); lo < n; {
			if chunk == nil {
				chunk = vector.NewBatchForSchema(schema, min(left, binaryBlockRows))
			}
			take := min(n-lo, binaryBlockRows-chunk.Len())
			chunk.AppendRows(b, lo, lo+take)
			lo += take
			left -= take
			if chunk.Len() < binaryBlockRows && left > 0 {
				continue
			}
			for _, col := range chunk.Cols {
				blob, err := enc.AppendBlock(nil, encoding.Auto, col)
				if err != nil {
					return nil, err
				}
				blocks = append(blocks, blob)
			}
			chunk = nil
		}
	}
	return blocks, nil
}

// The text protocol's delimiters travel escaped. Most cells hold none, so
// both directions look first: a cell with one is escaped byte by byte into
// dst, and unescaped by the replacer.
var fieldUnescaper = strings.NewReplacer("\\\\", "\\", "\\t", "\t", "\\n", "\n", "\\r", "\r")

func appendField(dst []byte, s string) []byte {
	if !strings.ContainsAny(s, "\\\t\n\r") {
		return append(dst, s...)
	}
	for i := 0; i < len(s); i++ {
		switch c := s[i]; c {
		case '\\':
			dst = append(dst, '\\', '\\')
		case '\t':
			dst = append(dst, '\\', 't')
		case '\n':
			dst = append(dst, '\\', 'n')
		case '\r':
			dst = append(dst, '\\', 'r')
		default:
			dst = append(dst, c)
		}
	}
	return dst
}

func unescapeField(s string) string {
	if strings.IndexByte(s, '\\') < 0 {
		return s
	}
	return fieldUnescaper.Replace(s)
}

// appendOneLine appends s with every newline replaced by sep, so free text
// (messages, plans) cannot break the line framing.
func appendOneLine(dst []byte, s, sep string) []byte {
	for {
		i := strings.IndexByte(s, '\n')
		if i < 0 {
			return append(dst, s...)
		}
		dst = append(dst, s[:i]...)
		dst = append(dst, sep...)
		s = s[i+1:]
	}
}
