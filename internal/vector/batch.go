package vector

import (
	"fmt"
	"slices"

	"repro/internal/types"
)

// Batch is a horizontal slice of a table: one vector per column, all with the
// same logical length. An optional selection vector (Sel) marks the subset of
// rows that are live after filtering, which lets predicates avoid copying
// survivors (qualifying rows flow onward by index).
//
// Lifetime (docs/ARCHITECTURE.md, "Batch lifetime"): a batch returned by
// Next, or by a Stream, is borrowed until the caller's next Next or Close on
// that operator (or call of that stream). A caller that keeps one longer
// calls Retain before its producer can advance. Cached blocks are immutable:
// a borrowed batch's headers (Cols, Sel) are the caller's to edit, its
// vectors are not, and its Sel may be the producer's scratch.
type Batch struct {
	Cols []*Vector
	// Sel, when non-nil, lists the live row indexes in increasing order.
	// Vectors must be flat (non-RLE) when Sel is set.
	Sel []int
}

// Retain takes a reference on the Owner of each cache-owned column — it
// copies no vector — and appends the owners to held for Release. A
// selection, which may be its producer's scratch, it copies.
func (b *Batch) Retain(held []Owner) []Owner {
	if b.Sel != nil {
		b.Sel = slices.Clone(b.Sel)
	}
	for _, c := range b.Cols {
		if c.Owner != nil {
			c.Owner.Retain()
			held = append(held, c.Owner)
		}
	}
	return held
}

// Release drops the references Retain recorded in held.
func Release(held []Owner) {
	for _, o := range held {
		o.Release()
	}
}

// NewBatch returns a batch over the given column vectors.
func NewBatch(cols ...*Vector) *Batch { return &Batch{Cols: cols} }

// NumCols returns the number of columns.
func (b *Batch) NumCols() int { return len(b.Cols) }

// Len returns the number of live rows.
func (b *Batch) Len() int {
	if b.Sel != nil {
		return len(b.Sel)
	}
	if len(b.Cols) == 0 {
		return 0
	}
	return b.Cols[0].Len()
}

// FullLen returns the number of rows ignoring the selection vector.
func (b *Batch) FullLen() int {
	if len(b.Cols) == 0 {
		return 0
	}
	return b.Cols[0].Len()
}

// Flatten expands any RLE columns and materializes the selection vector so
// that every column is a dense, flat vector of exactly Len() rows.
func (b *Batch) Flatten() *Batch {
	out := &Batch{Cols: make([]*Vector, len(b.Cols))}
	for i, c := range b.Cols {
		flat := c.Expand()
		if b.Sel != nil {
			flat = flat.Gather(b.Sel)
		}
		out.Cols[i] = flat
	}
	return out
}

// ExpandRLE expands RLE columns in place (keeps Sel untouched).
func (b *Batch) ExpandRLE() {
	for i, c := range b.Cols {
		if c.IsRLE() {
			b.Cols[i] = c.Expand()
		}
	}
}

// Row materializes live row i (0 ≤ i < Len()) as a types.Row. Columns must be
// flat; call Flatten or ExpandRLE first if RLE columns may be present.
func (b *Batch) Row(i int) types.Row {
	phys := i
	if b.Sel != nil {
		phys = b.Sel[i]
	}
	r := make(types.Row, len(b.Cols))
	for c, col := range b.Cols {
		r[c] = col.ValueAt(phys)
	}
	return r
}

// Rows materializes every live row. All rows share one backing array of
// Len() × NumCols() values, filled column at a time; each row is capped at
// its own width, so appending to one never writes into its neighbour.
func (b *Batch) Rows() []types.Row {
	n, w := b.Len(), len(b.Cols)
	out := make([]types.Row, n)
	b.rowsInto(make([]types.Value, n*w), out)
	return out
}

// rowsInto fills out[i] (i < Len()) with live row i, carved out of vals,
// which must hold Len() × NumCols() values.
func (b *Batch) rowsInto(vals []types.Value, out []types.Row) {
	fb := b
	for _, c := range b.Cols {
		if c.IsRLE() {
			fb = b.Flatten()
			break
		}
	}
	n, w := fb.Len(), len(fb.Cols)
	for c, col := range fb.Cols {
		for i := 0; i < n; i++ {
			phys := i
			if fb.Sel != nil {
				phys = fb.Sel[i]
			}
			vals[i*w+c] = col.ValueAt(phys)
		}
	}
	for i := 0; i < n; i++ {
		out[i] = vals[i*w : (i+1)*w : (i+1)*w]
	}
}

// NumRows returns the live rows of a list of batches.
func NumRows(batches []*Batch) int {
	n := 0
	for _, b := range batches {
		n += b.Len()
	}
	return n
}

// Rows materializes the live rows of every batch, in order: the one place a
// columnar result becomes a row set. The rows share one backing array, as
// Batch.Rows has it; no rows yield nil.
func Rows(batches []*Batch) []types.Row {
	n := NumRows(batches)
	if n == 0 {
		return nil
	}
	w := len(batches[0].Cols)
	vals := make([]types.Value, n*w)
	out := make([]types.Row, n)
	at := 0
	for _, b := range batches {
		l := b.Len()
		b.rowsInto(vals[at*w:(at+l)*w], out[at:at+l])
		at += l
	}
	return out
}

// AppendRow appends a row to a flat, unselected batch.
func (b *Batch) AppendRow(r types.Row) {
	if b.Sel != nil {
		panic("vector: AppendRow on batch with selection vector")
	}
	if len(r) != len(b.Cols) {
		panic(fmt.Sprintf("vector: AppendRow arity mismatch %d != %d", len(r), len(b.Cols)))
	}
	for i, v := range r {
		b.Cols[i].AppendValue(v)
	}
}

// ShallowCopy returns a batch sharing the receiver's column vectors and
// selection vector but owning its own headers, so independent consumers
// (broadcast fan-out) can ExpandRLE/replace columns without racing.
func (b *Batch) ShallowCopy() *Batch {
	return &Batch{Cols: append([]*Vector(nil), b.Cols...), Sel: b.Sel}
}

// Append adds every live row of other to the receiver, column at a time.
// The receiver must be flat and unselected; other's RLE columns expand.
func (b *Batch) Append(other *Batch) { b.AppendRows(other, 0, other.Len()) }

// AppendRows is Append restricted to live rows [lo, hi) of other.
func (b *Batch) AppendRows(other *Batch, lo, hi int) {
	if b.Sel != nil {
		panic("vector: Append to batch with selection vector")
	}
	if len(other.Cols) != len(b.Cols) {
		panic(fmt.Sprintf("vector: Append arity mismatch %d != %d", len(other.Cols), len(b.Cols)))
	}
	whole := lo == 0 && hi == other.Len()
	for i, c := range other.Cols {
		src := c.Expand()
		switch {
		case other.Sel != nil:
			b.Cols[i].AppendFrom(src, other.Sel[lo:hi])
		case whole:
			b.Cols[i].AppendFrom(src, nil)
		default:
			b.Cols[i].AppendFrom(src.Slice(lo, hi), nil)
		}
	}
}

// SliceRows returns a view of rows [lo, hi) of a flat, unselected batch
// (shares column storage with the receiver).
func (b *Batch) SliceRows(lo, hi int) *Batch {
	if b.Sel != nil {
		panic("vector: SliceRows on batch with selection vector")
	}
	out := &Batch{Cols: make([]*Vector, len(b.Cols))}
	for i, c := range b.Cols {
		out.Cols[i] = c.Slice(lo, hi)
	}
	return out
}

// Hashes appends one HashRow-compatible hash per live row over the key
// columns to dst and returns the extended slice, computed column at a time;
// a caller that passes its buffer back allocates nothing once it has grown.
// RLE key columns hash once per run (the paper's "operate directly on
// encoded data").
func (b *Batch) Hashes(dst []uint64, keys []int) []uint64 {
	from := len(dst)
	dst = slices.Grow(dst, b.Len())[:from+b.Len()]
	out := dst[from:]
	for i := range out {
		out[i] = types.HashSeed
	}
	for _, k := range keys {
		hashColInto(b.Cols[k], b.Sel, out)
	}
	return dst
}

func hashColInto(v *Vector, sel []int, acc []uint64) {
	if v.IsRLE() {
		// Sel implies flat columns, so sel == nil here: one hash per run.
		pos := 0
		for r, run := range v.RunLens {
			h := types.HashValue(v.ValueAt(r))
			for j := 0; j < run && pos < len(acc); j++ {
				acc[pos] = types.HashCombine(acc[pos], h)
				pos++
			}
		}
		return
	}
	phys := func(i int) int {
		if sel != nil {
			return sel[i]
		}
		return i
	}
	// Typed fast paths keep the hot flat path free of Value boxing.
	switch {
	case v.Typ == types.Int64 && v.Nulls == nil:
		for i := range acc {
			acc[i] = types.HashCombine(acc[i], types.HashInt64(v.Ints[phys(i)]))
		}
	case v.Typ == types.Varchar && v.Nulls == nil:
		for i := range acc {
			acc[i] = types.HashCombine(acc[i], types.HashString(v.Strs[phys(i)]))
		}
	default:
		for i := range acc {
			acc[i] = types.HashCombine(acc[i], types.HashValue(v.ValueAt(phys(i))))
		}
	}
}

// Partition splits the batch into ways sub-batches by hashing the key
// columns — the routing kernel behind the batch-native Exchange: alike key
// values always land in the same output. Each non-empty output shares the
// receiver's column vectors and marks its rows with a selection vector;
// empty outputs are nil. RLE key columns hash once per run before the
// receiver's columns are expanded in place (Sel outputs require flat
// columns).
func (b *Batch) Partition(keys []int, ways int) []*Batch {
	out := make([]*Batch, ways)
	if ways == 1 {
		if b.Len() > 0 {
			out[0] = b
		}
		return out
	}
	hashes := b.Hashes(nil, keys)
	b.ExpandRLE()
	// Count first so every way's selection is allocated once, carved out of
	// one backing array.
	counts := make([]int, ways)
	for _, h := range hashes {
		counts[h%uint64(ways)]++
	}
	backing := make([]int, len(hashes))
	sels := make([][]int, ways)
	off := 0
	for p, c := range counts {
		sels[p] = backing[off : off : off+c]
		off += c
	}
	for i, h := range hashes {
		p := h % uint64(ways)
		phys := i
		if b.Sel != nil {
			phys = b.Sel[i]
		}
		sels[p] = append(sels[p], phys)
	}
	for p, sel := range sels {
		if len(sel) > 0 {
			out[p] = &Batch{Cols: b.Cols, Sel: sel}
		}
	}
	return out
}

// NewBatchForSchema returns an empty flat batch shaped like the schema.
func NewBatchForSchema(s *types.Schema, capacity int) *Batch {
	cols := make([]*Vector, s.Len())
	for i := range cols {
		cols[i] = New(s.Col(i).Typ, capacity)
	}
	return &Batch{Cols: cols}
}

// BatchFromRows pivots rows, each of the schema's arity, into a flat batch
// shaped like the schema, column at a time.
func BatchFromRows(s *types.Schema, rows []types.Row) *Batch {
	b := NewBatchForSchema(s, len(rows))
	for c, v := range b.Cols {
		for _, r := range rows {
			v.AppendValue(r[c])
		}
	}
	return b
}

// String renders a short description for debugging.
func (b *Batch) String() string {
	return fmt.Sprintf("Batch{cols=%d, rows=%d, sel=%v}", len(b.Cols), b.Len(), b.Sel != nil)
}
