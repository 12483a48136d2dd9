package storage

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/types"
	"repro/internal/vector"
)

// WOS is the in-memory Write Optimized Store (paper §3.7): it buffers small
// inserts so that writes to physical structures contain enough rows to
// amortize write cost. Data in the WOS is unencoded and uncompressed; rows
// carry their commit epoch (the implicit epoch column).
//
// The WOS is columnar: a list of chunks of up to vector.DefaultBatchSize
// rows, one vector per projection column plus the epoch column, each grown
// by append. AppendBatch copies a statement's columns into the last chunk;
// readers take views of the chunks (Chunks) and read them as they would a
// decoded block, with no copy and no lock held. The paper notes Vertica
// moved between row and column WOS layouts with "no significant performance
// differences"; here the row layout cost a copy of every visible row per
// statement plus a pivot into vectors, and the columnar one cut the
// allocation of ingest_query's statements by over 40 % (2 vCPUs).
//
// Each row is identified by a monotonically increasing WOS position, which
// delete vectors reference; moveout translates surviving delete vectors to
// container positions (see tuplemover). Commits append under the
// transaction manager's commit lock, so epochs never fall as positions rise
// and the rows a snapshot sees are a prefix of the WOS.
type WOS struct {
	mu     sync.RWMutex
	schema *types.Schema
	chunks []*wosChunk
	rows   int         // buffered rows
	next   int64       // WOS position of the next appended row
	last   types.Epoch // epoch of the last append
	bytes  int64
	// maxBytes bounds bytes; beyond it the WOS reports saturation.
	maxBytes int64
}

// wosChunk is up to vector.DefaultBatchSize consecutive WOS rows. A row is
// never written twice, so a view capped at the chunk's length (Vector.Slice)
// stays valid while the chunk fills: appends write past it, or into a new
// array when they outgrow the old one.
type wosChunk struct {
	cols   []*vector.Vector
	epochs *vector.Vector // Int64
	first  int64          // WOS position of row 0
}

func (c *wosChunk) len() int { return len(c.epochs.Ints) }

// full reports whether the chunk takes no more rows.
func (c *wosChunk) full() bool { return c.len() >= vector.DefaultBatchSize }

// WOSChunk is a view of consecutive WOS rows of one chunk: the projection
// columns and the epoch column, flat and without an Owner — they are
// immutable below their length, and the garbage collector keeps them.
type WOSChunk struct {
	Cols   []*vector.Vector
	Epochs *vector.Vector
	First  int64 // WOS position of row 0 of the view
}

// Len returns the number of rows in the view.
func (c *WOSChunk) Len() int { return len(c.Epochs.Ints) }

// NewWOS creates a WOS for a projection schema. maxBytes bounds memory;
// beyond it the WOS reports saturation and loads go direct to ROS
// ("in the event that the WOS becomes saturated ... subsequently loaded data
// is written directly to new ROS containers", paper §4).
func NewWOS(schema *types.Schema, maxBytes int64) *WOS {
	if maxBytes <= 0 {
		maxBytes = 64 << 20
	}
	return &WOS{schema: schema, maxBytes: maxBytes}
}

// Schema returns the projection schema (without the implicit epoch column).
func (w *WOS) Schema() *types.Schema { return w.schema }

// AppendBatch adds the live rows of a flat batch, committed at epoch, and
// returns the WOS position of the first. The epoch may not be older than the
// last append's: visibility is a prefix of the WOS.
func (w *WOS) AppendBatch(b *vector.Batch, epoch types.Epoch) (int64, error) {
	if b.NumCols() != w.schema.Len() {
		return 0, fmt.Errorf("storage: WOS batch of %d columns != schema %d", b.NumCols(), w.schema.Len())
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if epoch < w.last {
		return 0, fmt.Errorf("storage: WOS append at epoch %d after epoch %d", epoch, w.last)
	}
	w.last = epoch
	start := w.next
	for lo, rows := 0, b.Len(); lo < rows; {
		c := w.tail()
		n := min(rows-lo, vector.DefaultBatchSize-c.len())
		(&vector.Batch{Cols: c.cols}).AppendRows(b, lo, lo+n)
		for range n {
			c.epochs.Ints = append(c.epochs.Ints, int64(epoch))
		}
		w.bytes += chunkBytes(c, c.len()-n, c.len())
		w.rows += n
		w.next += int64(n)
		lo += n
	}
	return start, nil
}

// tail returns the chunk the next row goes into, starting one when the last
// is full or does not end at the next position.
func (w *WOS) tail() *wosChunk {
	if k := len(w.chunks); k > 0 {
		if c := w.chunks[k-1]; !c.full() && c.first+int64(c.len()) == w.next {
			return c
		}
	}
	c := w.newChunk(w.next)
	w.chunks = append(w.chunks, c)
	return c
}

func (w *WOS) newChunk(first int64) *wosChunk {
	c := &wosChunk{cols: make([]*vector.Vector, w.schema.Len()), epochs: vector.New(types.Int64, 0), first: first}
	for i, col := range w.schema.Cols {
		c.cols[i] = vector.New(col.Typ, 0)
	}
	return c
}

// copyRows returns rows [lo, hi) of c as a chunk of its own, in new arrays:
// what a drain or a truncation keeps of a chunk that views may still read.
func (w *WOS) copyRows(c *wosChunk, lo, hi int) *wosChunk {
	out := w.newChunk(c.first + int64(lo))
	for i, v := range c.cols {
		out.cols[i].AppendFrom(v.Slice(lo, hi), nil)
	}
	out.epochs.AppendFrom(c.epochs.Slice(lo, hi), nil)
	return out
}

// chunkBytes estimates the footprint of rows [lo, hi) of c: 8 bytes a
// fixed-width value, the epoch included, and a string's header and bytes.
func chunkBytes(c *wosChunk, lo, hi int) int64 {
	b := int64(8 * (len(c.cols) + 1) * (hi - lo))
	for _, v := range c.cols {
		if v.Typ != types.Varchar {
			continue
		}
		b -= int64(8 * (hi - lo))
		for _, s := range v.Strs[lo:hi] {
			b += 16 + int64(len(s))
		}
	}
	return b
}

// Saturated reports whether the WOS is over its memory budget.
func (w *WOS) Saturated() bool {
	w.mu.RLock()
	defer w.mu.RUnlock()
	return w.bytes >= w.maxBytes
}

// Len returns the current number of buffered rows.
func (w *WOS) Len() int {
	w.mu.RLock()
	defer w.mu.RUnlock()
	return w.rows
}

// Bytes returns the current memory footprint estimate.
func (w *WOS) Bytes() int64 {
	w.mu.RLock()
	defer w.mu.RUnlock()
	return w.bytes
}

// Chunks returns views of every row committed at or before epoch, one per
// chunk, positions ascending. Queries over the WOS read these with no lock
// held ("a query executing in the recent past needs no locks", §5): rows
// appended later land past a view's length, drained chunks stay alive for
// the views that hold them.
func (w *WOS) Chunks(epoch types.Epoch) []WOSChunk {
	w.mu.RLock()
	defer w.mu.RUnlock()
	return w.chunksLocked(epoch)
}

func (w *WOS) chunksLocked(epoch types.Epoch) []WOSChunk {
	var out []WOSChunk
	for _, c := range w.chunks {
		n := c.cutAt(epoch)
		if n > 0 {
			out = append(out, c.view(n))
		}
		if n < c.len() {
			break
		}
	}
	return out
}

// cutAt returns how many rows of c were committed at or before epoch:
// epochs rise with position, so the visible rows end at the first newer one.
func (c *wosChunk) cutAt(epoch types.Epoch) int {
	if n := c.len(); types.Epoch(c.epochs.Ints[n-1]) <= epoch {
		return n
	}
	return sort.Search(c.len(), func(i int) bool { return types.Epoch(c.epochs.Ints[i]) > epoch })
}

// view returns the first n rows of c as a WOSChunk.
func (c *wosChunk) view(n int) WOSChunk {
	v := WOSChunk{Cols: make([]*vector.Vector, len(c.cols)), Epochs: c.epochs.Slice(0, n), First: c.first}
	for i, col := range c.cols {
		v.Cols[i] = col.Slice(0, n)
	}
	return v
}

// viewsEnd returns the WOS position past the last row of views, 0 for none.
func viewsEnd(views []WOSChunk) int64 {
	if len(views) == 0 {
		return 0
	}
	c := &views[len(views)-1]
	return c.First + int64(c.Len())
}

// DrainUpTo removes every row committed at or before bound and returns how
// many it removed: the prefix Chunks(bound) shows. Positions of the rows
// that stay do not change.
func (w *WOS) DrainUpTo(bound types.Epoch) int {
	w.mu.Lock()
	defer w.mu.Unlock()
	before := w.rows
	w.drainLocked(viewsEnd(w.chunksLocked(bound)) - 1)
	return before - w.rows
}

// DrainThrough removes every row at a WOS position <= pos. Moveout takes
// views of the WOS, writes containers outside any lock, then commits by
// draining exactly that prefix — rows appended in between (necessarily at
// higher positions) stay buffered, so the drain and the published
// containers always cover the same rows. Whole chunks are dropped; of a
// chunk drained in part, the rows that stay (fewer than a chunk) are copied
// to a chunk of their own, so the drained ones are not held.
func (w *WOS) DrainThrough(pos int64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.drainLocked(pos)
}

func (w *WOS) drainLocked(pos int64) {
	for len(w.chunks) > 0 {
		c := w.chunks[0]
		n := min(int(pos-c.first+1), c.len())
		if n <= 0 {
			break
		}
		w.bytes -= chunkBytes(c, 0, n)
		w.rows -= n
		if n < c.len() {
			w.chunks[0] = w.copyRows(c, n, c.len())
			break
		}
		w.chunks = w.chunks[1:]
	}
	if len(w.chunks) == 0 {
		w.chunks = nil
	}
}

// Truncate discards every row with epoch > bound (recovery: "the node
// truncates all tuples that were inserted after its LGE", §5.2) and returns
// how many it discarded. They are a suffix of the WOS. Their positions are
// not reused, and the rows kept of a chunk cut in part are copied, so a view
// taken before never sees a later append.
func (w *WOS) Truncate(bound types.Epoch) int {
	w.mu.Lock()
	defer w.mu.Unlock()
	removed := 0
	for k := len(w.chunks) - 1; k >= 0; k-- {
		c := w.chunks[k]
		n := c.cutAt(bound)
		if n == c.len() {
			break
		}
		w.bytes -= chunkBytes(c, n, c.len())
		removed += c.len() - n
		if n > 0 {
			w.chunks[k] = w.copyRows(c, 0, n)
			break
		}
		w.chunks = w.chunks[:k]
	}
	w.rows -= removed
	w.last = min(w.last, bound)
	if len(w.chunks) == 0 {
		w.chunks = nil
	}
	return removed
}
