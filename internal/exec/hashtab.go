package exec

import (
	"sort"

	"repro/internal/types"
	"repro/internal/vector"
)

// hashTable is the one hash table under HashJoin, Prepass and GroupBy. Rows
// live column-wise in a flat batch (joins store whole build rows, the
// aggregators only their group keys), each with its key hash
// (vector.Batch.KeyHashes), and collide into chains threaded through two
// int32 arrays — so a lookup that hits compares typed vector entries and
// allocates nothing, and operators hand stored rows on by column append
// instead of by types.Row.
type hashTable struct {
	rows *vector.Batch
	keys []int // key columns of rows
	// nullsEqual makes a NULL key equal a NULL key (grouping). Without it a
	// row with a NULL key is stored but never linked, so it can match
	// nothing (SQL join semantics).
	nullsEqual bool

	hashes []uint64 // per stored row
	first  []int32  // bucket → first row of its chain, -1 when empty
	next   []int32  // row → next row of its chain, -1 at the end
	mask   uint64   // len(first)-1; len(first) is a power of two

	// rowMem is what the stored rows hold, for the operator's grant (mem).
	rowMem   int64
	rowBytes int64 // fixed bytes per stored row
	strCols  []int // VARCHAR columns: their payload is charged per row
}

// Per stored row the table holds a hash and a chain link beside the row's
// columns. Its bucket heads, 4 bytes each, are charged by their count
// (mem): at least two per row, and up to four, since first doubles.
const hashTableRowOverhead = 8 + 4

func newHashTable(schema *types.Schema, keys []int, nullsEqual bool) *hashTable {
	t := &hashTable{keys: keys, nullsEqual: nullsEqual, rowBytes: hashTableRowOverhead}
	for i, c := range schema.Cols {
		t.rowBytes++ // a NULL flag, charged whether or not the column has NULLs
		if c.Typ == types.Varchar {
			t.strCols = append(t.strCols, i)
			t.rowBytes += 16 // string header
		} else {
			t.rowBytes += 8
		}
	}
	t.rows = vector.NewBatchForSchema(schema, 0)
	t.rehash(16)
	return t
}

func (t *hashTable) len() int { return len(t.hashes) }

// buckets returns the bucket count that keeps at least two heads per row
// for n rows: len(first) doubled until it is, never shrunk.
func (t *hashTable) buckets(n int) int {
	size := len(t.first)
	for size < 2*n {
		size *= 2
	}
	return size
}

// mem is what the table holds, for the operator's grant: its rows, and the
// bucket heads it has or — for a join build not yet linked — will have.
func (t *hashTable) mem() int64 { return t.rowMem + 4*int64(t.buckets(t.len())) }

// release hands the stored rows to the caller and empties the table. The
// bucket array stays, sized for the next fill, and charged.
func (t *hashTable) release() *vector.Batch {
	out := t.rows
	cols := make([]*vector.Vector, len(out.Cols))
	for i, c := range out.Cols {
		cols[i] = vector.New(c.Typ, c.PhysLen()) // the next fill is likely as large
	}
	t.rows = vector.NewBatch(cols...)
	t.hashes, t.next, t.rowMem = t.hashes[:0], t.next[:0], 0
	for i := range t.first {
		t.first[i] = -1
	}
	return out
}

// charge accounts the rows stored since the table held `from` of them.
func (t *hashTable) charge(from int) {
	t.rowMem += int64(t.len()-from) * t.rowBytes
	for _, c := range t.strCols {
		for _, s := range t.rows.Cols[c].Strs[from:] {
			t.rowMem += int64(len(s))
		}
	}
}

// appendBatch stores every live row of in, with its key hash, without
// linking it. The join build appends batch by batch and links once, when
// the row count is known.
func (t *hashTable) appendBatch(in *vector.Batch) {
	from := t.len()
	t.hashes = in.KeyHashes(t.hashes, t.keys)
	t.rows.Append(in)
	t.charge(from)
}

// link threads every stored row into its chain, with at least two bucket
// heads per row. Rows are pushed last to first, so each chain lists its
// rows in the order they were stored.
func (t *hashTable) link() { t.rehash(t.buckets(t.len())) }

func (t *hashTable) rehash(size int) {
	if size != len(t.first) {
		t.first = make([]int32, size)
		t.mask = uint64(size - 1)
	}
	for i := range t.first {
		t.first[i] = -1
	}
	n := t.len()
	if cap(t.next) < n {
		t.next = make([]int32, n, n+n/2)
	}
	t.next = t.next[:n]
	for row := n - 1; row >= 0; row-- {
		if !t.nullsEqual && t.nullKey(row) {
			t.next[row] = -1
			continue
		}
		b := t.hashes[row] & t.mask
		t.next[row] = t.first[b]
		t.first[b] = int32(row)
	}
}

func (t *hashTable) nullKey(row int) bool {
	for _, k := range t.keys {
		if t.rows.Cols[k].NullAt(row) {
			return true
		}
	}
	return false
}

// head returns the first row of the chain hash h falls into, -1 if none.
// Walk a chain with next[row]; a chain mixes hashes, so test each row with
// matches (or matchesInt).
func (t *hashTable) head(h uint64) int32 { return t.first[h&t.mask] }

// matches reports whether stored row `row` has hash h and its key equals
// entry i of the probe key vectors (aligned with keys, flat).
func (t *hashTable) matches(row int32, h uint64, probe []*vector.Vector, i int) bool {
	return t.hashes[row] == h && t.sameKey(int(row), probe, i)
}

// sameKey reports whether stored row `row` has the key at entry i of the
// probe key vectors.
func (t *hashTable) sameKey(row int, probe []*vector.Vector, i int) bool {
	for k, kc := range t.keys {
		if !vector.EqualAt(probe[k], i, t.rows.Cols[kc], row, t.nullsEqual) {
			return false
		}
	}
	return true
}

// intKey decides the typed lookup once per probe batch: it returns the
// probe's key vector when the table has one key and that vector is flat
// and integer-backed (INT, TIMESTAMP or BOOL), else nil. A probe it
// returns is looked up with findInts, findInt and matchesInt, which
// compare Ints in place where find and matches call sameKey per candidate
// row.
func (t *hashTable) intKey(probe []*vector.Vector) *vector.Vector {
	if len(t.keys) != 1 || probe[0].IsRLE() {
		return nil
	}
	switch probe[0].Typ {
	case types.Int64, types.Timestamp, types.Bool:
		return probe[0]
	}
	return nil
}

// matchesInt is matches for a probe key vector intKey returned. A NULL
// hashes as 0 does, so the NULL flags are compared before the Ints; a NULL
// probe entry can only meet a stored NULL in a table that links them
// (nullsEqual).
func (t *hashTable) matchesInt(row int32, h uint64, probe *vector.Vector, i int) bool {
	col := t.rows.Cols[t.keys[0]]
	null := probe.NullAt(i)
	return t.hashes[row] == h && col.NullAt(int(row)) == null && (null || col.Ints[row] == probe.Ints[i])
}

// findInts is the typed lookup loop: for a probe key vector intKey
// returned, it resolves entries i, i+1, … up to n, appending each one's
// stored row to out, and stops at the first entry the table lacks. It
// returns out and that entry, or n. Its test is matchesInt's, on slices
// it loads once: a non-NULL entry matches a non-NULL row with its hash and
// value, a NULL entry the NULL row.
func (t *hashTable) findInts(hashes []uint64, probe *vector.Vector, i, n int, out []int32) ([]int32, int) {
	col := t.rows.Cols[t.keys[0]]
	ints, nulls := col.Ints, col.Nulls
	stored, first, next, mask := t.hashes, t.first, t.next, t.mask
	pints, pnulls := probe.Ints, probe.Nulls
	for ; i < n; i++ {
		h := hashes[i]
		row := first[h&mask]
		if pnulls == nil || !pnulls[i] {
			x := pints[i]
			for row >= 0 && (stored[row] != h || ints[row] != x || nulls != nil && nulls[row]) {
				row = next[row]
			}
		} else {
			for row >= 0 && (stored[row] != h || nulls == nil || !nulls[row]) {
				row = next[row]
			}
		}
		if row < 0 {
			return out, i
		}
		out = append(out, row)
	}
	return out, n
}

// hasHash reports whether a linked row has key hash h — the test a SIP
// filter makes: it may pass a key the table lacks (a hash collision), never
// drop one it holds.
func (t *hashTable) hasHash(h uint64) bool {
	for row := t.head(h); row >= 0; row = t.next[row] {
		if t.hashes[row] == h {
			return true
		}
	}
	return false
}

// find returns the stored row whose key equals entry i of the probe key
// vectors, or -1.
func (t *hashTable) find(h uint64, probe []*vector.Vector, i int) int {
	for row := t.head(h); row >= 0; row = t.next[row] {
		if t.matches(row, h, probe, i) {
			return int(row)
		}
	}
	return -1
}

// findInt is find for a probe key vector intKey returned.
func (t *hashTable) findInt(h uint64, probe *vector.Vector, i int) int {
	for row := t.head(h); row >= 0; row = t.next[row] {
		if t.matchesInt(row, h, probe, i) {
			return int(row)
		}
	}
	return -1
}

// add stores entry i of the key vectors as a new, linked row and returns
// it. The table's rows must consist of exactly the key columns.
func (t *hashTable) add(h uint64, keyVecs []*vector.Vector, i int) int {
	row := t.len()
	for k, kv := range keyVecs {
		t.rows.Cols[k].AppendEntry(kv, i)
	}
	t.hashes = append(t.hashes, h)
	t.charge(row)
	if 2*t.len() > len(t.first) {
		t.rehash(2 * len(t.first))
		return row
	}
	b := h & t.mask
	t.next = append(t.next, t.first[b])
	t.first[b] = int32(row)
	return row
}

// keyOrder returns the stored rows' indexes ordered by key (NULLS FIRST,
// as Row.Compare orders them).
func (t *hashTable) keyOrder() []int {
	perm := make([]int, t.len())
	for i := range perm {
		perm[i] = i
	}
	sort.Slice(perm, func(i, j int) bool {
		for _, k := range t.keys {
			col := t.rows.Cols[k]
			if c := vector.CompareAt(col, perm[i], col, perm[j]); c != 0 {
				return c < 0
			}
		}
		return false
	})
	return perm
}
