// Package vector implements typed column vectors and batches, the unit of
// data flow in the vectorized execution engine (paper §6.1: "the EE is fully
// vectorized and makes requests for blocks of rows at a time").
//
// A Vector holds one column's values for a batch of rows in a typed slice,
// with an optional null bitmap and an optional run-length form so operators
// can work directly on RLE-encoded data (paper §6.1: "significant care has
// been taken ... to ensure operators can operate directly on encoded data").
package vector

import (
	"fmt"

	"repro/internal/types"
)

// DefaultBatchSize is the number of rows operators request at a time.
const DefaultBatchSize = 4096

// Vector is a column of values of a single type.
//
// Exactly one of the typed slices is in use, selected by Typ. If Nulls is
// non-nil, Nulls[i] marks row i as SQL NULL (the corresponding typed slot is
// meaningless). If RunLens is non-nil the vector is in run-length form: entry
// i represents RunLens[i] consecutive identical rows, and Len() is the sum of
// the run lengths.
type Vector struct {
	Typ        types.Type
	logicalLen int32 // cached Len() when RunLens != nil (beside Typ: one size class less)

	Ints    []int64   // Int64, Timestamp, Bool (0/1)
	Floats  []float64 // Float64
	Strs    []string  // Varchar
	Nulls   []bool    // nil if no nulls in this vector
	RunLens []int     // nil unless in RLE form

	// Owner holds the storage of a vector the block cache decoded, and of
	// the views Slice makes of it; nil for a fresh vector (Batch.Retain).
	Owner Owner
}

// Owner is the reference-counted holder of a vector's storage: the block
// cache's entry, which recycles the vector once nothing references it.
type Owner interface {
	Retain()
	Release()
}

// New returns an empty vector of the given type with capacity for n rows.
func New(t types.Type, n int) *Vector {
	v := &Vector{Typ: t}
	switch t {
	case types.Float64:
		v.Floats = make([]float64, 0, n)
	case types.Varchar:
		v.Strs = make([]string, 0, n)
	default:
		v.Ints = make([]int64, 0, n)
	}
	return v
}

// NewFromInts wraps an int64 slice as a vector (no copy).
func NewFromInts(t types.Type, vals []int64) *Vector {
	if t != types.Int64 && t != types.Timestamp && t != types.Bool {
		panic("vector: NewFromInts with non-integral type " + t.String())
	}
	return &Vector{Typ: t, Ints: vals}
}

// NewFromFloats wraps a float64 slice as a vector (no copy).
func NewFromFloats(vals []float64) *Vector {
	return &Vector{Typ: types.Float64, Floats: vals}
}

// NewFromStrings wraps a string slice as a vector (no copy).
func NewFromStrings(vals []string) *Vector {
	return &Vector{Typ: types.Varchar, Strs: vals}
}

// NewConst returns a vector of n copies of value val, represented as a single
// run when n > 1.
func NewConst(val types.Value, n int) *Vector {
	v := New(val.Typ, 1)
	v.AppendValue(val)
	if n > 1 {
		v.RunLens = []int{n}
		v.logicalLen = int32(n)
	}
	return v
}

// PhysLen returns the number of physical entries (runs count as one).
func (v *Vector) PhysLen() int {
	switch v.Typ {
	case types.Float64:
		return len(v.Floats)
	case types.Varchar:
		return len(v.Strs)
	default:
		return len(v.Ints)
	}
}

// Len returns the logical number of rows.
func (v *Vector) Len() int {
	if v.RunLens == nil {
		return v.PhysLen()
	}
	if v.logicalLen == 0 {
		for _, r := range v.RunLens {
			v.logicalLen += int32(r)
		}
	}
	return int(v.logicalLen)
}

// IsRLE reports whether the vector is in run-length form.
func (v *Vector) IsRLE() bool { return v.RunLens != nil }

// AppendValue appends one value (of the vector's type) to the vector.
func (v *Vector) AppendValue(val types.Value) {
	if val.Null {
		v.appendNullSlot()
		return
	}
	if v.Nulls != nil {
		v.Nulls = append(v.Nulls, false)
	}
	switch v.Typ {
	case types.Float64:
		f := val.F
		if val.Typ != types.Float64 {
			f = float64(val.I)
		}
		v.Floats = append(v.Floats, f)
	case types.Varchar:
		v.Strs = append(v.Strs, val.S)
	default:
		v.Ints = append(v.Ints, val.I)
	}
}

func (v *Vector) appendNullSlot() {
	if v.Nulls == nil {
		v.Nulls = make([]bool, v.PhysLen(), v.PhysLen()+1)
	}
	v.Nulls = append(v.Nulls, true)
	switch v.Typ {
	case types.Float64:
		v.Floats = append(v.Floats, 0)
	case types.Varchar:
		v.Strs = append(v.Strs, "")
	default:
		v.Ints = append(v.Ints, 0)
	}
}

// AppendNull appends a NULL row.
func (v *Vector) AppendNull() { v.appendNullSlot() }

// NullAt reports whether physical entry i is NULL.
func (v *Vector) NullAt(i int) bool { return v.Nulls != nil && v.Nulls[i] }

// ValueAt returns physical entry i as a types.Value.
// For RLE vectors i indexes runs, not rows; use Expand first for row access.
func (v *Vector) ValueAt(i int) types.Value {
	if v.NullAt(i) {
		return types.NewNull(v.Typ)
	}
	switch v.Typ {
	case types.Float64:
		return types.Value{Typ: types.Float64, F: v.Floats[i]}
	case types.Varchar:
		return types.Value{Typ: types.Varchar, S: v.Strs[i]}
	default:
		return types.Value{Typ: v.Typ, I: v.Ints[i]}
	}
}

// AppendText appends the display form of physical entry i (a run, for RLE
// vectors) to dst: the same bytes ValueAt(i).String() yields, without the
// Value or the string in between.
func (v *Vector) AppendText(dst []byte, i int) []byte {
	if v.NullAt(i) {
		return append(dst, types.NullText...)
	}
	switch v.Typ {
	case types.Float64:
		return types.AppendText(dst, v.Typ, 0, v.Floats[i], "")
	case types.Varchar:
		return types.AppendText(dst, v.Typ, 0, 0, v.Strs[i])
	default:
		return types.AppendText(dst, v.Typ, v.Ints[i], 0, "")
	}
}

// Expand returns a row-per-entry copy of an RLE vector (or v itself when it
// is already flat).
func (v *Vector) Expand() *Vector {
	if v.RunLens == nil {
		return v
	}
	n := v.Len()
	out := &Vector{Typ: v.Typ}
	switch v.Typ {
	case types.Float64:
		out.Floats = expandRuns(v.Floats, v.RunLens, n)
	case types.Varchar:
		out.Strs = expandRuns(v.Strs, v.RunLens, n)
	default:
		out.Ints = expandRuns(v.Ints, v.RunLens, n)
	}
	if v.HasNulls() {
		out.Nulls = expandRuns(v.Nulls, v.RunLens, n)
	}
	return out
}

func expandRuns[T any](vals []T, runs []int, n int) []T {
	out := make([]T, n)
	pos := 0
	for i, run := range runs {
		val := vals[i]
		for j := 0; j < run; j++ {
			out[pos] = val
			pos++
		}
	}
	return out
}

// RunValues returns a flat view with one entry per run of an RLE vector
// (shares storage), or v itself when it is already flat.
func (v *Vector) RunValues() *Vector {
	if v.RunLens == nil {
		return v
	}
	return &Vector{Typ: v.Typ, Ints: v.Ints, Floats: v.Floats, Strs: v.Strs, Nulls: v.Nulls, Owner: v.Owner}
}

// AppendFrom appends entries of a flat source vector of the same type:
// every physical entry when sel is nil, otherwise the entries at the given
// physical indexes, in order. Column-at-a-time appends are the batch
// movement fast path (no per-row Value boxing); both vectors must be flat.
func (v *Vector) AppendFrom(src *Vector, sel []int) {
	if src.RunLens != nil || v.RunLens != nil {
		panic("vector: AppendFrom requires flat vectors")
	}
	n := src.PhysLen()
	if sel != nil {
		n = len(sel)
	}
	if n == 0 {
		return
	}
	if v.Nulls == nil && src.hasNullsAt(sel) {
		v.Nulls = make([]bool, v.PhysLen(), v.PhysLen()+n)
	}
	if v.Nulls != nil {
		switch {
		case src.Nulls == nil:
			for i := 0; i < n; i++ {
				v.Nulls = append(v.Nulls, false)
			}
		case sel == nil:
			v.Nulls = append(v.Nulls, src.Nulls...)
		default:
			for _, i := range sel {
				v.Nulls = append(v.Nulls, src.Nulls[i])
			}
		}
	}
	switch v.Typ {
	case types.Float64:
		if sel == nil {
			v.Floats = append(v.Floats, src.Floats...)
		} else {
			for _, i := range sel {
				v.Floats = append(v.Floats, src.Floats[i])
			}
		}
	case types.Varchar:
		if sel == nil {
			v.Strs = append(v.Strs, src.Strs...)
		} else {
			for _, i := range sel {
				v.Strs = append(v.Strs, src.Strs[i])
			}
		}
	default:
		if sel == nil {
			v.Ints = append(v.Ints, src.Ints...)
		} else {
			for _, i := range sel {
				v.Ints = append(v.Ints, src.Ints[i])
			}
		}
	}
}

// AppendEntry appends physical entry i of a flat source vector of the same
// type — the single-row form of AppendFrom.
func (v *Vector) AppendEntry(src *Vector, i int) {
	if src.NullAt(i) {
		v.appendNullSlot()
		return
	}
	if v.Nulls != nil {
		v.Nulls = append(v.Nulls, false)
	}
	switch v.Typ {
	case types.Float64:
		v.Floats = append(v.Floats, src.Floats[i])
	case types.Varchar:
		v.Strs = append(v.Strs, src.Strs[i])
	default:
		v.Ints = append(v.Ints, src.Ints[i])
	}
}

// AppendNulls appends n NULL rows.
func (v *Vector) AppendNulls(n int) {
	if n <= 0 {
		return
	}
	phys := v.PhysLen()
	if v.Nulls == nil {
		v.Nulls = make([]bool, phys, phys+n)
	}
	for i := 0; i < n; i++ {
		v.Nulls = append(v.Nulls, true)
	}
	switch v.Typ {
	case types.Float64:
		v.Floats = append(v.Floats, make([]float64, n)...)
	case types.Varchar:
		v.Strs = append(v.Strs, make([]string, n)...)
	default:
		v.Ints = append(v.Ints, make([]int64, n)...)
	}
}

// Gather returns a new flat vector with the entries at the given physical
// indexes, in order. The receiver must be flat.
func (v *Vector) Gather(idx []int) *Vector {
	out := New(v.Typ, len(idx))
	if idx == nil {
		idx = []int{}
	}
	out.AppendFrom(v, idx)
	return out
}

// EqualAt reports whether entry i of a equals entry j of b. Both vectors
// must be flat and of one storage class (integral, float or string). With
// nullsEqual a NULL equals a NULL (grouping); without it a NULL equals
// nothing, itself included (SQL join keys).
func EqualAt(a *Vector, i int, b *Vector, j int, nullsEqual bool) bool {
	if an, bn := a.NullAt(i), b.NullAt(j); an || bn {
		return nullsEqual && an && bn
	}
	switch a.Typ {
	case types.Float64:
		x, y := a.Floats[i], b.Floats[j]
		return x == y || (x != x && y != y) // NaNs group together, as Compare has it
	case types.Varchar:
		return a.Strs[i] == b.Strs[j]
	default:
		return a.Ints[i] == b.Ints[j]
	}
}

// CompareAt orders entry i of a against entry j of b the way Value.Compare
// does (NULLS FIRST), without boxing. Same requirements as EqualAt.
func CompareAt(a *Vector, i int, b *Vector, j int) int {
	if an, bn := a.NullAt(i), b.NullAt(j); an || bn {
		switch {
		case an && bn:
			return 0
		case an:
			return -1
		default:
			return 1
		}
	}
	switch a.Typ {
	case types.Float64:
		return cmpOrdered(a.Floats[i], b.Floats[j])
	case types.Varchar:
		return cmpOrdered(a.Strs[i], b.Strs[j])
	default:
		return cmpOrdered(a.Ints[i], b.Ints[j])
	}
}

func cmpOrdered[T int64 | float64 | string](x, y T) int {
	switch {
	case x < y:
		return -1
	case x > y:
		return 1
	case x == y:
		return 0
	case x == x: // y is a NaN: after every number, beside another NaN
		return -1
	case y == y:
		return 1
	default:
		return 0
	}
}

// Slice returns a view of rows [lo, hi) of a flat vector. The view shares
// storage, and owner, with v but is capped at its own length, so appending
// to it reallocates instead of writing into v's rows past hi — v may be a
// decoded block that every scan shares.
func (v *Vector) Slice(lo, hi int) *Vector {
	if v.RunLens != nil {
		panic("vector: Slice on RLE vector")
	}
	out := &Vector{Typ: v.Typ, Owner: v.Owner}
	switch v.Typ {
	case types.Float64:
		out.Floats = v.Floats[lo:hi:hi]
	case types.Varchar:
		out.Strs = v.Strs[lo:hi:hi]
	default:
		out.Ints = v.Ints[lo:hi:hi]
	}
	if v.Nulls != nil {
		out.Nulls = v.Nulls[lo:hi:hi]
	}
	return out
}

// Cap returns how many entries a flat vector holds before it reallocates.
func (v *Vector) Cap() int {
	switch v.Typ {
	case types.Float64:
		return cap(v.Floats)
	case types.Varchar:
		return cap(v.Strs)
	default:
		return cap(v.Ints)
	}
}

// Reset empties a flat vector for reuse, keeping its arrays and letting go
// of the strings it held. No view of it may be in use.
func (v *Vector) Reset() {
	clear(v.Strs[:cap(v.Strs)])
	v.Ints, v.Floats, v.Strs, v.Nulls = v.Ints[:0], v.Floats[:0], v.Strs[:0], nil
}

// DropFront removes the first n entries of a flat vector in place, moving
// the rest to the front of its arrays. No view of it may be in use.
func (v *Vector) DropFront(n int) {
	switch v.Typ {
	case types.Float64:
		v.Floats = v.Floats[:copy(v.Floats, v.Floats[n:])]
	case types.Varchar:
		v.Strs = v.Strs[:copy(v.Strs, v.Strs[n:])]
	default:
		v.Ints = v.Ints[:copy(v.Ints, v.Ints[n:])]
	}
	if v.Nulls != nil {
		v.Nulls = v.Nulls[:copy(v.Nulls, v.Nulls[n:])]
	}
}

// HasNulls reports whether any entry is NULL.
func (v *Vector) HasNulls() bool {
	for _, n := range v.Nulls {
		if n {
			return true
		}
	}
	return false
}

// hasNullsAt reports whether any entry at the physical indexes sel (every
// entry when sel is nil) is NULL.
func (v *Vector) hasNullsAt(sel []int) bool {
	if sel == nil || v.Nulls == nil {
		return v.HasNulls()
	}
	for _, i := range sel {
		if v.Nulls[i] {
			return true
		}
	}
	return false
}

// MinMax returns the minimum and maximum non-NULL values, and ok=false if
// every row is NULL (or the vector is empty).
func (v *Vector) MinMax() (mn, mx types.Value, ok bool) {
	for i := 0; i < v.PhysLen(); i++ {
		if v.NullAt(i) {
			continue
		}
		val := v.ValueAt(i)
		if !ok {
			mn, mx, ok = val, val, true
			continue
		}
		if val.Compare(mn) < 0 {
			mn = val
		}
		if val.Compare(mx) > 0 {
			mx = val
		}
	}
	return mn, mx, ok
}

// String renders a short description for debugging.
func (v *Vector) String() string {
	form := "flat"
	if v.IsRLE() {
		form = fmt.Sprintf("rle(%d runs)", len(v.RunLens))
	}
	return fmt.Sprintf("Vector{%s, len=%d, %s}", v.Typ, v.Len(), form)
}
