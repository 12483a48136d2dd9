package encoding

import (
	"fmt"
	"math"

	"repro/internal/types"
	"repro/internal/vector"
)

// RLE payload: uvarint runCount, then per run: raw value + uvarint runLength.
// Null slots participate in runs via their zero value; the null bitmap in the
// block header restores them (null runs therefore compress exactly like value
// runs when the column is sorted NULLS FIRST).

func encodeRLE(buf []byte, v *vector.Vector) []byte {
	n, runs := v.PhysLen(), 0
	for i := 0; i < n; i = runEnd(v, i) {
		runs++
	}
	buf = appendUvarint(buf, uint64(runs))
	for i := 0; i < n; {
		end := runEnd(v, i)
		buf = rawValueAppend(buf, v.Typ, v, i)
		buf = appendUvarint(buf, uint64(end-i))
		i = end
	}
	return buf
}

// runEnd returns the end of the run that starts at physical slot start.
func runEnd(v *vector.Vector, start int) int {
	end := start + 1
	for end < v.PhysLen() && sameSlot(v, start, end) {
		end++
	}
	return end
}

// sameSlot reports whether physical slots i and j hold identical content
// (treating any two NULL slots as equal for run purposes only when their
// zero values also match, which they always do). Floats compare by their
// bits: -0 is not 0, and a NaN is itself.
func sameSlot(v *vector.Vector, i, j int) bool {
	ni, nj := v.NullAt(i), v.NullAt(j)
	if ni != nj {
		return false
	}
	switch v.Typ {
	case types.Float64:
		return math.Float64bits(v.Floats[i]) == math.Float64bits(v.Floats[j])
	case types.Varchar:
		return v.Strs[i] == v.Strs[j]
	default:
		return v.Ints[i] == v.Ints[j]
	}
}

func decodeRLE(b []byte, out *vector.Vector, n int, preserveRuns bool) error {
	rc, sz := uvarint(b)
	if sz <= 0 {
		return fmt.Errorf("encoding: corrupt RLE run count")
	}
	// Every run costs at least two payload bytes (value + length), and no
	// run may claim more rows than the block holds: reject before any
	// count-sized allocation or expansion loop.
	if rc > uint64(len(b))/2 {
		return fmt.Errorf("encoding: RLE run count %d exceeds payload", rc)
	}
	pos := sz
	var runs []int
	if preserveRuns {
		runs = make([]int, 0, rc)
	} else {
		reserve(out, n)
	}
	var scratch vector.Vector
	total := 0
	for r := 0; r < int(rc); r++ {
		scratch = vector.Vector{Typ: out.Typ, Ints: scratch.Ints[:0], Floats: scratch.Floats[:0], Strs: scratch.Strs[:0]}
		used, err := rawValueDecode(b[pos:], out.Typ, &scratch)
		if err != nil {
			return err
		}
		pos += used
		rl, sz := uvarint(b[pos:])
		if sz <= 0 {
			return fmt.Errorf("encoding: corrupt RLE run length")
		}
		if rl > uint64(n-total) {
			return fmt.Errorf("encoding: RLE run total exceeds row count %d", n)
		}
		pos += sz
		reps := int(rl)
		if preserveRuns {
			runs, reps = append(runs, reps), 1
		}
		val := scratch.ValueAt(0)
		for k := 0; k < reps; k++ {
			out.AppendValue(val)
		}
		total += int(rl)
	}
	if total != n {
		return fmt.Errorf("encoding: RLE run total %d != row count %d", total, n)
	}
	if preserveRuns {
		out.RunLens = runs
	}
	return nil
}

// reserve makes room in out, which is empty, for n values without a
// reallocation as they are appended.
func reserve(out *vector.Vector, n int) {
	switch out.Typ {
	case types.Float64:
		out.Floats = grow(out.Floats, n)[:0]
	case types.Varchar:
		out.Strs = grow(out.Strs, n)[:0]
	default:
		out.Ints = grow(out.Ints, n)[:0]
	}
}
