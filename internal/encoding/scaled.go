package encoding

import (
	"fmt"

	"repro/internal/types"
	"repro/internal/vector"
)

// Scaled payload (FLOAT only): one byte e, then a whole INTEGER block of n
// rows and no nulls holding k = v·10^e for each value v. Null slots carry
// k = 0; the outer header's bitmap restores them. A block qualifies for e
// only when every non-null v comes back bit for bit from the decoder's own
// expression, float64(k) / 10^e, with |k| < 2^53 — the decimal-exponent
// test of ALP (Afroozeh, Kuffó and Boncz, SIGMOD 2024), types.ScaledTo,
// which the text formatter shares — so the encoding is exact: −0, NaN and
// ±Inf never qualify. The integers are stored as the INTEGER experiment
// picks (paper §3.4.1), which is how a price column of cents compresses like
// one of integers.

// decimalScale returns the smallest e that every non-null value of fs
// qualifies for. The search gives up at the first value no e fits.
func decimalScale(fs []float64, nulls []bool) (int, bool) {
	e := 0
	for i, f := range fs {
		if nulls != nil && nulls[i] {
			continue
		}
		for {
			if _, ok := types.ScaledTo(f, e); ok {
				break
			}
			if e++; e > types.MaxScale {
				return 0, false
			}
		}
	}
	return e, true
}

// errNotDecimal is the scaled encoder's answer to a block with a value that
// is no decimal of at most types.MaxScale digits: Auto then keeps another kind.
var errNotDecimal = fmt.Errorf("encoding: %s needs decimal values", Scaled)

func (e *Encoder) encodeScaled(buf []byte, v *vector.Vector) ([]byte, error) {
	exp, ok := decimalScale(v.Floats, v.Nulls)
	if !ok {
		return buf, errNotDecimal
	}
	e.scaled = grow(e.scaled, len(v.Floats))
	for i, f := range v.Floats {
		var k int64
		if v.Nulls == nil || !v.Nulls[i] {
			// A value that fits a smaller e fits exp too, but only as long
			// as its k stays exact: check again.
			if k, ok = types.ScaledTo(f, exp); !ok {
				return buf, errNotDecimal
			}
		}
		e.scaled[i] = k
	}
	ints := vector.Vector{Typ: types.Int64, Ints: e.scaled}
	e.keptInt, e.trialInt, _ = e.trialLoop(&ints, e.keptInt, e.trialInt)
	buf = append(buf, byte(exp))
	return append(buf, e.keptInt...), nil
}

// decodeScaled decodes the integer block into out's own Ints, which a
// recycled vector keeps, and its dictionary, if any, into dict's Ints; then
// divides them into out's Floats.
func decodeScaled(b []byte, out *vector.Vector, n int, dict *vector.Vector) error {
	if len(b) < 1 || b[0] > types.MaxScale {
		return fmt.Errorf("encoding: corrupt %s exponent", Scaled)
	}
	div := types.Pow10(int(b[0]))
	b = b[1:]
	kind, rows, nullFlag, pos, err := decodeHeader(b, types.Int64)
	switch {
	case err != nil:
		return err
	case rows != n:
		return fmt.Errorf("encoding: %s block of %d rows holds %d integers", Scaled, n, rows)
	case nullFlag != 0:
		return fmt.Errorf("encoding: %s integers carry a null bitmap", Scaled)
	}
	ints := vector.Vector{Typ: types.Int64, Ints: out.Ints[:0]}
	scratch := vector.Vector{Typ: types.Int64, Ints: dict.Ints}
	err = decodePayload(kind, b[pos:], &ints, n, false, &scratch)
	out.Ints, dict.Ints = ints.Ints[:0], scratch.Ints
	if err != nil {
		return err
	}
	out.Floats = grow(out.Floats, n)
	for i, k := range ints.Ints {
		out.Floats[i] = float64(k) / div
	}
	return nil
}
