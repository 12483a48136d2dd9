package encoding

import (
	"encoding/hex"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/types"
	"repro/internal/vector"
)

// The decoder differential oracle: the table-driven Huffman decoder and the
// word-at-a-time dictionary gather against the bit-at-a-time and byte-wise
// decoders they replaced, kept here as the reference. On random streams both
// must return the same symbols and consume the same bytes; on corrupted ones
// (flipped bits, truncation, a wrong symbol count, random tables) the same
// error. Reproduce a failure with the one-case line it prints.

var (
	decodeSeed  = flag.Int64("decode.seed", 20120827, "decoder oracle: seed of the first case")
	decodeCases = flag.Int("decode.cases", 3000, "decoder oracle: number of cases")
)

// refHuffmanDecode is the bit-at-a-time decoder: every bit read is one loop
// iteration. Its one change from the original is the bit-count check, which
// is made before the count becomes an int.
func refHuffmanDecode(b []byte, n int) ([]int, int, error) {
	sc64, sz := uvarint(b)
	if sz <= 0 {
		return nil, 0, fmt.Errorf("encoding: corrupt huffman symbol count")
	}
	if sc64 > uint64(len(b)) {
		return nil, 0, fmt.Errorf("encoding: huffman symbol count %d exceeds payload", sc64)
	}
	pos := sz
	symCount := int(sc64)
	lengths := make([]int, symCount)
	for s := 0; s < symCount; s++ {
		l, sz := uvarint(b[pos:])
		if sz <= 0 {
			return nil, 0, fmt.Errorf("encoding: corrupt huffman length table")
		}
		if l > 64 {
			return nil, 0, fmt.Errorf("encoding: huffman code length %d exceeds 64 bits", l)
		}
		lengths[s] = int(l)
		pos += sz
	}
	bits64, sz := uvarint(b[pos:])
	if sz <= 0 {
		return nil, 0, fmt.Errorf("encoding: corrupt huffman bit count")
	}
	pos += sz
	if bits64 > uint64(len(b)-pos)*8 {
		return nil, 0, fmt.Errorf("encoding: truncated huffman bitstream")
	}
	totalBits := int(bits64)
	byteLen := (totalBits + 7) / 8
	stream := b[pos : pos+byteLen]
	pos += byteLen

	maxLen := 0
	for _, l := range lengths {
		maxLen = max(maxLen, l)
	}
	if maxLen == 0 && n > 0 {
		return nil, 0, fmt.Errorf("encoding: huffman table has no codes")
	}
	count := make([]int, maxLen+2)
	for _, l := range lengths {
		if l > 0 {
			count[l]++
		}
	}
	firstCode := make([]uint64, maxLen+2)
	offset := make([]int, maxLen+2)
	var code uint64
	idx := 0
	for l := 1; l <= maxLen; l++ {
		firstCode[l] = code
		offset[l] = idx
		code = (code + uint64(count[l])) << 1
		idx += count[l]
	}
	symOfRank := make([]int, idx)
	rank := append([]int(nil), offset...)
	for s, l := range lengths {
		if l > 0 {
			symOfRank[rank[l]] = s
			rank[l]++
		}
	}

	out := make([]int, 0, n)
	var acc uint64
	accLen := 0
	bitPos := 0
	for len(out) < n {
		if accLen > maxLen {
			return nil, 0, fmt.Errorf("encoding: invalid huffman stream")
		}
		if bitPos >= totalBits && accLen == 0 {
			return nil, 0, fmt.Errorf("encoding: huffman stream exhausted after %d of %d symbols", len(out), n)
		}
		if bitPos < totalBits {
			acc = acc<<1 | uint64(stream[bitPos>>3]>>(7-bitPos&7)&1)
			bitPos++
			accLen++
		} else {
			return nil, 0, fmt.Errorf("encoding: huffman stream exhausted mid-symbol")
		}
		if r := acc - firstCode[accLen]; acc >= firstCode[accLen] && r < uint64(count[accLen]) {
			out = append(out, symOfRank[offset[accLen]+int(r)])
			acc, accLen = 0, 0
		}
	}
	return out, pos, nil
}

// refUnpackBits is the byte-wise unpack of n values of the given width;
// nil when b runs out.
func refUnpackBits(b []byte, n, width int) ([]int, int) {
	out := make([]int, n)
	var cur uint64
	bits := 0
	pos := 0
	mask := uint64(1)<<width - 1
	for i := 0; i < n; i++ {
		for bits < width {
			if pos >= len(b) {
				return nil, -1
			}
			cur |= uint64(b[pos]) << bits
			pos++
			bits += 8
		}
		out[i] = int(cur & mask)
		cur >>= width
		bits -= width
	}
	return out, pos
}

// refGatherDict is the dictionary decode as it was: an index slice first,
// then a gather through it.
func refGatherDict[T int64 | float64 | string](dict []T, b []byte, n int) ([]T, error) {
	idx, _ := refUnpackBits(b, n, bitWidth(len(dict)))
	if idx == nil {
		return nil, fmt.Errorf("encoding: truncated BLOCK_DICT indexes")
	}
	out := make([]T, n)
	for i, ix := range idx {
		if ix >= len(dict) {
			return nil, fmt.Errorf("encoding: BLOCK_DICT index out of range")
		}
		out[i] = dict[ix]
	}
	return out, nil
}

// oracleCounts are the symbol counts a case may ask for: block-boundary
// sizes, then anything up to a block.
var oracleCounts = []int{0, 1, 7, 8, 9, 4095, 4096}

func oracleCount(rng *rand.Rand) int {
	if rng.Intn(3) == 0 {
		return oracleCounts[rng.Intn(len(oracleCounts))]
	}
	return rng.Intn(600)
}

// oracleAlphabet picks an alphabet size: 0, 1, 2, 2^k, 2^k+1 or any.
func oracleAlphabet(rng *rand.Rand) int {
	switch rng.Intn(4) {
	case 0:
		return rng.Intn(3)
	case 1:
		return 1 << rng.Intn(11)
	case 2:
		return 1<<rng.Intn(11) + 1
	default:
		return rng.Intn(300)
	}
}

// fibSymbols returns n symbols over k whose counts follow the Fibonacci
// numbers — the most skewed a Huffman code gets, so its longest code is
// k-1 bits — rarest first kept when n cuts the sequence short, shuffled.
func fibSymbols(rng *rand.Rand, k, n int) []int {
	syms := make([]int, 0, n)
	a, b := 1, 1
	for s := 0; s < k && len(syms) < n; s++ {
		for j := 0; j < a && len(syms) < n; j++ {
			syms = append(syms, s)
		}
		a, b = b, a+b
	}
	for len(syms) < n && k > 0 {
		syms = append(syms, k-1)
	}
	rng.Shuffle(len(syms), func(i, j int) { syms[i], syms[j] = syms[j], syms[i] })
	return syms
}

// corrupt damages a stream one of four ways, or leaves it whole; it may
// also change the count of values the decoder is asked for.
func corrupt(rng *rand.Rand, b []byte, n int) ([]byte, int, string) {
	b = slices.Clone(b)
	switch rng.Intn(6) {
	case 0:
		if len(b) > 0 {
			for f := 1 + rng.Intn(3); f > 0; f-- {
				b[rng.Intn(len(b))] ^= 1 << rng.Intn(8)
			}
			return b, n, "flip"
		}
	case 1:
		return b[:rng.Intn(len(b)+1)], n, "truncate"
	case 2:
		return b, max(0, n+rng.Intn(21)-10), "count"
	case 3:
		junk := make([]byte, rng.Intn(40))
		rng.Read(junk)
		return junk, n, "junk"
	}
	return b, n, "whole"
}

// TestDecodeOracle runs the differential cases: each draws a Huffman stream
// and a packed dictionary stream, damages them or not, and decodes both
// with the old and the new decoder. Each also draws a FLOAT block of odd
// floats among decimals, which every FLOAT kind must return bit for bit.
func TestDecodeOracle(t *testing.T) {
	longCodes, errs := 0, 0
	scaled := map[bool]int{}
	for c := 0; c < *decodeCases; c++ {
		seed := *decodeSeed + int64(c)
		rng := rand.New(rand.NewSource(seed))
		fail := func(format string, args ...any) {
			t.Helper()
			t.Fatalf("case seed %d: %s\nre-run: go test ./internal/encoding -run TestDecodeOracle -decode.seed %d -decode.cases 1",
				seed, fmt.Sprintf(format, args...), seed)
		}

		// Huffman: a stream over k symbols, skewed or not.
		k := max(1, oracleAlphabet(rng))
		n := oracleCount(rng)
		var syms []int
		if rng.Intn(4) == 0 {
			k = 12 + rng.Intn(9)
			syms = fibSymbols(rng, k, max(n, 1<<(k-6)))
		} else {
			syms = make([]int, n)
			for i := range syms {
				syms[i] = rng.Intn(k)
				if rng.Intn(2) == 0 {
					syms[i] = min(syms[i], rng.Intn(k)) // a tilt towards small symbols
				}
			}
		}
		freq := make([]int, k)
		for _, s := range syms {
			freq[s]++
		}
		var h huffScratch
		lengths, err := h.codeLengths(freq)
		if err != nil {
			fail("code lengths: %v", err)
		}
		if slices.Max(lengths) > huffTableBits {
			longCodes++
		}
		enc := h.encode(nil, k, lengths, syms)
		enc = append(enc, make([]byte, rng.Intn(3))...) // what follows the stream is not consumed
		data, want, how := corrupt(rng, enc, len(syms))
		refSyms, refUsed, refErr := refHuffmanDecode(data, want)
		got := make([]int64, want)
		used, err := huffmanDecode(data, got, nil)
		if how == "whole" && (err != nil || !slices.Equal(got, int64s(syms))) {
			fail("huffman round trip: %v", err)
		}
		if msg, refMsg := errText(err), errText(refErr); msg != refMsg {
			fail("huffman %s stream %s, %d symbols: error %q, reference %q", how, hex.EncodeToString(data), want, msg, refMsg)
		}
		if err == nil && (used != refUsed || !slices.Equal(got, int64s(refSyms))) {
			fail("huffman %s stream %s, %d symbols: decoded %v (%d bytes), reference %v (%d bytes)",
				how, hex.EncodeToString(data), want, got, used, refSyms, refUsed)
		}
		if err != nil {
			errs++
		}

		// Dictionary: n indexes into a dictionary of ds values.
		ds, n := oracleAlphabet(rng), oracleCount(rng)
		dict := make([]int64, ds)
		for i := range dict {
			dict[i] = rng.Int63() - rng.Int63()
		}
		idx := make([]int, n)
		for i := range idx {
			if ds > 0 {
				idx[i] = rng.Intn(ds)
			}
		}
		packed, want, how := corrupt(rng, packBits(nil, idx, bitWidth(ds)), n)
		vals, err := gatherDict(nil, dict, packed, want)
		refVals, refErr := refGatherDict(dict, packed, want)
		if msg, refMsg := errText(err), errText(refErr); msg != refMsg {
			fail("dictionary of %d, %s stream %s, %d indexes: error %q, reference %q", ds, how, hex.EncodeToString(packed), want, msg, refMsg)
		}
		if !slices.Equal(vals, refVals) {
			fail("dictionary of %d, %s stream %s, %d indexes: %v, reference %v", ds, how, hex.EncodeToString(packed), want, vals, refVals)
		}
		strs := make([]string, ds)
		for i := range strs {
			strs[i] = fmt.Sprint(dict[i])
		}
		sv, err := gatherDict(nil, strs, packed, want)
		refSv, refErr := refGatherDict(strs, packed, want)
		if errText(err) != errText(refErr) || !slices.Equal(sv, refSv) {
			fail("string dictionary of %d, %s stream %s: %v %v, reference %v %v", ds, how, hex.EncodeToString(packed), sv, err, refSv, refErr)
		}

		// Floats: the reference is the input, bit for bit. (Auto stores one
		// of these; TestQuickAutoAlwaysSmallestOrTied holds it to which.)
		fv := oracleFloats(rng, oracleCount(rng))
		for _, k := range []Kind{None, RLE, BlockDict, CompressedDeltaRange, Scaled} {
			enc, err := EncodeBlock(k, fv)
			if k == Scaled {
				scaled[err == nil]++
			}
			if err != nil {
				if k == Scaled {
					continue
				}
				fail("%s: %v", k, err)
			}
			got, err := DecodeBlock(enc, types.Float64, false)
			if err != nil || got.Len() != fv.Len() {
				fail("%s block of %d floats: %v", k, fv.Len(), err)
			}
			for i := range fv.Len() {
				if w, g := fv.ValueAt(i), got.ValueAt(i); !sameValue(w, g) {
					fail("%s block of %d floats: row %d = %v (%x), want %v (%x)", k, fv.Len(), i, g, math.Float64bits(g.F), w, math.Float64bits(w.F))
				}
			}
		}
	}
	if *decodeCases >= 100 && (longCodes == 0 || errs == 0 || scaled[true] == 0 || scaled[false] == 0) {
		t.Errorf("%d cases reached codes longer than %d bits, %d failed to decode, %d floats were stored scaled and %d not: the oracle misses a path",
			longCodes, huffTableBits, errs, scaled[true], scaled[false])
	}
}

// oddFloats are the floats a codec can get wrong: both zeros, NaNs of
// other payloads and signs, the infinities, subnormals, the smallest
// normal, a sum that is no decimal, and the integers and hundredths at the
// edges of the range a float64 holds exactly.
var oddFloats = func() []float64 {
	sum := 0.1
	sum += 0.2
	return []float64{
		math.Copysign(0, -1), 0, math.NaN(), math.Float64frombits(0x7ff8_0000_0000_0001),
		math.Float64frombits(0xfff0_0000_0000_0100), math.Inf(1), math.Inf(-1),
		5e-324, -5e-324, 3 * 5e-324, 0x1p-1022, sum, 0.3,
		1<<53 - 1, 1 << 53, 1<<53 + 2, -(1<<53 - 1), -(1 << 53),
		(1<<53 - 1) / 100.0, (1 << 53) / 100.0, math.MaxFloat64,
	}
}()

// oracleFloats returns n floats, NULL or not: per block, decimals of one
// scale up to 10^-16 (of a few distinct values or many), full-precision
// values, or either with odd floats among them.
func oracleFloats(rng *rand.Rand, n int) *vector.Vector {
	div, ds := math.Pow(10, float64(rng.Intn(17))), 1+rng.Intn(1000)
	odd, random, nulls := rng.Intn(3) == 0, rng.Intn(4) == 0, rng.Intn(3) == 0
	v := vector.New(types.Float64, n)
	for i := 0; i < n; i++ {
		switch {
		case nulls && rng.Intn(5) == 0:
			v.AppendNull()
		case odd && rng.Intn(8) == 0:
			v.AppendValue(types.NewFloat(oddFloats[rng.Intn(len(oddFloats))]))
		case random:
			v.AppendValue(types.NewFloat(rng.NormFloat64() * 1e6))
		default:
			v.AppendValue(types.NewFloat(float64(rng.Intn(ds)-ds/4) / div))
		}
	}
	return v
}

// scaledBlock builds a SCALED block header for n rows, no NULLs, with
// exponent exp and the given bytes as its integer block.
func scaledBlock(n int, exp byte, inner []byte) []byte {
	b := appendUvarint([]byte{byte(Scaled)}, uint64(n))
	return append(append(b, 0, exp), inner...)
}

// scaledCorruptions are SCALED blocks the encoder never writes, each with
// the error its decode must give.
func scaledCorruptions() map[string]struct {
	block []byte
	err   string
} {
	ints := make([]int64, 40)
	for i := range ints {
		ints[i] = int64(i % 7 * 25)
	}
	inner, _ := EncodeBlock(CompressedCommonDelta, intVec(ints...))
	short, _ := EncodeBlock(DeltaValue, intVec(ints[:39]...))
	floats := make([]float64, 40)
	for i := range floats {
		floats[i] = float64(i) / 4
	}
	nested, _ := EncodeBlock(Scaled, vector.NewFromFloats(floats))
	nulls, _ := EncodeBlock(None, &vector.Vector{Typ: types.Int64, Ints: ints, Nulls: make([]bool, 40)})
	nulls[len(appendUvarint(nil, 40))+1] = 1 // the null flag, set
	return map[string]struct {
		block []byte
		err   string
	}{
		"exponent 16":          {scaledBlock(40, 16, inner), "exponent"},
		"no exponent":          {scaledBlock(40, 0, nil)[:3], "exponent"},
		"39 integers for 40":   {scaledBlock(40, 2, short), "holds 39 integers"},
		"nested SCALED":        {scaledBlock(40, 2, nested), "not applicable to INTEGER"},
		"integers with NULLs":  {scaledBlock(40, 2, nulls), "null bitmap"},
		"truncated integers":   {scaledBlock(40, 2, inner[:len(inner)/2]), "huffman"},
		"no integer block":     {scaledBlock(40, 2, inner[:1]), "short block"},
		"integer kind 99":      {scaledBlock(40, 2, []byte{99, 40, 0}), "unknown block kind"},
		"integer header cut":   {scaledBlock(40, 2, inner[:2]), "truncated block header"},
		"integer kind AUTO":    {scaledBlock(40, 2, []byte{byte(Auto), 40, 0}), "unknown block kind"},
		"integer rows too big": {scaledBlock(40, 2, []byte{byte(None), 0xff, 0xff, 0xff, 0xff, 0x0f, 0}), "exceeds limit"},
	}
}

func int64s(xs []int) []int64 {
	out := make([]int64, len(xs))
	for i, x := range xs {
		out[i] = int64(x)
	}
	return out
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// shapedVector returns n values of type t with ds distinct values — or, as
// a walk, ds distinct steps between neighbours — each picked once while n
// allows, the rest with Fibonacci skew; NULL at the rows nulls marks.
func shapedVector(rng *rand.Rand, t types.Type, n, ds int, walk bool, nulls func(int) bool) *vector.Vector {
	picks := make([]int, 0, n)
	for p := 0; p < ds && len(picks) < n; p++ {
		picks = append(picks, p)
	}
	picks = append(picks, fibSymbols(rng, min(ds, 16), n-len(picks))...)
	rng.Shuffle(n, func(i, j int) { picks[i], picks[j] = picks[j], picks[i] })
	ints := make([]int64, n)
	for i, p := range picks {
		ints[i] = int64(p) * 37
		if walk && i > 0 {
			ints[i] += ints[i-1]
		}
	}
	v := vector.New(t, n)
	for i, x := range ints {
		switch {
		case nulls(i):
			v.AppendNull()
		case t == types.Float64:
			v.AppendValue(types.NewFloat(float64(x) / 4))
		case t == types.Varchar:
			v.AppendValue(types.NewString(fmt.Sprintf("v%d", x)))
		case t == types.Bool:
			v.AppendValue(types.NewBool(x%2 == 0))
		default:
			v.AppendValue(types.Value{Typ: t, I: x})
		}
	}
	return v
}

// TestDecodeRoundTripShapes round-trips every kind, type and NULL pattern
// over the block-boundary row counts and the dictionary sizes whose index
// widths change (2^k, 2^k+1), with skewed frequencies that give Compressed
// Common Delta codes longer than one table lookup.
func TestDecodeRoundTripShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	nullPatterns := map[string]func(int) bool{
		"none":   func(int) bool { return false },
		"every3": func(i int) bool { return i%3 == 1 },
		"all":    func(int) bool { return true },
	}
	kinds := []Kind{None, RLE, DeltaValue, BlockDict, CompressedDeltaRange, CompressedCommonDelta, Scaled}
	for _, typ := range []types.Type{types.Int64, types.Timestamp, types.Bool, types.Float64, types.Varchar} {
		for _, n := range oracleCounts {
			for _, ds := range []int{1, 2, 16, 17, 256, 257} {
				for _, walk := range []bool{false, true} {
					for name, nulls := range nullPatterns {
						v := shapedVector(rng, typ, n, ds, walk, nulls)
						for _, k := range kinds {
							if !k.Applicable(typ) {
								continue
							}
							if _, err := EncodeBlock(k, v); err != nil {
								continue // a dictionary limit, or no decimals: Choose would pick another kind
							}
							t.Run(fmt.Sprintf("%s/%s/n%d/d%d/walk=%v/nulls=%s", typ, k, n, ds, walk, name), func(t *testing.T) {
								roundTrip(t, k, v)
							})
						}
					}
				}
			}
		}
	}
}

// TestHuffmanBitCountOverflowErrors: a bit count of 2^63 or more went
// negative as an int, passed the bounds check and sliced out of range.
func TestHuffmanBitCountOverflowErrors(t *testing.T) {
	block, _ := hex.DecodeString("06020000010001018880808080808080800100")
	_, err := DecodeBlock(block, types.Int64, false)
	if err == nil || !strings.Contains(err.Error(), "truncated huffman bitstream") {
		t.Fatalf("decode = %v, want a truncated-bitstream error", err)
	}
}

// TestDecodeAllocationGuard: a 4 096-row BLOCK_DICT or COMMONDELTA block
// decodes into its output vector and its dictionary, nothing block-sized
// beside them — no index slice, no symbol slice, no heap decode table.
func TestDecodeAllocationGuard(t *testing.T) {
	const n, ds, slack = 4096, 16, 1 << 10
	rng := rand.New(rand.NewSource(11))
	for _, tc := range []struct {
		kind Kind
		walk bool
	}{{BlockDict, false}, {CompressedCommonDelta, true}} {
		v := shapedVector(rng, types.Int64, n, ds, tc.walk, func(int) bool { return false })
		enc, err := EncodeBlock(tc.kind, v)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := DecodeBlock(enc, types.Int64, false); err != nil {
			t.Fatal(err)
		}
		const runs = 100
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			if _, err := DecodeBlock(enc, types.Int64, false); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		per := (after.TotalAlloc - before.TotalAlloc) / runs
		if limit := uint64(8*n + 8*ds + slack); per > limit {
			t.Errorf("%s: a %d-row decode allocates %d bytes, limit %d (output %d + dictionary %d + %d)",
				tc.kind, n, per, limit, 8*n, 8*ds, slack)
		}
	}
}

// TestEncodeAllocationGuard: a warm Encoder Auto-encodes a 4 096-row INT,
// FLOAT or VARCHAR block into a reused buffer without allocating anything
// block-sized — no trial buffer per candidate, no second encode of the
// winner, no run, index, delta, key or Huffman slice, no map.
func TestEncodeAllocationGuard(t *testing.T) {
	const n, slack = 4096, 256
	rng := rand.New(rand.NewSource(13))
	every7 := func(i int) bool { return i%7 == 3 }
	cents := vector.New(types.Float64, n) // prices k/100, NULL at every seventh row
	for i := 0; i < n; i++ {
		if every7(i) {
			cents.AppendNull()
		} else {
			cents.AppendValue(types.NewFloat(float64(rng.Intn(100_000)) / 100))
		}
	}
	if k := Choose(cents); k != Scaled {
		t.Fatalf("cents stored as %s, want %s", k, Scaled)
	}
	for _, tc := range []struct {
		typ   types.Type
		ds    int
		walk  bool
		nulls func(int) bool
	}{
		{types.Int64, 64, true, func(int) bool { return false }},
		{types.Int64, 1000, false, every7},
		{types.Float64, 256, false, every7},
		{types.Varchar, 300, false, func(int) bool { return false }},
		{types.Float64, 0, false, every7}, // cents
	} {
		v := cents
		if tc.ds > 0 {
			v = shapedVector(rng, tc.typ, n, tc.ds, tc.walk, tc.nulls)
		}
		var e Encoder
		var buf []byte
		var err error
		for range 5 { // the two trial buffers swap, so both grow to fit in turn
			if buf, err = e.AppendBlock(buf[:0], Auto, v); err != nil {
				t.Fatal(err)
			}
		}
		const runs = 50
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			if buf, err = e.AppendBlock(buf[:0], Auto, v); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		if per := (after.TotalAlloc - before.TotalAlloc) / runs; per > slack {
			t.Errorf("%s (%d distinct): a warm %d-row Auto encode allocates %d bytes, limit %d", tc.typ, tc.ds, n, per, slack)
		}
	}
}
