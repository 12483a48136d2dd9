package encoding

import (
	"bytes"
	"math"
	"math/rand"
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/types"
	"repro/internal/vector"
)

// roundTrip encodes v with kind, decodes it back, and compares every value,
// floats bit for bit.
func roundTrip(t *testing.T, kind Kind, v *vector.Vector) []byte {
	t.Helper()
	enc, err := EncodeBlock(kind, v)
	if err != nil {
		t.Fatalf("EncodeBlock(%s): %v", kind, err)
	}
	dec, err := DecodeBlock(enc, v.Typ, false)
	if err != nil {
		t.Fatalf("DecodeBlock(%s): %v", kind, err)
	}
	if dec.Len() != v.Len() {
		t.Fatalf("%s: decoded %d rows, want %d", kind, dec.Len(), v.Len())
	}
	for i := 0; i < v.Len(); i++ {
		if want, got := v.ValueAt(i), dec.ValueAt(i); !sameValue(want, got) {
			t.Fatalf("%s: row %d = %v, want %v", kind, i, got, want)
		}
	}
	return enc
}

// sameValue reports whether a and b are both NULL or the same value, a
// float the same bits.
func sameValue(a, b types.Value) bool {
	switch {
	case a.Null || b.Null:
		return a.Null == b.Null
	case a.Typ == types.Float64:
		return math.Float64bits(a.F) == math.Float64bits(b.F)
	default:
		return a.Compare(b) == 0
	}
}

func intVec(vals ...int64) *vector.Vector { return vector.NewFromInts(types.Int64, vals) }

func TestRoundTripAllKindsInt(t *testing.T) {
	data := intVec(5, 5, 5, 9, 9, 100, 101, 102, 103, 5)
	for _, k := range []Kind{None, RLE, DeltaValue, BlockDict, CompressedDeltaRange, CompressedCommonDelta} {
		roundTrip(t, k, data)
	}
}

func TestRoundTripAllKindsFloat(t *testing.T) {
	data := vector.NewFromFloats([]float64{1.5, 1.5, 2.25, 100.0, 98.5, 0, -3.75})
	for _, k := range []Kind{None, RLE, BlockDict, CompressedDeltaRange, Scaled} {
		roundTrip(t, k, data)
	}
}

// TestFloatsRoundTripBitForBit: RLE and BLOCK_DICT compared floats with ==,
// so a run or a dictionary entry of 0 took in -0 (and a NaN never joined
// one): [-0, 0, 0, 0] decoded as four -0, and [0, -0, -0, 0] as four 0.
// Every FLOAT kind, Auto's pick among them too, must return the bits it
// was given.
func TestFloatsRoundTripBitForBit(t *testing.T) {
	negZero := math.Copysign(0, -1)
	nan := math.Float64frombits(0x7ff8_0000_0000_0002)
	for _, vals := range [][]float64{
		{negZero, 0, 0, 0},
		{0, negZero, negZero, 0},
		{math.NaN(), nan, nan, math.NaN(), 1},
		{0.5, negZero, 0.25, 0.25},
		oddFloats,
	} {
		v := vector.NewFromFloats(vals)
		for _, k := range []Kind{None, RLE, BlockDict, CompressedDeltaRange, Auto} {
			roundTrip(t, k, v)
		}
		if _, err := EncodeBlock(Scaled, v); err == nil {
			t.Errorf("%v stored as %s", vals, Scaled)
		}
	}
}

// TestScaledQualifies: a block is stored scaled at the smallest exponent its
// values all need, and refused when one value is no decimal of at most
// types.MaxScale digits or its integer would not be exact.
func TestScaledQualifies(t *testing.T) {
	sum := 0.1
	sum += 0.2 // 0.30000000000000004: no decimal of 15 digits
	for _, tc := range []struct {
		vals []float64
		exp  int // -1: refused
	}{
		{[]float64{1, 2, -7, 1e15}, 0},
		{[]float64{0.5, 12.25, 99.99}, 2},
		{[]float64{0.001, 1e-15}, 15},
		{[]float64{1e-16}, -1},
		{[]float64{1.25, sum}, -1},
		{[]float64{1 << 53}, -1},
		{[]float64{1<<53 - 1, -(1<<53 - 1)}, 0},
		{[]float64{(1<<53 - 1) / 100.0}, 1}, // 90071992547409.9 is the same float
		{[]float64{(1 << 53) / 100.0}, -1},
		{[]float64{0.1, math.Copysign(0, -1)}, -1},
		{[]float64{0.1, math.Inf(1)}, -1},
		{[]float64{5e-324}, -1},
		{nil, 0},
	} {
		v := vector.NewFromFloats(tc.vals)
		enc, err := EncodeBlock(Scaled, v)
		if tc.exp < 0 {
			if err == nil {
				t.Errorf("%v stored as %s", tc.vals, Scaled)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%v: %v", tc.vals, err)
		}
		if got := int(enc[3]); got != tc.exp { // kind, one-byte row count, null flag
			t.Errorf("%v stored at exponent %d, want %d", tc.vals, got, tc.exp)
		}
		roundTrip(t, Scaled, v)
	}
	// NULL slots are left out of the test and store k = 0.
	v := &vector.Vector{Typ: types.Float64, Floats: []float64{math.NaN(), 2.5, 0.125}, Nulls: []bool{true, false, false}}
	if enc := roundTrip(t, Scaled, v); enc[4] != 3 { // kind, row count, null flag, bitmap
		t.Errorf("exponent %d, want 3", enc[4])
	}
}

// TestScaledDecodeRejects: the decoder refuses what the encoder never
// writes inside a SCALED block.
func TestScaledDecodeRejects(t *testing.T) {
	for name, tc := range scaledCorruptions() {
		_, err := DecodeBlock(tc.block, types.Float64, false)
		if err == nil || !strings.Contains(err.Error(), tc.err) {
			t.Errorf("%s: decode = %v, want an error with %q", name, err, tc.err)
		}
	}
	if _, err := DecodeBlock([]byte{byte(Scaled), 1, 0, 0, byte(None), 1, 0, 0, 0, 0, 0, 0, 0, 0, 0}, types.Int64, false); err == nil {
		t.Error("a SCALED block decoded as INTEGER")
	}
	if _, err := DecodeBlock([]byte{byte(Auto), 0, 0}, types.Int64, false); err == nil {
		t.Error("a block of kind AUTO decoded")
	}
}

func TestRoundTripAllKindsString(t *testing.T) {
	data := vector.NewFromStrings([]string{"cpu", "cpu", "mem", "disk", "", "cpu"})
	for _, k := range []Kind{None, RLE, BlockDict} {
		roundTrip(t, k, data)
	}
}

func TestRoundTripWithNulls(t *testing.T) {
	v := vector.New(types.Int64, 6)
	v.AppendNull()
	v.AppendNull()
	v.AppendValue(types.NewInt(7))
	v.AppendValue(types.NewInt(7))
	v.AppendNull()
	v.AppendValue(types.NewInt(9))
	for _, k := range []Kind{None, RLE, DeltaValue, BlockDict, CompressedDeltaRange, CompressedCommonDelta} {
		roundTrip(t, k, v)
	}
}

func TestRoundTripEmptyAndSingle(t *testing.T) {
	for _, k := range []Kind{None, RLE, DeltaValue, BlockDict, CompressedDeltaRange, CompressedCommonDelta} {
		roundTrip(t, k, intVec())
		roundTrip(t, k, intVec(42))
	}
}

func TestRoundTripNegativeAndExtremes(t *testing.T) {
	data := intVec(-1, -9223372036854775808, 9223372036854775807, 0, -1)
	for _, k := range []Kind{None, RLE, BlockDict, CompressedDeltaRange} {
		roundTrip(t, k, data)
	}
}

func TestRLEPreservesRuns(t *testing.T) {
	data := intVec(3, 3, 3, 3, 8, 8, 1)
	enc, err := EncodeBlock(RLE, data)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := DecodeBlock(enc, types.Int64, true)
	if err != nil {
		t.Fatal(err)
	}
	if !dec.IsRLE() {
		t.Fatal("expected RLE-form vector")
	}
	if len(dec.RunLens) != 3 || dec.RunLens[0] != 4 || dec.RunLens[1] != 2 || dec.RunLens[2] != 1 {
		t.Errorf("runs = %v", dec.RunLens)
	}
	if dec.Ints[0] != 3 || dec.Ints[1] != 8 || dec.Ints[2] != 1 {
		t.Errorf("run values = %v", dec.Ints)
	}
	if dec.Len() != 7 {
		t.Errorf("logical len = %d", dec.Len())
	}
}

func TestRLECompressesSortedLowCardinality(t *testing.T) {
	// Paper §3.4.1: RLE is best for low cardinality sorted columns.
	v := vector.New(types.Int64, 4096)
	for i := 0; i < 4096; i++ {
		v.AppendValue(types.NewInt(int64(i / 1024))) // 4 distinct values, sorted
	}
	enc, _ := EncodeBlock(RLE, v)
	raw, _ := EncodeBlock(None, v)
	if len(enc)*100 > len(raw) {
		t.Errorf("RLE %d bytes vs raw %d bytes: expected >100x compression", len(enc), len(raw))
	}
}

func TestDeltaValueCompressesClusteredInts(t *testing.T) {
	// Many-valued unsorted integers confined to a narrow range.
	rng := rand.New(rand.NewSource(1))
	v := vector.New(types.Int64, 4096)
	for i := 0; i < 4096; i++ {
		v.AppendValue(types.NewInt(1_000_000_000 + rng.Int63n(1000)))
	}
	enc, _ := EncodeBlock(DeltaValue, v)
	raw, _ := EncodeBlock(None, v)
	if len(enc)*3 > len(raw) {
		t.Errorf("DELTAVAL %d vs raw %d: expected >3x compression", len(enc), len(raw))
	}
}

func TestBlockDictCompressesFewValued(t *testing.T) {
	// Paper §3.4.1: best for few-valued, unsorted columns such as stock prices.
	rng := rand.New(rand.NewSource(2))
	prices := []float64{99.5, 100.0, 100.25, 100.5, 101.0}
	v := vector.New(types.Float64, 4096)
	for i := 0; i < 4096; i++ {
		v.AppendValue(types.NewFloat(prices[rng.Intn(len(prices))]))
	}
	enc, _ := EncodeBlock(BlockDict, v)
	raw, _ := EncodeBlock(None, v)
	if len(enc)*10 > len(raw) {
		t.Errorf("BLOCK_DICT %d vs raw %d: expected >10x compression", len(enc), len(raw))
	}
}

func TestCommonDeltaCompressesPeriodicTimestamps(t *testing.T) {
	// Paper §3.4.1: ideal for timestamps recorded at periodic intervals.
	v := vector.New(types.Timestamp, 4096)
	ts := int64(1_600_000_000_000_000)
	for i := 0; i < 4096; i++ {
		v.AppendValue(types.NewTimestampMicros(ts))
		ts += 300_000_000 // every 5 minutes
		if i%500 == 499 {
			ts += 7_000_000 // occasional sequence break
		}
	}
	enc, _ := EncodeBlock(CompressedCommonDelta, v)
	raw, _ := EncodeBlock(None, v)
	if len(enc)*20 > len(raw) {
		t.Errorf("COMMONDELTA_COMP %d vs raw %d: expected >20x compression", len(enc), len(raw))
	}
	roundTrip(t, CompressedCommonDelta, v)
}

func TestDeltaRangeCompressesSortedFloats(t *testing.T) {
	v := vector.New(types.Float64, 4096)
	x := 100.0
	for i := 0; i < 4096; i++ {
		v.AppendValue(types.NewFloat(x))
		x += 0.25
	}
	enc, _ := EncodeBlock(CompressedDeltaRange, v)
	raw, _ := EncodeBlock(None, v)
	if len(enc)*2 > len(raw) {
		t.Errorf("DELTARANGE_COMP %d vs raw %d: expected >2x compression", len(enc), len(raw))
	}
}

func TestAutoPicksRLEForSorted(t *testing.T) {
	v := vector.New(types.Int64, 1000)
	for i := 0; i < 1000; i++ {
		v.AppendValue(types.NewInt(int64(i / 250)))
	}
	if k := Choose(v); k != RLE {
		t.Errorf("Choose picked %s for sorted low-cardinality data, want RLE", k)
	}
}

func TestAutoNeverReturnsAuto(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	v := vector.New(types.Int64, 100)
	for i := 0; i < 100; i++ {
		v.AppendValue(types.NewInt(rng.Int63()))
	}
	if k := Choose(v); k == Auto {
		t.Error("Choose returned Auto")
	}
}

// TestAutoAvoidsRLEForUniqueInts: a column of unique values, random or
// ascending, has one run per row, so the storage experiment never keeps RLE
// for it (paper §6.3: the encoding is picked by trying it on the data).
func TestAutoAvoidsRLEForUniqueInts(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	v := vector.New(types.Int64, 100)
	for i := 0; i < 100; i++ {
		v.AppendValue(types.NewInt(rng.Int63()))
	}
	if k := Choose(v); k == RLE {
		t.Error("Choose picked RLE for unique random data")
	}
	asc := vector.New(types.Int64, 1000)
	for i := 0; i < 1000; i++ {
		asc.AppendValue(types.NewInt(int64(i)))
	}
	if k := Choose(asc); k == RLE {
		t.Error("Choose picked RLE for unique ascending data")
	}
}

func TestAutoEncodeBlockResolves(t *testing.T) {
	v := intVec(1, 1, 1, 1, 1, 1)
	enc, err := EncodeBlock(Auto, v)
	if err != nil {
		t.Fatal(err)
	}
	k, err := BlockKind(enc)
	if err != nil || k == Auto {
		t.Errorf("stored kind = %v, %v", k, err)
	}
	dec, err := DecodeBlock(enc, types.Int64, false)
	if err != nil || dec.Len() != 6 {
		t.Fatalf("decode after auto: %v", err)
	}
}

func TestApplicability(t *testing.T) {
	if DeltaValue.Applicable(types.Varchar) || DeltaValue.Applicable(types.Float64) {
		t.Error("DELTAVAL should be integral-only")
	}
	if CompressedCommonDelta.Applicable(types.Float64) {
		t.Error("COMMONDELTA_COMP should be integral-only")
	}
	if !CompressedDeltaRange.Applicable(types.Float64) {
		t.Error("DELTARANGE_COMP should accept floats")
	}
	if !RLE.Applicable(types.Varchar) || !BlockDict.Applicable(types.Varchar) {
		t.Error("RLE/BLOCK_DICT should accept strings")
	}
	if _, err := EncodeBlock(DeltaValue, vector.NewFromStrings([]string{"x"})); err == nil {
		t.Error("encoding strings with DELTAVAL should fail")
	}
}

func TestParseKindRoundTrip(t *testing.T) {
	for _, k := range []Kind{None, Auto, RLE, DeltaValue, BlockDict, CompressedDeltaRange, CompressedCommonDelta} {
		got, err := ParseKind(k.String())
		if err != nil || got != k {
			t.Errorf("ParseKind(%s) = %v, %v", k, got, err)
		}
	}
	for _, s := range []string{"LZ4", Scaled.String()} {
		if _, err := ParseKind(s); err == nil {
			t.Errorf("ParseKind(%s) should fail", s)
		}
	}
}

// TestSQLDocListsParsableKinds: docs/SQL.md names exactly the encodings
// ParseKind accepts, each of whose kinds it lists by its String name.
func TestSQLDocListsParsableKinds(t *testing.T) {
	doc, err := os.ReadFile("../../docs/SQL.md")
	if err != nil {
		t.Fatal(err)
	}
	line := regexp.MustCompile("(?s)`ENCODING` kinds:(.*?)\\.\n").FindSubmatch(doc)
	if line == nil {
		t.Fatal("docs/SQL.md has no `ENCODING` kinds: list")
	}
	listed := map[Kind]bool{}
	for _, m := range regexp.MustCompile("`([A-Z_]+)`").FindAllSubmatch(line[1], -1) {
		k, err := ParseKind(string(m[1]))
		if err != nil {
			t.Errorf("docs/SQL.md lists %s: %v", m[1], err)
		}
		listed[k] = listed[k] || string(m[1]) == k.String()
	}
	for _, k := range []Kind{None, Auto, RLE, DeltaValue, BlockDict, CompressedDeltaRange, CompressedCommonDelta} {
		if !listed[k] {
			t.Errorf("docs/SQL.md does not list %s", k)
		}
	}
}

func TestDecodeCorruptBlocks(t *testing.T) {
	if _, err := DecodeBlock(nil, types.Int64, false); err == nil {
		t.Error("nil block should fail")
	}
	if _, err := DecodeBlock([]byte{byte(RLE)}, types.Int64, false); err == nil {
		t.Error("truncated block should fail")
	}
	if _, err := DecodeBlock([]byte{99, 1, 0}, types.Int64, false); err == nil {
		t.Error("unknown kind should fail")
	}
	// Valid header, truncated payload.
	v := intVec(1, 2, 3, 4, 5, 6, 7, 8)
	enc, _ := EncodeBlock(None, v)
	if _, err := DecodeBlock(enc[:len(enc)-4], types.Int64, false); err == nil {
		t.Error("truncated payload should fail")
	}
}

func TestQuickRoundTripIntsAllKinds(t *testing.T) {
	f := func(vals []int64) bool {
		v := intVec(vals...)
		for _, k := range []Kind{None, RLE, BlockDict, CompressedDeltaRange} {
			enc, err := EncodeBlock(k, v)
			if err != nil {
				return false
			}
			dec, err := DecodeBlock(enc, types.Int64, false)
			if err != nil || dec.Len() != len(vals) {
				return false
			}
			for i, want := range vals {
				if dec.Ints[i] != want {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestQuickRoundTripFloats(t *testing.T) {
	f := func(vals []float64) bool {
		v := vector.NewFromFloats(vals)
		for _, k := range []Kind{None, RLE, BlockDict, CompressedDeltaRange} {
			enc, err := EncodeBlock(k, v)
			if err != nil {
				return false
			}
			dec, err := DecodeBlock(enc, types.Float64, false)
			if err != nil || dec.Len() != len(vals) {
				return false
			}
			for i, want := range vals {
				got := dec.Floats[i]
				if got != want && !(got != got && want != want) { // NaN == NaN
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestQuickRoundTripStrings(t *testing.T) {
	f := func(vals []string) bool {
		v := vector.NewFromStrings(vals)
		for _, k := range []Kind{None, RLE, BlockDict} {
			enc, err := EncodeBlock(k, v)
			if err != nil {
				return false
			}
			dec, err := DecodeBlock(enc, types.Varchar, false)
			if err != nil || dec.Len() != len(vals) {
				return false
			}
			for i, want := range vals {
				if dec.Strs[i] != want {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestQuickAutoAlwaysSmallestOrTied: the Auto block is, byte for byte, the
// block of the earliest candidate with the smallest TrialSizes size, and
// Choose names that candidate — over random int slices and over shaped INT,
// FLOAT and VARCHAR blocks, with and without NULLs.
func TestQuickAutoAlwaysSmallestOrTied(t *testing.T) {
	picked := map[Kind]int{}
	check := func(v *vector.Vector) bool {
		sizes := TrialSizes(v)
		want := Auto
		for _, k := range candidateKinds(v.Typ) {
			if s, ok := sizes[k]; ok && (want == Auto || s < sizes[want]) {
				want = k
			}
		}
		picked[want]++
		auto, err := EncodeBlock(Auto, v)
		if err != nil {
			t.Fatal(err)
		}
		exp, err := EncodeBlock(want, v)
		if err != nil {
			t.Fatal(err)
		}
		return Choose(v) == want && bytes.Equal(auto, exp)
	}
	ints := func(vals []int64) bool { return len(vals) == 0 || check(intVec(vals...)) }
	if err := quick.Check(ints, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
	shaped := func(seed int64, typ uint8, n uint16, ds uint16, walk, nulls bool) bool {
		rng := rand.New(rand.NewSource(seed))
		tt := []types.Type{types.Int64, types.Float64, types.Varchar}[typ%3]
		return check(shapedVector(rng, tt, int(n%5000), 1+int(ds%600), walk, func(i int) bool { return nulls && rng.Intn(4) == 0 }))
	}
	if err := quick.Check(shaped, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
	// Floats of every shape the decode oracle draws: decimals, odd floats
	// and full-precision ones, with and without NULLs.
	floats := func(seed int64, n uint16) bool {
		return check(oracleFloats(rand.New(rand.NewSource(seed)), int(n%4097)))
	}
	if err := quick.Check(floats, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
	for _, k := range []Kind{Scaled, None, BlockDict, CompressedCommonDelta} {
		if picked[k] == 0 {
			t.Errorf("no block was smallest as %s: %v", k, picked)
		}
	}
}

// TestChooseMatchesAutoOnRunLengthVectors: Choose and EncodeBlock(Auto) run
// one experiment on the expanded vector. Choose used to answer RLE for any
// run-length vector untried, so a vector of 1 000 runs of one row each got
// RLE (9 006 bytes) where Auto stores COMMONDELTA_COMP (136 bytes).
func TestChooseMatchesAutoOnRunLengthVectors(t *testing.T) {
	ones := make([]int, 1000)
	unique := make([]int64, 1000)
	for i := range ones {
		ones[i], unique[i] = 1, int64(i)
	}
	for name, v := range map[string]*vector.Vector{
		"unique":  {Typ: types.Int64, Ints: unique, RunLens: ones},
		"const":   vector.NewConst(types.NewInt(7), 500),
		"floats":  {Typ: types.Float64, Floats: []float64{1.5, 2.5, 1.5}, RunLens: []int{300, 1, 40}},
		"strings": {Typ: types.Varchar, Strs: []string{"ny", "sf"}, RunLens: []int{2, 3}},
		"nulls":   {Typ: types.Int64, Ints: []int64{0, 4, 0}, Nulls: []bool{true, false, true}, RunLens: []int{5, 1, 9}},
	} {
		auto, err := EncodeBlock(Auto, v)
		if err != nil {
			t.Fatal(err)
		}
		chosen, err := EncodeBlock(Choose(v), v)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(chosen, auto) {
			t.Errorf("%s: Choose = %s (%d bytes), Auto stored %d bytes", name, Choose(v), len(chosen), len(auto))
		}
		roundTrip(t, Auto, v.Expand())
	}
}

// TestEncoderReusesScratch drives one Encoder through dissimilar blocks — a
// wide high-cardinality block, a short one, another type, NULLs — so scratch
// left over from one block (an uncleared map, a long index slice, stale keys
// or Huffman lengths) would show in the next, against a fresh EncodeBlock.
func TestEncoderReusesScratch(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	none := func(int) bool { return false }
	blocks := []*vector.Vector{
		shapedVector(rng, types.Int64, 4096, 4096, false, none),
		shapedVector(rng, types.Int64, 5, 3, true, none),
		shapedVector(rng, types.Int64, 4096, 300, true, none),
		intVec(9, 9, 9),
		shapedVector(rng, types.Varchar, 4096, 2000, false, none),
		shapedVector(rng, types.Varchar, 7, 2, false, func(i int) bool { return i%2 == 0 }),
		shapedVector(rng, types.Float64, 4096, 4096, true, none),
		shapedVector(rng, types.Float64, 3, 1, false, none),
		oracleFloats(rng, 4096),
		oracleFloats(rng, 300),
		shapedVector(rng, types.Timestamp, 1000, 17, true, func(i int) bool { return i%5 == 0 }),
		shapedVector(rng, types.Int64, 0, 1, false, none),
	}
	var e Encoder
	buf := []byte("prefix")
	for i, v := range blocks {
		for _, k := range []Kind{Auto, None, RLE, DeltaValue, BlockDict, CompressedDeltaRange, CompressedCommonDelta, Scaled} {
			if !k.Applicable(v.Typ) {
				continue
			}
			want, err := EncodeBlock(k, v)
			if k == Scaled && err != nil {
				if _, err := e.AppendBlock(buf[:6], k, v); err == nil {
					t.Errorf("block %d: a reused Encoder stored %s, a fresh one refused", i, k)
				}
				continue
			}
			if err != nil {
				t.Fatal(err)
			}
			got, err := e.AppendBlock(buf[:6], k, v)
			if err != nil {
				t.Fatal(err)
			}
			if string(got[:6]) != "prefix" || !bytes.Equal(got[6:], want) {
				t.Errorf("block %d (%s, %d rows) %s: reused Encoder wrote %d bytes, fresh %d", i, v.Typ, v.Len(), k, len(got)-6, len(want))
			}
			buf = got
		}
	}
}

// BenchmarkEncodeAuto: the storage experiment on one 4 096-row block per
// type, into a reused buffer by a warm Encoder, as a ContainerWriter runs it.
func BenchmarkEncodeAuto(b *testing.B) {
	none := func(int) bool { return false }
	for _, tc := range []struct {
		typ  types.Type
		ds   int
		walk bool
	}{{types.Int64, 64, true}, {types.Float64, 256, false}, {types.Varchar, 16, false}} {
		v := shapedVector(rand.New(rand.NewSource(1)), tc.typ, 4096, tc.ds, tc.walk, none)
		b.Run(tc.typ.String(), func(b *testing.B) {
			var e Encoder
			var buf []byte
			b.ReportAllocs()
			b.SetBytes(int64(8 * v.Len()))
			for range b.N {
				var err error
				if buf, err = e.AppendBlock(buf[:0], Auto, v); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDecodeFloat: one 4 096-row block of prices k/100 (256 distinct,
// unsorted) stored as NONE, BLOCK_DICT, DELTARANGE_COMP and SCALED, decoded
// into a reused vector and dictionary scratch as the block cache decodes,
// in ns a value.
func BenchmarkDecodeFloat(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	prices := make([]float64, 4096)
	for i := range prices {
		prices[i] = float64(999+rng.Intn(256)*25) / 100
	}
	for _, k := range []Kind{None, BlockDict, CompressedDeltaRange, Scaled} {
		enc, err := EncodeBlock(k, vector.NewFromFloats(prices))
		if err != nil {
			b.Fatal(err)
		}
		b.Run(k.String(), func(b *testing.B) {
			dst, dict := &vector.Vector{Typ: types.Float64}, &vector.Vector{}
			b.ReportAllocs()
			for range b.N {
				if err := DecodeInto(dst, enc, false, dict); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(prices)), "ns/value")
		})
	}
}

func TestHuffmanRoundTrip(t *testing.T) {
	freq := []int{50, 30, 10, 5, 5}
	var h huffScratch
	lengths, err := h.codeLengths(freq)
	if err != nil {
		t.Fatal(err)
	}
	// Kraft inequality must hold with equality for a complete code.
	var kraft float64
	for _, l := range lengths {
		if l > 0 {
			kraft += 1 / float64(uint64(1)<<uint(l))
		}
	}
	if kraft > 1.0000001 {
		t.Errorf("Kraft sum %f > 1", kraft)
	}
	syms := []int{0, 1, 2, 3, 4, 0, 0, 1, 2, 0, 4, 3, 2, 1, 0}
	enc := h.encode(nil, len(freq), lengths, syms)
	dec := make([]int64, len(syms))
	if _, err := huffmanDecode(enc, dec, nil); err != nil {
		t.Fatal(err)
	}
	for i, s := range syms {
		if dec[i] != int64(s) {
			t.Fatalf("symbol %d = %d, want %d", i, dec[i], s)
		}
	}
}

func TestHuffmanSingleSymbol(t *testing.T) {
	var h huffScratch
	lengths, err := h.codeLengths([]int{100})
	if err != nil || lengths[0] != 1 {
		t.Fatalf("single-symbol lengths = %v, %v", lengths, err)
	}
	syms := []int{0, 0, 0, 0}
	enc := h.encode(nil, 1, lengths, syms)
	dec := make([]int64, 4)
	n, err := huffmanDecode(enc, dec, nil)
	if err != nil || n != len(enc) || !slices.Equal(dec, make([]int64, 4)) {
		t.Fatalf("single-symbol decode: %v, %d of %d bytes, %v", dec, n, len(enc), err)
	}
}

// packBits and the dictionary gather agree at every width: an identity
// dictionary turns the gather into a plain unpack.
func TestBitPackRoundTrip(t *testing.T) {
	f := func(raw []uint16, width8 uint8) bool {
		width := int(width8%16) + 1
		vals := make([]int, len(raw))
		for i, r := range raw {
			vals[i] = int(r) % (1 << uint(width))
		}
		ident := make([]int64, 1<<width)
		for i := range ident {
			ident[i] = int64(i)
		}
		buf := packBits(nil, vals, width)
		got, err := gatherDict(nil, ident, buf, len(vals))
		if err != nil || len(got) != len(vals) {
			return false
		}
		for i := range vals {
			if got[i] != int64(vals[i]) {
				return false
			}
		}
		// packBits writes no spare byte: one fewer is a truncated stream.
		if len(buf) == 0 {
			return len(vals) == 0
		}
		_, err = gatherDict(nil, ident, buf[:len(buf)-1], len(vals))
		return err != nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestCommonDeltaDictTooLarge(t *testing.T) {
	// Random data has ~n distinct deltas; beyond maxCommonDeltaDict the
	// encoder must refuse rather than bloat.
	rng := rand.New(rand.NewSource(4))
	v := vector.New(types.Int64, maxCommonDeltaDict+100)
	for i := 0; i < maxCommonDeltaDict+100; i++ {
		v.AppendValue(types.NewInt(rng.Int63n(1 << 40)))
	}
	if _, err := EncodeBlock(CompressedCommonDelta, v); err == nil {
		t.Error("expected dictionary-overflow error on random data")
	}
}

// TestDecodeIntoRecycledVector: decoding into a vector that held another
// block — of another kind, size, type, with or without nulls or runs — and
// with dirty dictionary scratch yields what DecodeBlock yields afresh.
func TestDecodeIntoRecycledVector(t *testing.T) {
	rng := rand.New(rand.NewSource(20120827))
	dst, dict := &vector.Vector{}, &vector.Vector{}
	for i := 0; i < 400; i++ {
		typ := []types.Type{types.Int64, types.Float64, types.Varchar, types.Timestamp}[rng.Intn(4)]
		kind := Kind(rng.Intn(int(Scaled) + 1))
		if kind == Auto || !kind.Applicable(typ) {
			kind = BlockDict
		}
		v := vector.New(typ, 0)
		for n := rng.Intn(300); v.Len() < n; {
			switch x := int64(rng.Intn(20) * rng.Intn(3)); {
			case rng.Intn(9) == 0:
				v.AppendNull()
			case typ == types.Float64:
				v.AppendValue(types.NewFloat(float64(x) / 4))
			case typ == types.Varchar:
				v.AppendValue(types.NewString(string(rune('a' + x))))
			default:
				v.AppendValue(types.Value{Typ: typ, I: x + int64(v.Len())})
			}
		}
		enc, err := EncodeBlock(kind, v)
		if err != nil {
			continue // COMMONDELTA_COMP refuses some inputs
		}
		runs := rng.Intn(2) == 0
		want, err := DecodeBlock(enc, typ, runs)
		if err != nil {
			t.Fatal(err)
		}
		dst.Typ = typ
		if err := DecodeInto(dst, enc, runs, dict); err != nil {
			t.Fatal(err)
		}
		if dst.Len() != want.Len() || !slices.Equal(dst.Ints, want.Ints) || !slices.Equal(dst.Floats, want.Floats) ||
			!slices.Equal(dst.Strs, want.Strs) || !slices.Equal(dst.Nulls, want.Nulls) || !slices.Equal(dst.RunLens, want.RunLens) {
			t.Fatalf("case %d (%s %s, runs %v): a recycled decode differs from a fresh one", i, kind, typ, runs)
		}
	}
}
