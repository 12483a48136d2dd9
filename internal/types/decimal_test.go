package types

import (
	"math"
	"math/rand"
	"strconv"
	"testing"
)

// checkInt and checkFloat compare AppendText with the strconv calls whose
// text it promises, appending after a prefix so a kernel that writes before
// the end of dst shows too.
func checkInt(t *testing.T, i int64) {
	t.Helper()
	got := AppendText([]byte("x"), Int64, i, 0, "")
	if want := strconv.AppendInt([]byte("x"), i, 10); string(got) != string(want) {
		t.Fatalf("AppendText(%d) = %q, strconv %q", i, got, want)
	}
}

func checkFloat(t *testing.T, f float64) {
	t.Helper()
	got := AppendText([]byte("x"), Float64, 0, f, "")
	if want := strconv.AppendFloat([]byte("x"), f, 'g', -1, 64); string(got) != string(want) {
		t.Fatalf("AppendText(%b) = %q, strconv %q", f, got, want)
	}
}

// TestAppendTextMatchesStrconv sweeps integers and floats across every
// branch of the in-place kernels: digit counts, the decimal test at every
// exponent, both sides of the bounds of the no-exponent range, and the
// values that must fall back.
func TestAppendTextMatchesStrconv(t *testing.T) {
	rng := rand.New(rand.NewSource(20120827))
	ints := []int64{0, 1, -1, 9, -9, 10, -10, 99, -99, 100, -100, math.MinInt64, math.MaxInt64, math.MinInt64 + 1}
	for p := int64(1); p > 0 && p <= math.MaxInt64/10; p *= 10 {
		ints = append(ints, p-1, p, p+1, -p, 10*p-1)
	}
	for _, i := range ints {
		checkInt(t, i)
	}
	for n := 0; n < 200000; n++ {
		i := rng.Int63() >> rng.Intn(63) // every magnitude, not just 19 digits
		if rng.Intn(2) == 0 {
			i = -i
		}
		checkInt(t, i)
	}

	sum := 0.1
	sum += 0.2
	floats := []float64{0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1), sum,
		999999.9999999, 999999.999999999, 99999.9999999999, 1e6, 1e-4, 0.001, 0.01, 0.1, 1, 10,
		math.SmallestNonzeroFloat64, 0x1p-1022, 0x1p-1022 - math.SmallestNonzeroFloat64,
		math.MaxFloat64, 123456789012345, 0.000123456789012345, 1234567.5}
	for _, bound := range []float64{1e-4, 1e6} {
		lo, hi := bound, bound
		for s := 0; s < 20; s++ { // floats either side of the bound
			lo, hi = math.Nextafter(lo, 0), math.Nextafter(hi, math.Inf(1))
			floats = append(floats, lo, hi)
		}
	}
	for _, f := range floats {
		checkFloat(t, f)
		checkFloat(t, -f)
	}
	for e := 0; e <= 16; e++ { // k/10^e, the decimals the kernel prints
		for n := 0; n < 20000; n++ {
			k := rng.Int63n(int64(pow10u[rng.Intn(17)]))
			f := float64(k) / pow10[e]
			checkFloat(t, f)
			checkFloat(t, -f)
		}
	}
	for n := 0; n < 200000; n++ {
		checkFloat(t, math.Float64frombits(rng.Uint64()))                    // random bit patterns
		checkFloat(t, (rng.Float64()*2-1)*decades[rng.Intn(11)]*10)          // random floats in and about the range
		checkFloat(t, math.Float64frombits(rng.Uint64()>>12))                // subnormals
		checkFloat(t, float64(rng.Intn(1_000_000))/100/decades[rng.Intn(4)]) // prices
	}
}

// FuzzAppendText drives both kernels with arbitrary bits.
func FuzzAppendText(f *testing.F) {
	f.Add(int64(0), uint64(0))
	f.Add(int64(math.MinInt64), math.Float64bits(999999.9999999))
	f.Add(int64(-100), math.Float64bits(0.1+0.2))
	f.Add(int64(math.MaxInt64), math.Float64bits(1e-4))
	f.Fuzz(func(t *testing.T, i int64, bits uint64) {
		checkInt(t, i)
		checkFloat(t, math.Float64frombits(bits))
	})
}

var sinkText []byte

// BenchmarkAppendText times one cell of each kind through AppendText and
// through strconv: a price of cents, a random float (in the range the
// decimal test is tried on, so it pays that try and the fallback), an id.
func BenchmarkAppendText(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	const n = 1024
	var prices, randoms [n]float64
	var ids [n]int64
	for i := range n {
		prices[i] = float64(rng.Intn(9973)) / 100
		randoms[i] = rng.Float64() * 1000
		ids[i] = 100000 + rng.Int63n(900000)
	}
	buf := make([]byte, 0, 64)
	for _, bc := range []struct {
		name string
		fn   func(i int) []byte
	}{
		{"decimal", func(i int) []byte { return AppendText(buf, Float64, 0, prices[i%n], "") }},
		{"decimal/strconv", func(i int) []byte { return strconv.AppendFloat(buf, prices[i%n], 'g', -1, 64) }},
		{"random", func(i int) []byte { return AppendText(buf, Float64, 0, randoms[i%n], "") }},
		{"random/strconv", func(i int) []byte { return strconv.AppendFloat(buf, randoms[i%n], 'g', -1, 64) }},
		{"int", func(i int) []byte { return AppendText(buf, Int64, ids[i%n], 0, "") }},
		{"int/strconv", func(i int) []byte { return strconv.AppendInt(buf, ids[i%n], 10) }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sinkText = bc.fn(i)
			}
		})
	}
}
