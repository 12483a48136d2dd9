package types

import (
	"math"
	"math/bits"
	"slices"
	"strconv"
)

// The decimal test and the text kernels. A FLOAT that is a short decimal —
// a price of cents, a stored SCALED value — is recognised by one test,
// ScaledTo, both where storage picks its encoding and where a result cell
// is printed, and integers print straight into the destination.

// MaxScale is the largest decimal exponent a SCALED block may have: every
// k of a block must stay exact as a float64, below 2^53.
const MaxScale = 15

// pow10 holds every power of ten a float64 holds exactly.
var pow10 = [...]float64{1, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10,
	1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22}

// Pow10 returns 10^e, exact for 0 ≤ e ≤ 22.
func Pow10(e int) float64 { return pow10[e] }

// ScaledTo returns k with float64(k) / 10^e == f bit for bit, if there is
// one with |k| < 2^53 — the decimal-exponent test of ALP (Afroozeh, Kuffó
// and Boncz, SIGMOD 2024). Both k and 10^e are exact, so the division is
// the correctly rounded k·10^-e: the test holds exactly when the decimal
// k·10^-e reads back as f. −0, NaN and ±Inf never pass.
func ScaledTo(f float64, e int) (int64, bool) {
	x := math.Round(f * pow10[e])
	if !(math.Abs(x) < 1<<53) { // NaN and ±Inf fail here too
		return 0, false
	}
	k := int64(x)
	return k, math.Float64bits(float64(k)/pow10[e]) == math.Float64bits(f)
}

// decades[i] is 10^(i-4), the bounds of the magnitudes AppendFloat prints
// in place.
var decades = [...]float64{1e-4, 1e-3, 1e-2, 1e-1, 1, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6}

// AppendFloat is AppendText's FLOAT kernel: it appends
// strconv.AppendFloat(dst, f, 'g', -1, 64) (see AppendText for why the
// in-place text is that). The test is tried once, at the e that gives |f|
// 15 significant digits: a shorter decimal passes there too, with trailing
// zeros, and stripping them (while e > 0) leaves the smallest e. A float
// that fails pays that one try before strconv.
func AppendFloat(dst []byte, f float64) []byte {
	a := math.Abs(f)
	if !(a >= decades[0] && a < decades[len(decades)-1]) {
		return strconv.AppendFloat(dst, f, 'g', -1, 64)
	}
	// decades[p] ≤ a < decades[p+1], from the binary exponent and one
	// comparison; then a·10^e has 15 digits before the point.
	p := (int(math.Float64bits(a)>>52)-1023)*1233>>12 + 4
	if a >= decades[p+1] {
		p++
	}
	e := 18 - p
	k, ok := ScaledTo(a, e)
	if !ok || k >= 1e15 { // the bound the shortest-text argument needs
		return strconv.AppendFloat(dst, f, 'g', -1, 64)
	}
	u := uint64(k)
	if e >= 8 && u%1e8 == 0 {
		u, e = u/1e8, e-8
	}
	if e >= 4 && u%1e4 == 0 {
		u, e = u/1e4, e-4
	}
	if e >= 2 && u%100 == 0 {
		u, e = u/100, e-2
	}
	if e >= 1 && u%10 == 0 {
		u, e = u/10, e-1
	}
	if f < 0 {
		dst = append(dst, '-')
	}
	if e == 0 {
		return appendUint(dst, u)
	}
	// u's digits, zero-padded to at least one before the point, then the
	// integer part moved one place left to open the point.
	m := max(digitCount(u), e+1)
	dst, b := grow(dst, m+1)
	putDigits(b[1:], u)
	copy(b, b[1:m-e+1])
	b[m-e] = '.'
	return dst
}

// AppendInt is AppendText's INTEGER kernel: it appends
// strconv.AppendInt(dst, i, 10).
func AppendInt(dst []byte, i int64) []byte {
	u := uint64(i)
	if i < 0 {
		dst = append(dst, '-')
		u = -u // MinInt64 too: its magnitude fits a uint64
	}
	return appendUint(dst, u)
}

func appendUint(dst []byte, u uint64) []byte {
	dst, b := grow(dst, digitCount(u))
	putDigits(b, u)
	return dst
}

// grow extends dst by n bytes and returns it with the new tail.
func grow(dst []byte, n int) ([]byte, []byte) {
	l := len(dst)
	dst = slices.Grow(dst, n)[:l+n]
	return dst, dst[l:]
}

// pow10u[i] is 10^i.
var pow10u = [...]uint64{1, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10,
	1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19}

// digitCount returns the number of decimal digits of u (1 for 0).
func digitCount(u uint64) int {
	n := bits.Len64(u) * 1233 >> 12 // ⌊log10 2^len⌋: u has n or n+1 digits
	if u >= pow10u[n] {
		n++
	}
	return max(n, 1)
}

const digitPairs = "00010203040506070809" +
	"10111213141516171819" +
	"20212223242526272829" +
	"30313233343536373839" +
	"40414243444546474849" +
	"50515253545556575859" +
	"60616263646566676869" +
	"70717273747576777879" +
	"80818283848586878889" +
	"90919293949596979899"

// putDigits writes the low len(b) decimal digits of u into b, zero-padded,
// two at a time from the right.
func putDigits(b []byte, u uint64) {
	i := len(b)
	for i >= 2 {
		q := u / 100
		j := (u - q*100) * 2
		i -= 2
		b[i], b[i+1] = digitPairs[j], digitPairs[j+1]
		u = q
	}
	if i == 1 {
		b[0] = byte('0' + u)
	}
}
