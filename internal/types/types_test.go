package types

import (
	"testing"
	"testing/quick"
	"time"
)

func TestTypeString(t *testing.T) {
	cases := map[Type]string{
		Int64: "INTEGER", Float64: "FLOAT", Varchar: "VARCHAR",
		Bool: "BOOLEAN", Timestamp: "TIMESTAMP", Invalid: "INVALID",
	}
	for typ, want := range cases {
		if got := typ.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", typ, got, want)
		}
	}
}

func TestParseType(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Type
	}{
		{"INT", Int64}, {"INTEGER", Int64}, {"BIGINT", Int64},
		{"FLOAT", Float64}, {"DOUBLE", Float64},
		{"VARCHAR", Varchar}, {"TEXT", Varchar},
		{"BOOLEAN", Bool}, {"TIMESTAMP", Timestamp}, {"DATE", Timestamp},
	} {
		got, err := ParseType(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("ParseType(%q) = %v, %v; want %v", tc.in, got, err, tc.want)
		}
	}
	if _, err := ParseType("BLOB"); err == nil {
		t.Error("ParseType(BLOB) should fail")
	}
}

func TestValueConstructorsAndString(t *testing.T) {
	if got := NewInt(42).String(); got != "42" {
		t.Errorf("NewInt(42).String() = %q", got)
	}
	if got := NewFloat(2.5).String(); got != "2.5" {
		t.Errorf("NewFloat(2.5).String() = %q", got)
	}
	if got := NewString("hi").String(); got != "hi" {
		t.Errorf("NewString.String() = %q", got)
	}
	if got := NewBool(true).String(); got != "true" {
		t.Errorf("NewBool(true).String() = %q", got)
	}
	if got := NewNull(Int64).String(); got != "NULL" {
		t.Errorf("NewNull.String() = %q", got)
	}
	ts := time.Date(2012, 8, 27, 9, 0, 0, 0, time.UTC)
	if got := NewTimestamp(ts).String(); got != "2012-08-27 09:00:00" {
		t.Errorf("NewTimestamp.String() = %q", got)
	}
	if !NewTimestamp(ts).Time().Equal(ts) {
		t.Error("Timestamp round trip failed")
	}
}

func TestValueCompare(t *testing.T) {
	for _, tc := range []struct {
		a, b Value
		want int
	}{
		{NewInt(1), NewInt(2), -1},
		{NewInt(2), NewInt(2), 0},
		{NewInt(3), NewInt(2), 1},
		{NewFloat(1.5), NewFloat(2.5), -1},
		{NewFloat(1.5), NewInt(1), 1},
		{NewInt(1), NewFloat(1.5), -1},
		{NewString("a"), NewString("b"), -1},
		{NewString("b"), NewString("b"), 0},
		{NewNull(Int64), NewInt(-100), -1}, // NULLS FIRST
		{NewInt(-100), NewNull(Int64), 1},
		{NewNull(Int64), NewNull(Varchar), 0},
		{NewBool(false), NewBool(true), -1},
	} {
		if got := tc.a.Compare(tc.b); got != tc.want {
			t.Errorf("Compare(%v, %v) = %d, want %d", tc.a, tc.b, got, tc.want)
		}
	}
}

func TestValueCompareAntisymmetric(t *testing.T) {
	f := func(a, b int64) bool {
		return NewInt(a).Compare(NewInt(b)) == -NewInt(b).Compare(NewInt(a))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestValueComparePanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic comparing INTEGER with VARCHAR")
		}
	}()
	NewInt(1).Compare(NewString("x"))
}

func TestSchema(t *testing.T) {
	s := NewSchema(
		Column{Name: "a", Typ: Int64},
		Column{Name: "b", Typ: Varchar},
		Column{Name: "c", Typ: Float64},
	)
	if s.Len() != 3 {
		t.Fatalf("Len = %d", s.Len())
	}
	if s.ColIndex("b") != 1 || s.ColIndex("missing") != -1 {
		t.Error("ColIndex wrong")
	}
	p := s.Project([]int{2, 0})
	if p.Len() != 2 || p.Col(0).Name != "c" || p.Col(1).Name != "a" {
		t.Errorf("Project wrong: %v", p)
	}
	want := "(a INTEGER, b VARCHAR, c FLOAT)"
	if s.String() != want {
		t.Errorf("String = %q, want %q", s.String(), want)
	}
	if len(s.Names()) != 3 || s.Names()[0] != "a" {
		t.Error("Names wrong")
	}
}

func TestRowCompareAndClone(t *testing.T) {
	r1 := Row{NewInt(1), NewString("x")}
	r2 := Row{NewInt(1), NewString("y")}
	if r1.Compare(r2, []int{0}) != 0 {
		t.Error("compare on col 0 should be equal")
	}
	if r1.Compare(r2, []int{0, 1}) != -1 {
		t.Error("compare on both cols should be -1")
	}
	c := r1.Clone()
	c[0] = NewInt(99)
	if r1[0].I != 1 {
		t.Error("Clone did not deep copy")
	}
	if r1.String() != "(1, x)" {
		t.Errorf("Row.String = %q", r1.String())
	}
}

func TestHashValueStability(t *testing.T) {
	// Same value must hash identically; different values should differ.
	if HashValue(NewInt(7)) != HashValue(NewInt(7)) {
		t.Error("hash not deterministic")
	}
	if HashValue(NewInt(7)) == HashValue(NewInt(8)) {
		t.Error("suspicious collision on adjacent ints")
	}
	if HashValue(NewString("abc")) == HashValue(NewString("abd")) {
		t.Error("suspicious collision on adjacent strings")
	}
	// NULLs of the same type co-locate.
	if HashValue(NewNull(Int64)) != HashValue(NewNull(Int64)) {
		t.Error("NULL hash not deterministic")
	}
	// Raw-value fast paths agree with Value paths.
	if HashInt64(1234) != HashValue(NewInt(1234)) {
		t.Error("HashInt64 disagrees with HashValue")
	}
	if HashString("meter") != HashValue(NewString("meter")) {
		t.Error("HashString disagrees with HashValue")
	}
}

func TestHashRowOrderSensitivity(t *testing.T) {
	r := Row{NewInt(1), NewInt(2)}
	h12 := HashRow(r, []int{0, 1})
	h21 := HashRow(r, []int{1, 0})
	if h12 == h21 {
		t.Error("multi-column hash should be order sensitive")
	}
}

func TestHashDistribution(t *testing.T) {
	// A crude uniformity check: bucket 100k sequential ints into 16 buckets;
	// no bucket should be more than 20% off the mean. Sequential keys are
	// exactly the "primary key" case the paper's HASH segmentation targets.
	const n, buckets = 100000, 16
	counts := make([]int, buckets)
	for i := 0; i < n; i++ {
		counts[HashInt64(int64(i))%buckets]++
	}
	mean := n / buckets
	for b, c := range counts {
		if c < mean*8/10 || c > mean*12/10 {
			t.Errorf("bucket %d has %d entries (mean %d): hash is badly skewed", b, c, mean)
		}
	}
}

func TestIsIntegralIsNumeric(t *testing.T) {
	if !Int64.IsIntegral() || !Timestamp.IsIntegral() || !Bool.IsIntegral() {
		t.Error("integral types misclassified")
	}
	if Float64.IsIntegral() || Varchar.IsIntegral() {
		t.Error("non-integral types misclassified")
	}
	if !Int64.IsNumeric() || !Float64.IsNumeric() || Varchar.IsNumeric() {
		t.Error("IsNumeric misclassified")
	}
}

func TestParseTimestamp(t *testing.T) {
	for _, tc := range []struct {
		name, in string
		want     time.Time
		ok       bool
	}{
		{"timestamp", "2012-08-27 10:30:05", time.Date(2012, 8, 27, 10, 30, 5, 0, time.UTC), true},
		{"date", "2012-08-27", time.Date(2012, 8, 27, 0, 0, 0, 0, time.UTC), true},
		{"empty", "", time.Time{}, false},
		{"bad month", "2012-13-01", time.Time{}, false},
		{"trailing text", "2012-08-27 10:30:05 PST", time.Time{}, false},
		{"slashes", "2012/08/27", time.Time{}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			v, ok := ParseTimestamp(tc.in)
			if ok != tc.ok {
				t.Fatalf("ParseTimestamp(%q) ok = %v, want %v", tc.in, ok, tc.ok)
			}
			if ok && (v.Typ != Timestamp || v.Null || !v.Time().Equal(tc.want)) {
				t.Errorf("ParseTimestamp(%q) = %v (%s), want %v", tc.in, v, v.Typ, tc.want)
			}
		})
	}
}

// TestCoerce covers each rule of the one conversion INSERT and UPDATE share.
func TestCoerce(t *testing.T) {
	ts := NewTimestamp(time.Date(2012, 6, 1, 12, 0, 0, 0, time.UTC))
	for _, tc := range []struct {
		name string
		in   Value
		to   Type
		want Value
	}{
		{"null takes the column type", NewNull(Varchar), Int64, NewNull(Int64)},
		{"same type unchanged", NewString("x"), Varchar, NewString("x")},
		{"int widens to float", NewInt(3), Float64, NewFloat(3)},
		{"float truncates to int", NewFloat(7.9), Int64, NewInt(7)},
		{"negative float truncates toward zero", NewFloat(-7.9), Int64, NewInt(-7)},
		{"timestamp string", NewString("2012-06-01 12:00:00"), Timestamp, ts},
		{"date string", NewString("2012-06-01"), Timestamp, NewTimestamp(time.Date(2012, 6, 1, 0, 0, 0, 0, time.UTC))},
		{"unparsable string unchanged", NewString("June"), Timestamp, NewString("June")},
		{"int relabels as timestamp", NewInt(ts.I), Timestamp, ts},
		{"bool relabels as int", NewBool(true), Int64, NewInt(1)},
		{"string into int unchanged", NewString("12"), Int64, NewString("12")},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got := Coerce(tc.in, tc.to)
			if got.Typ != tc.want.Typ || got.Null != tc.want.Null || (!got.Null && got.Compare(tc.want) != 0) {
				t.Errorf("Coerce(%v (%s), %s) = %v (%s), want %v (%s)", tc.in, tc.in.Typ, tc.to, got, got.Typ, tc.want, tc.want.Typ)
			}
		})
	}
}
