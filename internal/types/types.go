// Package types defines the SQL value types, typed values, schemas and rows
// shared by every layer of the engine.
//
// Vertica (per the paper, §8.1) extended C-Store's INTEGER-only model with
// FLOAT, VARCHAR, NULLs and 64-bit integral types; this package models that
// type system.
package types

import (
	"fmt"
	"time"
)

// Type identifies a column data type.
type Type uint8

const (
	// Invalid is the zero Type; it is never valid in a schema.
	Invalid Type = iota
	// Int64 is a 64-bit signed integer (the paper's integral type).
	Int64
	// Float64 is a 64-bit IEEE-754 float.
	Float64
	// Varchar is a variable-length string.
	Varchar
	// Bool is a boolean.
	Bool
	// Timestamp is microseconds since the Unix epoch, stored as int64.
	Timestamp
)

// String returns the SQL-ish name of the type.
func (t Type) String() string {
	switch t {
	case Int64:
		return "INTEGER"
	case Float64:
		return "FLOAT"
	case Varchar:
		return "VARCHAR"
	case Bool:
		return "BOOLEAN"
	case Timestamp:
		return "TIMESTAMP"
	default:
		return "INVALID"
	}
}

// IsIntegral reports whether values of t are represented as int64
// (and are therefore valid segmentation-expression results).
func (t Type) IsIntegral() bool {
	return t == Int64 || t == Timestamp || t == Bool
}

// IsNumeric reports whether t supports arithmetic.
func (t Type) IsNumeric() bool {
	return t == Int64 || t == Float64 || t == Timestamp
}

// ParseType parses a SQL type name (as accepted by the parser) into a Type.
func ParseType(s string) (Type, error) {
	switch s {
	case "INT", "INTEGER", "BIGINT", "INT8", "SMALLINT", "TINYINT":
		return Int64, nil
	case "FLOAT", "FLOAT8", "DOUBLE", "REAL", "NUMERIC", "DECIMAL":
		return Float64, nil
	case "VARCHAR", "CHAR", "TEXT", "STRING":
		return Varchar, nil
	case "BOOL", "BOOLEAN":
		return Bool, nil
	case "TIMESTAMP", "DATE", "DATETIME":
		return Timestamp, nil
	default:
		return Invalid, fmt.Errorf("types: unknown type %q", s)
	}
}

// Value is a single typed SQL value. The zero Value is the SQL NULL of an
// invalid type. Values are small and passed by value.
type Value struct {
	Typ  Type
	Null bool
	I    int64   // Int64, Timestamp (micros), Bool (0/1)
	F    float64 // Float64
	S    string  // Varchar
}

// NewInt returns an Int64 value.
func NewInt(v int64) Value { return Value{Typ: Int64, I: v} }

// NewFloat returns a Float64 value.
func NewFloat(v float64) Value { return Value{Typ: Float64, F: v} }

// NewString returns a Varchar value.
func NewString(v string) Value { return Value{Typ: Varchar, S: v} }

// NewBool returns a Bool value.
func NewBool(v bool) Value {
	var i int64
	if v {
		i = 1
	}
	return Value{Typ: Bool, I: i}
}

// NewTimestamp returns a Timestamp value from a time.Time.
func NewTimestamp(t time.Time) Value {
	return Value{Typ: Timestamp, I: t.UnixMicro()}
}

// NewTimestampMicros returns a Timestamp value from raw microseconds.
func NewTimestampMicros(us int64) Value { return Value{Typ: Timestamp, I: us} }

// NewNull returns the NULL value of type t.
func NewNull(t Type) Value { return Value{Typ: t, Null: true} }

// ParseTimestamp parses a timestamp ("2012-08-27 10:30:00") or date
// ("2012-08-27") literal as UTC.
func ParseTimestamp(s string) (Value, bool) {
	for _, layout := range [...]string{timestampLayout, "2006-01-02"} {
		if t, err := time.Parse(layout, s); err == nil {
			return NewTimestamp(t), true
		}
	}
	return Value{}, false
}

// Coerce converts a value to a column's type on its way into storage, the
// one rule INSERT and UPDATE share: NULL takes the column's type, an integer
// widens to FLOAT, a FLOAT truncates toward zero to an integral type, a
// string that parses as a timestamp becomes one, and integral types
// relabel. Any other value is returned unchanged.
func Coerce(v Value, t Type) Value {
	switch {
	case v.Null:
		return NewNull(t)
	case v.Typ == t:
		return v
	case t == Float64 && v.Typ.IsIntegral():
		return NewFloat(float64(v.I))
	case t.IsIntegral() && v.Typ == Float64:
		return Value{Typ: t, I: int64(v.F)}
	case t == Timestamp && v.Typ == Varchar:
		if tv, ok := ParseTimestamp(v.S); ok {
			return tv
		}
		return v
	case t.IsIntegral() && v.Typ.IsIntegral():
		v.Typ = t
		return v
	default:
		return v
	}
}

// Bool reports the boolean interpretation of the value.
func (v Value) Bool() bool { return !v.Null && v.I != 0 }

// Time returns the timestamp as a time.Time (UTC).
func (v Value) Time() time.Time { return time.UnixMicro(v.I).UTC() }

// IsNull reports whether the value is SQL NULL.
func (v Value) IsNull() bool { return v.Null }

// NullText is how every text surface (Value.String, the wire frames, vsql)
// renders SQL NULL.
const NullText = "NULL"

// timestampLayout is the display form of a Timestamp (UTC, whole seconds).
const timestampLayout = "2006-01-02 15:04:05"

// AppendText appends the display form of a non-NULL value of type t to dst
// and returns the extended slice. The value sits in the slot of t's storage
// class — i for the integral types, f for Float64, s for Varchar — which is
// how both a Value and a column vector hold it, so this one formatter serves
// Value.String and the column-at-a-time renderers alike without boxing.
//
// The text is strconv's, byte for byte: an INTEGER is strconv.AppendInt's
// and a FLOAT strconv.AppendFloat's 'g' with the shortest precision, both
// written in place. An integer's digits are counted first, so dst grows
// once and the digits go into it two at a time from the right. A FLOAT with
// 1e-4 ≤ |f| < 1e6 — the range 'g' prints without an exponent — that passes
// ScaledTo at some e with |k| < 10^15 is printed as k with a point e digits
// from the right, and that is the shortest text: no two decimals of at most
// 15 significant digits read back as the same float64 (their relative
// spacing, at least 10^-15, exceeds a float64's, at most 2^-52), so the
// shortest decimal that reads back as f, being no longer than k, is k·10^-e
// itself, and with the smallest such e, k has no trailing zero to drop.
// Every other float — 0, −0, NaN, ±Inf, the exponent forms, 16- and
// 17-digit values — is strconv's after one failed try of the test.
func AppendText(dst []byte, t Type, i int64, f float64, s string) []byte {
	switch t {
	case Int64:
		return AppendInt(dst, i)
	case Float64:
		return AppendFloat(dst, f)
	case Varchar:
		return append(dst, s...)
	case Bool:
		if i != 0 {
			return append(dst, "true"...)
		}
		return append(dst, "false"...)
	case Timestamp:
		return time.UnixMicro(i).UTC().AppendFormat(dst, timestampLayout)
	default:
		return append(dst, "<invalid>"...)
	}
}

// String renders the value for display.
func (v Value) String() string {
	switch {
	case v.Null:
		return NullText
	case v.Typ == Varchar:
		return v.S
	}
	var buf [32]byte
	return string(AppendText(buf[:0], v.Typ, v.I, v.F, v.S))
}

// Compare orders v against o. NULL sorts before all non-NULL values
// (NULLS FIRST), matching the storage sort order, and a NaN after every
// number and beside another NaN, so the order is total: a sort and a merge
// of sorted runs agree. It panics if the types are incomparable.
func (v Value) Compare(o Value) int {
	if v.Null || o.Null {
		switch {
		case v.Null && o.Null:
			return 0
		case v.Null:
			return -1
		default:
			return 1
		}
	}
	switch v.Typ {
	case Int64, Timestamp, Bool:
		var ov int64
		switch o.Typ {
		case Int64, Timestamp, Bool:
			ov = o.I
		case Float64:
			return -NewFloat(o.F).Compare(NewFloat(float64(v.I)))
		default:
			panic(fmt.Sprintf("types: cannot compare %s with %s", v.Typ, o.Typ))
		}
		switch {
		case v.I < ov:
			return -1
		case v.I > ov:
			return 1
		default:
			return 0
		}
	case Float64:
		var of float64
		switch o.Typ {
		case Float64:
			of = o.F
		case Int64, Timestamp, Bool:
			of = float64(o.I)
		default:
			panic(fmt.Sprintf("types: cannot compare %s with %s", v.Typ, o.Typ))
		}
		switch {
		case v.F < of:
			return -1
		case v.F > of:
			return 1
		case v.F == of:
			return 0
		case v.F == v.F: // of is a NaN
			return -1
		case of == of:
			return 1
		default:
			return 0
		}
	case Varchar:
		if o.Typ != Varchar {
			panic(fmt.Sprintf("types: cannot compare %s with %s", v.Typ, o.Typ))
		}
		switch {
		case v.S < o.S:
			return -1
		case v.S > o.S:
			return 1
		default:
			return 0
		}
	default:
		panic("types: compare on invalid type")
	}
}

// Equal reports v == o under Compare semantics (NULL equals NULL, which is
// the grouping/sorting notion of equality, not SQL ternary equality).
func (v Value) Equal(o Value) bool { return v.Compare(o) == 0 }

// Column describes one attribute of a table or projection.
type Column struct {
	Name     string
	Typ      Type
	Nullable bool
}

// Schema is an ordered list of columns.
type Schema struct {
	Cols []Column
}

// NewSchema builds a schema from columns.
func NewSchema(cols ...Column) *Schema { return &Schema{Cols: cols} }

// Len returns the number of columns.
func (s *Schema) Len() int { return len(s.Cols) }

// ColIndex returns the index of the named column, or -1.
func (s *Schema) ColIndex(name string) int {
	for i, c := range s.Cols {
		if c.Name == name {
			return i
		}
	}
	return -1
}

// Col returns the column at index i.
func (s *Schema) Col(i int) Column { return s.Cols[i] }

// Project returns a new schema containing the columns at the given indexes.
func (s *Schema) Project(idxs []int) *Schema {
	out := &Schema{Cols: make([]Column, len(idxs))}
	for i, idx := range idxs {
		out.Cols[i] = s.Cols[idx]
	}
	return out
}

// Names returns the column names in order.
func (s *Schema) Names() []string {
	out := make([]string, len(s.Cols))
	for i, c := range s.Cols {
		out[i] = c.Name
	}
	return out
}

// String renders the schema as "(a INTEGER, b VARCHAR)".
func (s *Schema) String() string {
	out := "("
	for i, c := range s.Cols {
		if i > 0 {
			out += ", "
		}
		out += c.Name + " " + c.Typ.String()
	}
	return out + ")"
}

// Row is a tuple of values, positionally aligned with a schema.
type Row []Value

// Clone returns a deep copy of the row.
func (r Row) Clone() Row {
	out := make(Row, len(r))
	copy(out, r)
	return out
}

// Compare orders two rows by the given column indexes.
func (r Row) Compare(o Row, keyIdx []int) int {
	for _, k := range keyIdx {
		if c := r[k].Compare(o[k]); c != 0 {
			return c
		}
	}
	return 0
}

// String renders the row for display.
func (r Row) String() string {
	out := "("
	for i, v := range r {
		if i > 0 {
			out += ", "
		}
		out += v.String()
	}
	return out + ")"
}
