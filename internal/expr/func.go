package expr

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/types"
	"repro/internal/vector"
)

// Func is a built-in scalar function call. Supported functions:
//
//	HASH(args...)            -> INTEGER  stable segmentation hash (paper §3.6)
//	EXTRACT_YEAR(ts)         -> INTEGER
//	EXTRACT_MONTH(ts)        -> INTEGER
//	EXTRACT_DAY(ts)          -> INTEGER
//	ABS(x)                   -> same numeric type
//	LENGTH(s)                -> INTEGER
//	LOWER(s) / UPPER(s)      -> VARCHAR
//	MOD(a, b)                -> INTEGER
//	FLOAT(x) / INT(x)        -> casts
type Func struct {
	Name string
	Args []Expr

	typ types.Type
	fn  func(args []types.Value) (types.Value, error)
}

// NewFunc builds a function node, resolving its type and kernel.
func NewFunc(name string, args ...Expr) (*Func, error) {
	f := &Func{Name: strings.ToUpper(name), Args: args}
	argc := func(n int) error {
		if len(args) != n {
			return fmt.Errorf("expr: %s takes %d argument(s), got %d", f.Name, n, len(args))
		}
		return nil
	}
	switch f.Name {
	case "HASH":
		if len(args) == 0 {
			return nil, fmt.Errorf("expr: HASH requires at least one argument")
		}
		f.typ = types.Int64
		f.fn = func(vs []types.Value) (types.Value, error) {
			acc := uint64(14695981039346656037)
			for _, v := range vs {
				acc = types.HashCombine(acc, types.HashValue(v))
			}
			return types.NewInt(int64(acc)), nil
		}
	case "RING_NODE":
		// RING_NODE(nNodes, segValue) maps a segmentation value onto its
		// ring node index (paper §3.6's contiguous range mapping); used to
		// restrict buddy-projection scans to a down node's segment.
		if err := argc(2); err != nil {
			return nil, err
		}
		f.typ = types.Int64
		f.fn = func(vs []types.Value) (types.Value, error) {
			if vs[0].Null || vs[1].Null {
				return types.NewNull(types.Int64), nil
			}
			if vs[0].I < 1 {
				return types.Value{}, fmt.Errorf("expr: RING_NODE with zero nodes")
			}
			idx, _, _ := types.Ring(uint64(vs[1].I), ^uint64(0), int(vs[0].I))
			return types.NewInt(int64(idx)), nil
		}
	case "EXTRACT_YEAR", "EXTRACT_MONTH", "EXTRACT_DAY":
		if err := argc(1); err != nil {
			return nil, err
		}
		if args[0].Type() != types.Timestamp {
			return nil, fmt.Errorf("expr: %s requires TIMESTAMP, got %s", f.Name, args[0].Type())
		}
		f.typ = types.Int64
		part := f.Name
		f.fn = func(vs []types.Value) (types.Value, error) {
			if vs[0].Null {
				return types.NewNull(types.Int64), nil
			}
			t := time.UnixMicro(vs[0].I).UTC()
			switch part {
			case "EXTRACT_YEAR":
				return types.NewInt(int64(t.Year())), nil
			case "EXTRACT_MONTH":
				return types.NewInt(int64(t.Month())), nil
			default:
				return types.NewInt(int64(t.Day())), nil
			}
		}
	case "ABS":
		if err := argc(1); err != nil {
			return nil, err
		}
		at := args[0].Type()
		if !at.IsNumeric() {
			return nil, fmt.Errorf("expr: ABS requires numeric, got %s", at)
		}
		f.typ = at
		f.fn = func(vs []types.Value) (types.Value, error) {
			v := vs[0]
			if v.Null {
				return v, nil
			}
			if v.Typ == types.Float64 {
				if v.F < 0 {
					v.F = -v.F
				}
				return v, nil
			}
			if v.I < 0 {
				v.I = -v.I
			}
			return v, nil
		}
	case "LENGTH":
		if err := argc(1); err != nil {
			return nil, err
		}
		f.typ = types.Int64
		f.fn = func(vs []types.Value) (types.Value, error) {
			if vs[0].Null {
				return types.NewNull(types.Int64), nil
			}
			return types.NewInt(int64(len(vs[0].S))), nil
		}
	case "LOWER", "UPPER":
		if err := argc(1); err != nil {
			return nil, err
		}
		f.typ = types.Varchar
		lower := f.Name == "LOWER"
		f.fn = func(vs []types.Value) (types.Value, error) {
			if vs[0].Null {
				return types.NewNull(types.Varchar), nil
			}
			if lower {
				return types.NewString(strings.ToLower(vs[0].S)), nil
			}
			return types.NewString(strings.ToUpper(vs[0].S)), nil
		}
	case "MOD":
		if err := argc(2); err != nil {
			return nil, err
		}
		f.typ = types.Int64
		f.fn = func(vs []types.Value) (types.Value, error) {
			if vs[0].Null || vs[1].Null {
				return types.NewNull(types.Int64), nil
			}
			if vs[1].I == 0 {
				return types.Value{}, errDivZero
			}
			return types.NewInt(vs[0].I % vs[1].I), nil
		}
	case "FLOAT":
		if err := argc(1); err != nil {
			return nil, err
		}
		f.typ = types.Float64
		f.fn = func(vs []types.Value) (types.Value, error) {
			v := vs[0]
			if v.Null {
				return types.NewNull(types.Float64), nil
			}
			if v.Typ == types.Float64 {
				return v, nil
			}
			return types.NewFloat(float64(v.I)), nil
		}
	case "INT":
		if err := argc(1); err != nil {
			return nil, err
		}
		f.typ = types.Int64
		f.fn = func(vs []types.Value) (types.Value, error) {
			v := vs[0]
			if v.Null {
				return types.NewNull(types.Int64), nil
			}
			if v.Typ == types.Float64 {
				return types.NewInt(int64(v.F)), nil
			}
			return types.NewInt(v.I), nil
		}
	default:
		return nil, fmt.Errorf("expr: unknown function %s", f.Name)
	}
	return f, nil
}

// Type implements Expr.
func (f *Func) Type() types.Type { return f.typ }

// Eval implements Expr.
func (f *Func) Eval(b *vector.Batch) (*vector.Vector, error) {
	n := b.FullLen()
	argVecs := make([]*vector.Vector, len(f.Args))
	for i, a := range f.Args {
		v, err := a.Eval(b)
		if err != nil {
			return nil, err
		}
		argVecs[i] = v
	}
	if f.Name == "HASH" {
		// Batch.Hashes folds fn's hash chain column at a time, bit for bit.
		keys := make([]int, len(argVecs))
		for i := range keys {
			keys[i] = i
		}
		out := vector.New(types.Int64, n)
		for _, h := range (&vector.Batch{Cols: argVecs}).Hashes(nil, keys) {
			out.Ints = append(out.Ints, int64(h))
		}
		return out, nil
	}
	out := vector.New(f.typ, n)
	vals := make([]types.Value, len(f.Args))
	for i := 0; i < n; i++ {
		for j, av := range argVecs {
			vals[j] = av.ValueAt(i)
		}
		v, err := f.fn(vals)
		if err != nil {
			return nil, err
		}
		out.AppendValue(v)
	}
	return out, nil
}

// EvalRow implements Expr.
func (f *Func) EvalRow(r types.Row) (types.Value, error) {
	vals := make([]types.Value, len(f.Args))
	for i, a := range f.Args {
		v, err := a.EvalRow(r)
		if err != nil {
			return types.Value{}, err
		}
		vals[i] = v
	}
	return f.fn(vals)
}

// Columns implements Expr.
func (f *Func) Columns(acc []int) []int {
	for _, a := range f.Args {
		acc = a.Columns(acc)
	}
	return acc
}

// String implements Expr.
func (f *Func) String() string {
	parts := make([]string, len(f.Args))
	for i, a := range f.Args {
		parts[i] = a.String()
	}
	return f.Name + "(" + strings.Join(parts, ", ") + ")"
}
