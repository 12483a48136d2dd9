package optimizer

import (
	"math"
	"testing"

	"repro/internal/expr"
	"repro/internal/types"
)

// TestSelectivityScore: a table's estimate is the product of its local
// conjuncts' shape selectivities, whatever their literals.
func TestSelectivityScore(t *testing.T) {
	k := expr.NewColRef(0, types.Int64, "k")
	c := func(v int64) *expr.Const { return expr.NewConst(types.NewInt(v)) }
	cases := []struct {
		name  string
		where []expr.Expr
		want  float64
	}{
		{"no conjuncts", nil, 1},
		{"k = 1", []expr.Expr{expr.MustCmp(expr.Eq, k, c(1))}, 0.05},
		{"k = 9000", []expr.Expr{expr.MustCmp(expr.Eq, k, c(9000))}, 0.05},
		{"k < 1", []expr.Expr{expr.MustCmp(expr.Lt, k, c(1))}, 0.4},
		{"k IN (1, 2)", []expr.Expr{&expr.InList{Arg: k, Vals: []types.Value{types.NewInt(1), types.NewInt(2)}}}, 0.1},
		{"k IS NULL", []expr.Expr{&expr.IsNull{Arg: k}}, 0.5},
		{"k >= 1 AND k < 2", []expr.Expr{expr.MustCmp(expr.Ge, k, c(1)), expr.MustCmp(expr.Lt, k, c(2))}, 0.16},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := selectivityScore(tc.where); math.Abs(got-tc.want) > 1e-12 {
				t.Errorf("selectivity %v, want %v", got, tc.want)
			}
		})
	}
}
