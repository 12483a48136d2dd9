package exec

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"strings"
	"testing"
)

// TestSortedStreamStructure keeps the executor on the sorted-stream spine
// (docs/ARCHITECTURE.md, "Sorted streams"): none of the package's non-test
// files sorts a []types.Row or pivots a batch into rows with Batch.Rows — an
// operator that did would be holding its input row by row again. That the
// spine is the module's one merge heap is vector's TestOneMergeHeap.
func TestSortedStreamStructure(t *testing.T) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", func(fi os.FileInfo) bool { return !strings.HasSuffix(fi.Name(), "_test.go") }, 0)
	if err != nil {
		t.Fatal(err)
	}
	var files []*ast.File
	for _, f := range pkgs["exec"].Files {
		files = append(files, f)
	}
	info := &types.Info{Types: map[ast.Expr]types.TypeAndValue{}}
	conf := types.Config{Importer: importer.ForCompiler(fset, "source", nil)}
	if _, err := conf.Check("repro/internal/exec", fset, files, info); err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			switch fn := types.ExprString(sel); {
			case (strings.HasPrefix(fn, "sort.Slice") || strings.HasPrefix(fn, "slices.Sort")) && info.TypeOf(call.Args[0]).String() == "[]repro/internal/types.Row":
				t.Errorf("%s: %s over a []types.Row; sort batches with sortBatch", fset.Position(call.Pos()), fn)
			case sel.Sel.Name == "Rows" && len(call.Args) == 0 && info.TypeOf(sel.X).String() == "*repro/internal/vector.Batch":
				t.Errorf("%s: Batch.Rows pivots a batch into rows; walk it with a cursor", fset.Position(call.Pos()))
			}
			return true
		})
	}
}
