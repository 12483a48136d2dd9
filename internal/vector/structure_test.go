package vector

import (
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// TestOneMergeHeap keeps the sorted-stream spine the module's one merge heap
// (docs/ARCHITECTURE.md, "Sorted streams"): among the module's non-test Go
// files only this package's sorted.go imports container/heap. A k-way merge
// anywhere else would be a second spine to keep correct.
func TestOneMergeHeap(t *testing.T) {
	const root = "../.."
	allowed := []string{"internal/vector/sorted.go"}
	var users []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == root {
				return nil
			}
			// Hidden directories, test data and nested modules (benchmark/)
			// are not the module's code.
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil || strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		for _, imp := range f.Imports {
			if imp.Path.Value == `"container/heap"` {
				rel, _ := filepath.Rel(root, path)
				users = append(users, filepath.ToSlash(rel))
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	slices.Sort(users)
	if !slices.Equal(users, allowed) {
		t.Errorf("container/heap is imported by %v; want only the merger in %s", users, allowed[0])
	}
}
