package host

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// runtimeOwners are the places whose non-test code may build a DSR
// runtime: this package, the runtime's own package, the binaries and
// examples, the public API, and the benchmark module (which changes
// only with the benchmark). Anywhere else, a run is a Host.
var runtimeOwners = []string{"internal/host/", "internal/core/", "cmd/", "examples/", "dsr.go", "perfbench/"}

// TestOneRunHost fails when non-test code outside runtimeOwners calls
// core.NewRuntime: a new copy of the run protocol belongs on the host.
func TestOneRunHost(t *testing.T) {
	root := filepath.Join("..", "..")
	fset := token.NewFileSet()
	owned := 0
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != root && (name == "testdata" || strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		rel = filepath.ToSlash(rel)
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, pos := range newRuntimeRefs(f) {
			if ownedBy(rel) {
				owned++
				continue
			}
			t.Errorf("%s: core.NewRuntime outside the run host; run it on a host.Host", fset.Position(pos))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if owned == 0 {
		t.Fatal("found no core.NewRuntime reference at all, not even the host's: the scan is broken")
	}
}

// newRuntimeRefs returns the positions where f refers to
// core.NewRuntime, under whatever name f imports the core package.
func newRuntimeRefs(f *ast.File) []token.Pos {
	pkg := ""
	for _, imp := range f.Imports {
		if path, _ := strconv.Unquote(imp.Path.Value); path == "dsr/internal/core" {
			pkg = "core"
			if imp.Name != nil {
				pkg = imp.Name.Name
			}
		}
	}
	if pkg == "" {
		return nil
	}
	var refs []token.Pos
	ast.Inspect(f, func(n ast.Node) bool {
		if sel, ok := n.(*ast.SelectorExpr); ok && sel.Sel.Name == "NewRuntime" {
			if id, ok := sel.X.(*ast.Ident); ok && id.Name == pkg {
				refs = append(refs, sel.Pos())
			}
		}
		return true
	})
	return refs
}

func ownedBy(rel string) bool {
	for _, o := range runtimeOwners {
		if rel == o || strings.HasPrefix(rel, o) {
			return true
		}
	}
	return false
}
