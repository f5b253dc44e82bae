package scenario

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestBuildIsTheOnlyMachineBuilder keeps Build the one place a machine is
// assembled, so a default changed here reaches every command, example and
// experiment. It parses every non-test file of the module — skipping
// testdata and nested modules, as the go tool does — and reports each
// reference to machine.New outside the machine package and this one.
func TestBuildIsTheOnlyMachineBuilder(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	allowed := map[string]bool{"internal/machine": true, "internal/scenario": true}
	fset := token.NewFileSet()
	var sites []string
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == root {
				return nil
			}
			if name := d.Name(); name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
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
		if allowed[filepath.ToSlash(filepath.Dir(rel))] {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		pkg := importName(f, "repro/internal/machine")
		if pkg == "" {
			return nil
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok && sel.Sel.Name == "New" {
				if id, ok := sel.X.(*ast.Ident); ok && id.Name == pkg {
					sites = append(sites, rel+":"+strconv.Itoa(fset.Position(sel.Pos()).Line))
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(sites) > 0 {
		t.Errorf("machine.New outside scenario.Build at %d sites; map the settings onto a scenario.Spec instead:\n\t%s",
			len(sites), strings.Join(sites, "\n\t"))
	}
}

// importName returns the name f refers to the package at path by, or ""
// when f does not import it.
func importName(f *ast.File, path string) string {
	for _, imp := range f.Imports {
		if p, err := strconv.Unquote(imp.Path.Value); err != nil || p != path {
			continue
		}
		if imp.Name != nil {
			return imp.Name.Name
		}
		return path[strings.LastIndex(path, "/")+1:]
	}
	return ""
}
