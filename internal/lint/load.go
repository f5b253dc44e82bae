package lint

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// A Package is one parsed, type-checked package ready for analysis.
type Package struct {
	Path  string // import path, e.g. "repro/internal/sim"
	Dir   string // absolute directory
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// A Loader parses and type-checks packages of a single module from source.
// Module-internal imports are resolved against the module directory;
// standard-library imports go through the toolchain's export data
// (go/importer). Test files are never loaded: the determinism invariants
// apply to simulation code, and tests are free to use wall-clock timeouts.
type Loader struct {
	ModuleDir  string
	ModulePath string

	fset    *token.FileSet
	std     types.Importer
	pkgs    map[string]*Package // memoized by import path
	loading map[string]bool     // import cycle detection
}

// NewLoader locates the enclosing module of dir (via go.mod) and returns a
// loader rooted there.
func NewLoader(dir string) (*Loader, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	root := abs
	for {
		if _, err := os.Stat(filepath.Join(root, "go.mod")); err == nil {
			break
		}
		parent := filepath.Dir(root)
		if parent == root {
			return nil, fmt.Errorf("lint: no go.mod found above %s", abs)
		}
		root = parent
	}
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	modPath := ""
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			modPath = strings.TrimSpace(rest)
			break
		}
	}
	if modPath == "" {
		return nil, fmt.Errorf("lint: no module directive in %s/go.mod", root)
	}
	return &Loader{
		ModuleDir:  root,
		ModulePath: modPath,
		fset:       token.NewFileSet(),
		std:        importer.Default(),
		pkgs:       make(map[string]*Package),
		loading:    make(map[string]bool),
	}, nil
}

// Fset returns the file set shared by every package this loader produced.
func (l *Loader) Fset() *token.FileSet { return l.fset }

// Expand resolves package patterns ("./...", "./internal/sim",
// "repro/cmd/...") into the sorted list of module import paths that contain
// buildable Go files. Directories named testdata or vendor, hidden
// directories, and nested modules (directories below the module root with a
// go.mod of their own) are skipped, as go list skips them.
func (l *Loader) Expand(patterns []string) ([]string, error) {
	seen := make(map[string]bool)
	var out []string
	add := func(path string) {
		if !seen[path] {
			seen[path] = true
			out = append(out, path)
		}
	}
	for _, pat := range patterns {
		rel := pat
		rel = strings.TrimPrefix(rel, l.ModulePath+"/")
		if rel == l.ModulePath {
			rel = "."
		}
		rel = strings.TrimPrefix(rel, "./")
		recursive := false
		if rel == "..." {
			rel, recursive = ".", true
		} else if strings.HasSuffix(rel, "/...") {
			rel, recursive = strings.TrimSuffix(rel, "/..."), true
		}
		base := filepath.Join(l.ModuleDir, filepath.FromSlash(rel))
		if !recursive {
			if !hasGoFiles(base) {
				return nil, fmt.Errorf("lint: no Go files in %s", base)
			}
			add(l.dirToPath(base))
			continue
		}
		err := filepath.WalkDir(base, func(p string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			name := d.Name()
			if p != base && (name == "testdata" || name == "vendor" ||
				strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			if p != l.ModuleDir {
				if _, err := os.Stat(filepath.Join(p, "go.mod")); err == nil {
					return filepath.SkipDir
				}
			}
			if hasGoFiles(p) {
				add(l.dirToPath(p))
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	sort.Strings(out)
	return out, nil
}

func (l *Loader) dirToPath(dir string) string {
	rel, err := filepath.Rel(l.ModuleDir, dir)
	if err != nil || rel == "." {
		return l.ModulePath
	}
	return l.ModulePath + "/" + filepath.ToSlash(rel)
}

func hasGoFiles(dir string) bool {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range entries {
		name := e.Name()
		if !e.IsDir() && strings.HasSuffix(name, ".go") &&
			!strings.HasSuffix(name, "_test.go") && !strings.HasPrefix(name, ".") {
			return true
		}
	}
	return false
}

// Load returns the type-checked package for a module import path, loading it
// (and, transitively, its module-internal dependencies) on first use.
func (l *Loader) Load(path string) (*Package, error) {
	if pkg, ok := l.pkgs[path]; ok {
		return pkg, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("lint: import cycle through %s", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	rel := strings.TrimPrefix(path, l.ModulePath)
	dir := filepath.Join(l.ModuleDir, filepath.FromSlash(strings.TrimPrefix(rel, "/")))
	pkg, err := l.loadDir(path, dir)
	if err != nil {
		return nil, err
	}
	l.pkgs[path] = pkg
	return pkg, nil
}

func (l *Loader) loadDir(path, dir string) (*Package, error) {
	bp, err := build.ImportDir(dir, 0)
	if err != nil {
		return nil, fmt.Errorf("lint: %s: %v", path, err)
	}
	var files []*ast.File
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	var terrs []error
	conf := types.Config{
		Importer: (*loaderImporter)(l),
		Error:    func(err error) { terrs = append(terrs, err) },
	}
	tpkg, _ := conf.Check(path, l.fset, files, info)
	if len(terrs) > 0 {
		max := len(terrs)
		if max > 5 {
			max = 5
		}
		msgs := make([]string, 0, max)
		for _, e := range terrs[:max] {
			msgs = append(msgs, e.Error())
		}
		return nil, fmt.Errorf("lint: type errors in %s:\n\t%s", path, strings.Join(msgs, "\n\t"))
	}
	return &Package{
		Path:  path,
		Dir:   dir,
		Fset:  l.fset,
		Files: files,
		Types: tpkg,
		Info:  info,
	}, nil
}

// loaderImporter adapts the Loader to the types.Importer interface, routing
// module-internal paths back through Load and everything else to the
// standard-library importer.
type loaderImporter Loader

func (li *loaderImporter) Import(path string) (*types.Package, error) {
	l := (*Loader)(li)
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if path == l.ModulePath || strings.HasPrefix(path, l.ModulePath+"/") {
		pkg, err := l.Load(path)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return l.std.Import(path)
}

// LoadPatterns is the convenience entry used by the driver: expand the
// patterns and load every matching package.
func (l *Loader) LoadPatterns(patterns []string) ([]*Package, error) {
	paths, err := l.Expand(patterns)
	if err != nil {
		return nil, err
	}
	pkgs := make([]*Package, 0, len(paths))
	for _, p := range paths {
		pkg, err := l.Load(p)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}
