// Package lint is a small, dependency-free static-analysis framework in the
// spirit of golang.org/x/tools/go/analysis, specialised for the determinism
// and correctness invariants of this simulator. It exists because the
// reproduction's headline numbers (accesses-to-first-flip, detection
// latencies, overhead percentages) are only meaningful if the simulator is
// bit-for-bit deterministic: no wall-clock time, no ambient math/rand state,
// and no Go map-iteration order may leak into simulation results.
//
// The framework deliberately mirrors the x/tools API shape (Analyzer, Pass,
// Diagnostic) so the analyzers could be ported to a real multichecker with
// mechanical changes, but it is built entirely on the standard library's
// go/ast, go/parser and go/types packages so the repository stays free of
// external module downloads.
//
// Suppression is handled centrally: a comment of the form
//
//	//lint:allow <analyzer> <justification...>
//
// on the offending line, or on the line immediately above it, silences that
// analyzer for that line. Analyzers that set RequireReason refuse directives
// without a justification.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// An Analyzer describes one invariant checker.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //lint:allow directives. It must be a single lower-case word.
	Name string

	// Doc is a one-paragraph description of the invariant enforced.
	Doc string

	// RequireReason, when set, makes a bare "//lint:allow <name>" directive
	// itself a diagnostic: suppressions must carry a justification.
	RequireReason bool

	// Run performs the analysis on one package and reports findings
	// through the pass.
	Run func(*Pass) error
}

// A Pass provides one analyzer with the parsed and type-checked view of a
// single package, and collects its diagnostics.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info

	zones *zoneInfo
	dirs  *directiveSet
	store *factStore
	diags *[]Diagnostic
}

// A Diagnostic is a single finding, already resolved to a file position.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s (%s)", d.Pos, d.Message, d.Analyzer)
}

// Reportf records a diagnostic at pos. Suppression by //lint:allow
// directives is applied afterwards by RunAnalyzers, not here, so analyzers
// never need to know about directives.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// TypeOf returns the static type of e, or nil if unknown.
func (p *Pass) TypeOf(e ast.Expr) types.Type {
	return p.Info.TypeOf(e)
}

// ObjectOf returns the object denoted by the identifier, or nil.
func (p *Pass) ObjectOf(id *ast.Ident) types.Object {
	if o := p.Info.Defs[id]; o != nil {
		return o
	}
	return p.Info.Uses[id]
}

// PackageZone returns the zone the analyzed package is in: its explicit
// //lint:zone directive if present, else the DefaultZones entry for its
// import path, else ZoneNone.
func (p *Pass) PackageZone() Zone { return p.zones.pkg }

// FuncZone returns fn's effective zone: a //lint:zone directive in its doc
// comment overrides the package zone.
func (p *Pass) FuncZone(fn *ast.FuncDecl) Zone { return p.zones.funcZone(fn) }

// Allowed reports whether a "//lint:allow <analyzer>" directive covers pos
// for the running analyzer. Fact-propagating analyzers consult it at taint
// sources: an allowed source is absorbed — neither reported nor propagated
// to callers — because the directive asserts the host-side effect is
// contained there. A bare directive does not count for RequireReason
// analyzers, so the missing-justification diagnostic still surfaces.
func (p *Pass) Allowed(pos token.Pos) bool {
	d := p.dirs.match(p.Fset.Position(pos), p.Analyzer.Name)
	if d == nil {
		return false
	}
	return d.Reason != "" || !p.Analyzer.RequireReason
}

// ExportObjectFact attaches a fact of the running analyzer to obj, making it
// visible to later passes over packages that import this one.
func (p *Pass) ExportObjectFact(obj types.Object, f Fact) {
	p.store.export(p.Analyzer.Name, obj, f)
}

// ImportObjectFact copies the running analyzer's fact of dst's type for obj
// into dst, reporting whether one exists.
func (p *Pass) ImportObjectFact(obj types.Object, dst Fact) bool {
	return p.store.imported(p.Analyzer.Name, obj, dst)
}

// RunAnalyzers applies every analyzer to every package and returns the
// surviving diagnostics sorted by position. Packages are visited in
// dependency order with one shared fact store, so facts a package exports
// are visible when its importers are analyzed. Directive suppression happens
// here: each package's files are scanned once for //lint:allow comments and
// matching diagnostics are dropped (or, for RequireReason analyzers with a
// bare directive, replaced with a complaint about the missing justification).
func RunAnalyzers(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	store := newFactStore()
	var out []Diagnostic
	for _, pkg := range sortDeps(pkgs) {
		dirs := collectDirectives(pkg.Fset, pkg.Files)
		zones, zdiags := collectZones(pkg.Fset, pkg.Files, pkg.Path)
		out = append(out, zdiags...)
		var raw []Diagnostic
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer: a,
				Fset:     pkg.Fset,
				Files:    pkg.Files,
				Pkg:      pkg.Types,
				Info:     pkg.Info,
				zones:    zones,
				dirs:     dirs,
				store:    store,
				diags:    &raw,
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s: analyzer %s: %v", pkg.Path, a.Name, err)
			}
		}
		byName := make(map[string]*Analyzer, len(analyzers))
		for _, a := range analyzers {
			byName[a.Name] = a
		}
		for _, d := range raw {
			dir := dirs.match(d.Pos, d.Analyzer)
			if dir == nil {
				out = append(out, d)
				continue
			}
			if a := byName[d.Analyzer]; a != nil && a.RequireReason && dir.Reason == "" {
				out = append(out, Diagnostic{
					Analyzer: d.Analyzer,
					Pos:      dir.Pos,
					Message: fmt.Sprintf(
						"//lint:allow %s needs a justification (\"//lint:allow %s <why this is safe>\")",
						d.Analyzer, d.Analyzer),
				})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Message < b.Message
	})
	return out, nil
}

// sortDeps orders packages so every package follows the packages it imports
// (restricted to the given set), keeping the input order among independent
// packages. Fact propagation depends on this: an importer must be analyzed
// after its dependencies have exported their facts.
func sortDeps(pkgs []*Package) []*Package {
	byTypes := make(map[*types.Package]*Package, len(pkgs))
	for _, pkg := range pkgs {
		byTypes[pkg.Types] = pkg
	}
	out := make([]*Package, 0, len(pkgs))
	visited := make(map[*Package]bool, len(pkgs))
	var visit func(*Package)
	visit = func(pkg *Package) {
		if visited[pkg] {
			return
		}
		visited[pkg] = true
		for _, imp := range pkg.Types.Imports() {
			if dep, ok := byTypes[imp]; ok {
				visit(dep)
			}
		}
		out = append(out, pkg)
	}
	for _, pkg := range pkgs {
		visit(pkg)
	}
	return out
}
