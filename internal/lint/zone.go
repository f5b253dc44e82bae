package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// A Zone classifies a package or function for the determinism analyzers.
//
// Deterministic-zone code is everything whose behaviour must be a pure
// function of (Spec, Seed): the simulator core, the components it assembles,
// and the scenario engine that replays replicates. Host-zone code may touch
// the host clock, the OS, and process-fatal error handling: the sweep
// daemon, its workers, injected network faults.
//
// A package declares its zone with a directive on (or above) the package
// clause:
//
//	//lint:zone deterministic
//	package dram
//
// A function overrides its package's zone with the same directive in its doc
// comment — the escape hatch for the few host-facing paths inside otherwise
// deterministic packages (retry backoff, fsync pacing):
//
//	//lint:zone host
//	func sleepBackoff(...)
//
// Packages without a directive fall back to DefaultZones.
type Zone string

// The recognised zones.
const (
	// ZoneNone marks code outside any declared zone; the zone analyzers
	// compute facts there but report nothing.
	ZoneNone Zone = ""
	// ZoneDeterministic marks code whose behaviour must be a pure function
	// of (Spec, Seed).
	ZoneDeterministic Zone = "deterministic"
	// ZoneHost marks code explicitly allowed to depend on the host
	// environment.
	ZoneHost Zone = "host"
)

// DefaultZones maps module-relative package paths to their default zone. It
// covers every package on the simulation path, including the experiments
// that build the registry's results, and marks the sweep service's daemon,
// worker and network-fault packages host-side; packages can override with
// an explicit //lint:zone directive. Everything else — the on-disk journal
// (fsync pacing), profiling, reporting and the CLIs — is unzoned: the zone
// analyzers compute facts there, so zoned callers still see what it
// reaches, but report nothing in it.
var DefaultZones = map[string]Zone{
	"internal/anvil":       ZoneDeterministic,
	"internal/attack":      ZoneDeterministic,
	"internal/cache":       ZoneDeterministic,
	"internal/defense":     ZoneDeterministic,
	"internal/dram":        ZoneDeterministic,
	"internal/experiments": ZoneDeterministic,
	"internal/fault":       ZoneDeterministic,
	"internal/machine":     ZoneDeterministic,
	"internal/memsys":      ZoneDeterministic,
	"internal/netchaos":    ZoneHost,
	"internal/pmu":         ZoneDeterministic,
	"internal/scenario":    ZoneDeterministic,
	"internal/sim":         ZoneDeterministic,
	"internal/sweepd":      ZoneHost,
	"internal/vm":          ZoneDeterministic,
	"internal/workerd":     ZoneHost,
	"internal/workload":    ZoneDeterministic,
}

// DefaultZone returns the zone DefaultZones assigns to an import path, by
// exact match of its module-relative suffix. Suffixes are tried in sorted
// order so the answer cannot depend on map iteration.
func DefaultZone(path string) Zone {
	suffixes := make([]string, 0, len(DefaultZones))
	for suffix := range DefaultZones {
		suffixes = append(suffixes, suffix)
	}
	sort.Strings(suffixes)
	for _, suffix := range suffixes {
		if path == suffix || strings.HasSuffix(path, "/"+suffix) {
			return DefaultZones[suffix]
		}
	}
	return ZoneNone
}

// validZone reports whether name is a recognised zone directive scope.
func validZone(name string) bool {
	return Zone(name) == ZoneDeterministic || Zone(name) == ZoneHost
}

// zoneInfo is the resolved zoning of one package.
type zoneInfo struct {
	pkg   Zone
	funcs map[*ast.FuncDecl]Zone
}

// funcZone returns fn's effective zone.
func (zi *zoneInfo) funcZone(fn *ast.FuncDecl) Zone {
	if z, ok := zi.funcs[fn]; ok {
		return z
	}
	return zi.pkg
}

// collectZones resolves a package's zoning: an explicit package directive
// wins over DefaultZones, and function doc directives override per function.
// Malformed or misplaced directives become diagnostics under the reserved
// analyzer name "zone" — zoning errors must never silently widen or shrink
// what the suite checks.
func collectZones(fset *token.FileSet, files []*ast.File, path string) (*zoneInfo, []Diagnostic) {
	zi := &zoneInfo{pkg: DefaultZone(path), funcs: make(map[*ast.FuncDecl]Zone)}
	var diags []Diagnostic
	report := func(pos token.Position, format string, args ...interface{}) {
		diags = append(diags, Diagnostic{Analyzer: "zone", Pos: pos, Message: fmt.Sprintf(format, args...)})
	}

	pkgDeclared := false
	for _, f := range files {
		// Comment groups serving as function doc comments carry per-function
		// directives; anything on or above the package clause is
		// package-level; everything else is misplaced.
		funcDocs := make(map[*ast.CommentGroup]*ast.FuncDecl)
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Doc != nil {
				funcDocs[fn.Doc] = fn
			}
		}
		pkgLine := fset.Position(f.Name.Pos()).Line
		for _, cg := range f.Comments {
			fn := funcDocs[cg]
			for _, c := range cg.List {
				name, ok := parseZoneDirective(c.Text)
				if !ok {
					continue
				}
				pos := fset.Position(c.Slash)
				if !validZone(name) {
					report(pos, "unknown zone %q in //lint:zone directive (want %q or %q)",
						name, ZoneDeterministic, ZoneHost)
					continue
				}
				switch {
				case fn != nil:
					if prev, dup := zi.funcs[fn]; dup && prev != Zone(name) {
						report(pos, "conflicting //lint:zone directives on %s", fn.Name.Name)
						continue
					}
					zi.funcs[fn] = Zone(name)
				case pos.Line <= pkgLine:
					if pkgDeclared && zi.pkg != Zone(name) {
						report(pos, "conflicting package //lint:zone directives in package %s", f.Name.Name)
						continue
					}
					zi.pkg = Zone(name)
					pkgDeclared = true
				default:
					report(pos, "misplaced //lint:zone directive: it must sit on the package clause or a function's doc comment")
				}
			}
		}
	}
	return zi, diags
}
