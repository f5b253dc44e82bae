// Package wallclock proves, across package boundaries, that no
// deterministic-zone code can reach the host clock. It flags direct calls to
// the clock entry points of package time (Now, Since, Until, After,
// AfterFunc, Tick, NewTicker, NewTimer, Sleep) in zone code, and the
// indirect case too — a zone function calling an innocent-looking helper in
// another package that reads the clock three frames down. It propagates a
// "reaches the wall clock" fact along the call graph, so the helper's home
// package records the taint once and every importer sees it. Host-zone and
// unzoned code may read the clock freely; only what zone code reaches is
// reported.
//
// An allow directive on the clock-reading call absorbs the taint: the
// annotated site (the scenario runner's retry backoff) is asserted to keep
// host time out of simulated state, so its callers stay clean. Calls through
// function values and interfaces are not tracked, and neither are standard
// library internals: the invariant is about module code the repository
// controls.
package wallclock

import (
	"fmt"
	"go/ast"
	"go/types"
	"path/filepath"

	"repro/internal/lint"
)

// usesWallClock marks a function from which a host-clock call is reachable.
type usesWallClock struct {
	// Call is the ultimate clock entry point, e.g. "time.Now".
	Call string
	// Pos locates that call (file:line).
	Pos string
	// Via names the callee chain from the fact's function to the call,
	// e.g. "flushLoop → syncNow"; empty for a direct call.
	Via string
}

func (*usesWallClock) AFact() {}

// Analyzer implements the wallclock check.
var Analyzer = &lint.Analyzer{
	Name: "wallclock",
	Doc: "forbid host-clock reads (time.Now/Since/Ticker/Timer/Sleep) " +
		"reachable from deterministic-zone code, across package boundaries",
	RequireReason: true,
	Run:           run,
}

// clockFuncs are the wall-clock entry points of package time. Pure types and
// constants (time.Duration, time.Millisecond) express simulated durations
// and stay legal.
var clockFuncs = map[string]bool{
	"Now":       true,
	"Since":     true,
	"Until":     true,
	"After":     true,
	"AfterFunc": true,
	"Tick":      true,
	"NewTicker": true,
	"NewTimer":  true,
	"Sleep":     true,
}

// site is one taint source inside a function body.
type site struct {
	pos  ast.Node
	call string // direct clock call name ("time.Now"), or "" for an edge
	fn   *types.Func
}

func run(pass *lint.Pass) error {
	funcs := lint.Functions(pass)
	sites := make(map[*types.Func][]site, len(funcs))
	local := make(map[*types.Func]*ast.FuncDecl, len(funcs))
	for _, fn := range funcs {
		local[fn.Obj] = fn.Decl
	}
	for _, fn := range funcs {
		sites[fn.Obj] = collect(pass, fn.Decl)
	}

	// Taint to fixpoint: a function reaches the clock if it contains a
	// direct clock call, calls an imported function whose fact says so, or
	// calls a tainted function of this package.
	taint := make(map[*types.Func]*usesWallClock)
	reaches := func(fn *types.Func) *usesWallClock {
		if w, ok := taint[fn]; ok {
			return w
		}
		if _, isLocal := local[fn]; isLocal {
			return nil
		}
		var fact usesWallClock
		if pass.ImportObjectFact(fn, &fact) {
			return &fact
		}
		return nil
	}
	for changed := true; changed; {
		changed = false
		for _, fn := range funcs {
			if taint[fn.Obj] != nil {
				continue
			}
			for _, s := range sites[fn.Obj] {
				if s.call != "" {
					taint[fn.Obj] = &usesWallClock{Call: s.call, Pos: posString(pass, s.pos)}
					changed = true
					break
				}
				if w := reaches(s.fn); w != nil {
					via := lint.FuncDisplayName(pass, s.fn)
					if w.Via != "" {
						via += " → " + w.Via
					}
					taint[fn.Obj] = &usesWallClock{Call: w.Call, Pos: w.Pos, Via: via}
					changed = true
					break
				}
			}
		}
	}
	for fn, w := range taint {
		pass.ExportObjectFact(fn, w)
	}

	// Report root causes in deterministic-zone functions: direct clock
	// calls, and call edges into tainted code the zone does not own (other
	// packages, or same-package functions opted out of the zone). A
	// zone-internal tainted callee is its own root and reports there.
	for _, fn := range funcs {
		if pass.FuncZone(fn.Decl) != lint.ZoneDeterministic {
			continue
		}
		for _, s := range sites[fn.Obj] {
			if s.call != "" {
				pass.Reportf(s.pos.Pos(),
					"%s reads the host clock in deterministic-zone code; derive timing from the simulated cycle clock (sim.Cycles/sim.Freq)",
					s.call)
				continue
			}
			w := reaches(s.fn)
			if w == nil {
				continue
			}
			if decl, isLocal := local[s.fn]; isLocal && pass.FuncZone(decl) == lint.ZoneDeterministic {
				continue // reported at its own root inside the zone
			}
			msg := "call to %s reaches %s (%s) from deterministic-zone code"
			if w.Via != "" {
				pass.Reportf(s.pos.Pos(), msg+" via %s", lint.FuncDisplayName(pass, s.fn), w.Call, w.Pos, w.Via)
			} else {
				pass.Reportf(s.pos.Pos(), msg, lint.FuncDisplayName(pass, s.fn), w.Call, w.Pos)
			}
		}
	}
	return nil
}

// collect gathers the taint sources of one declaration: direct clock calls
// and statically-resolved call edges. Allowed sites are absorbed here, so
// they neither report nor propagate.
func collect(pass *lint.Pass, decl *ast.FuncDecl) []site {
	var out []site
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if name, ok := clockCall(pass, call); ok {
			if !pass.Allowed(call.Pos()) {
				out = append(out, site{pos: call, call: name})
			}
			return true
		}
		if fn := lint.Callee(pass, call); fn != nil && fn.Pkg() != nil {
			if !pass.Allowed(call.Pos()) {
				out = append(out, site{pos: call, fn: fn})
			}
		}
		return true
	})
	return out
}

// clockCall reports whether call is a direct wall-clock entry point of
// package time, returning its display name.
func clockCall(pass *lint.Pass, call *ast.CallExpr) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return "", false
	}
	pkgName, ok := pass.ObjectOf(id).(*types.PkgName)
	if !ok || pkgName.Imported().Path() != "time" || !clockFuncs[sel.Sel.Name] {
		return "", false
	}
	return "time." + sel.Sel.Name, true
}

// posString renders a witness position as "file.go:12" — basename only, so
// messages are stable across checkouts.
func posString(pass *lint.Pass, n ast.Node) string {
	p := pass.Fset.Position(n.Pos())
	return fmt.Sprintf("%s:%d", filepath.Base(p.Filename), p.Line)
}
