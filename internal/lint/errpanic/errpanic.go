// Package errpanic proves that no panic, log.Fatal or os.Exit is reachable
// from the exported APIs of deterministic-zone packages. The hardened sweep
// runner converts replicate panics into errors, but a library that panics on
// bad configuration still turns a recoverable per-replicate failure into a
// lost worker — PRs 1 and 4 hand-converted those paths to returned errors,
// and this analyzer locks the conversions in, across package boundaries: a
// zone API calling another package's Must-style helper is flagged at the
// call site via the helper's exported fact.
//
// Contract panics — impossible-state guards and Must-prefixed constructors
// whose documented contract is to panic on programmer error — are absorbed
// with a justified "//lint:allow errpanic <why>" on the panic itself; the
// annotation asserts containment, so callers stay clean.
package errpanic

import (
	"fmt"
	"go/ast"
	"go/types"
	"path/filepath"
	"strings"

	"repro/internal/lint"
)

// panics marks a function from which an explicit panic is reachable.
type panics struct {
	// What names the terminal call: "panic", "log.Fatalf", "os.Exit".
	What string
	// Pos locates it (file.go:line).
	Pos string
	// Via names the callee chain from the fact's function; empty when the
	// panic is in the function's own body.
	Via string
}

func (*panics) AFact() {}

// Analyzer implements the errpanic check.
var Analyzer = &lint.Analyzer{
	Name: "errpanic",
	Doc: "forbid panic/log.Fatal/os.Exit reachable from exported " +
		"deterministic-zone APIs; return errors instead",
	RequireReason: true,
	Run:           run,
}

type site struct {
	pos  ast.Node
	what string // terminal call name, or "" for a call edge
	fn   *types.Func
}

func run(pass *lint.Pass) error {
	funcs := lint.Functions(pass)
	local := make(map[*types.Func]*ast.FuncDecl, len(funcs))
	sites := make(map[*types.Func][]site, len(funcs))
	for _, fn := range funcs {
		local[fn.Obj] = fn.Decl
	}
	for _, fn := range funcs {
		sites[fn.Obj] = collect(pass, fn.Decl)
	}

	taint := make(map[*types.Func]*panics)
	reaches := func(fn *types.Func) *panics {
		if w, ok := taint[fn]; ok {
			return w
		}
		if _, isLocal := local[fn]; isLocal {
			return nil
		}
		var fact panics
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
				if s.what != "" {
					taint[fn.Obj] = &panics{What: s.what, Pos: posString(pass, s.pos)}
					changed = true
					break
				}
				if w := reaches(s.fn); w != nil {
					via := lint.FuncDisplayName(pass, s.fn)
					if w.Via != "" {
						via += " → " + w.Via
					}
					taint[fn.Obj] = &panics{What: w.What, Pos: w.Pos, Via: via}
					changed = true
					break
				}
			}
		}
	}
	for fn, w := range taint {
		pass.ExportObjectFact(fn, w)
	}

	// Reachability: which functions can an exported deterministic-zone API
	// actually reach through this package's call graph? Only sites inside
	// that set are findings — an unreachable helper's panic is dead weight,
	// not an invariant break.
	roots := make([]*types.Func, 0, len(funcs))
	firstRoot := make(map[*types.Func]*types.Func)
	for _, fn := range funcs {
		if lint.ExportedAPI(pass, fn.Decl) && pass.FuncZone(fn.Decl) == lint.ZoneDeterministic {
			roots = append(roots, fn.Obj)
		}
	}
	for _, root := range roots {
		var walk func(fn *types.Func)
		walk = func(fn *types.Func) {
			if _, seen := firstRoot[fn]; seen {
				return
			}
			firstRoot[fn] = root
			for _, s := range sites[fn] {
				if s.fn != nil && local[s.fn] != nil {
					walk(s.fn)
				}
			}
		}
		walk(root)
	}

	for _, fn := range funcs {
		root, reachable := firstRoot[fn.Obj]
		if !reachable {
			continue
		}
		api := lint.FuncDisplayName(pass, root)
		for _, s := range sites[fn.Obj] {
			if s.what != "" {
				if pass.FuncZone(fn.Decl) != lint.ZoneDeterministic {
					continue // opted-out function body; callers report the edge
				}
				pass.Reportf(s.pos.Pos(),
					"%s is reachable from exported deterministic-zone API %s; return an error instead",
					s.what, api)
				continue
			}
			w := reaches(s.fn)
			if w == nil {
				continue
			}
			if decl, isLocal := local[s.fn]; isLocal && pass.FuncZone(decl) == lint.ZoneDeterministic {
				continue // reported at its own root inside the zone
			}
			msg := fmt.Sprintf("call to %s may %s (%s)",
				lint.FuncDisplayName(pass, s.fn), w.What, w.Pos)
			if w.Via != "" {
				msg += " via " + w.Via
			}
			pass.Reportf(s.pos.Pos(), "%s; exported deterministic-zone API %s must return errors, not panic", msg, api)
		}
	}
	return nil
}

// collect gathers panic sites and call edges of one declaration. Allowed
// panic sites are contract panics: absorbed, neither reported nor
// propagated.
func collect(pass *lint.Pass, decl *ast.FuncDecl) []site {
	var out []site
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if what, ok := terminalCall(pass, call); ok {
			if !pass.Allowed(call.Pos()) {
				out = append(out, site{pos: call, what: what})
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

// terminalCall recognises the built-in panic and the process-fatal standard
// library exits.
func terminalCall(pass *lint.Pass, call *ast.CallExpr) (string, bool) {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		if fun.Name == "panic" {
			if _, ok := pass.ObjectOf(fun).(*types.Builtin); ok {
				return "panic", true
			}
		}
	case *ast.SelectorExpr:
		id, ok := fun.X.(*ast.Ident)
		if !ok {
			return "", false
		}
		pkgName, ok := pass.ObjectOf(id).(*types.PkgName)
		if !ok {
			return "", false
		}
		name := fun.Sel.Name
		switch pkgName.Imported().Path() {
		case "log":
			if strings.HasPrefix(name, "Fatal") || strings.HasPrefix(name, "Panic") {
				return "log." + name, true
			}
		case "os":
			if name == "Exit" {
				return "os.Exit", true
			}
		}
	}
	return "", false
}

func posString(pass *lint.Pass, n ast.Node) string {
	p := pass.Fset.Position(n.Pos())
	return fmt.Sprintf("%s:%d", filepath.Base(p.Filename), p.Line)
}
