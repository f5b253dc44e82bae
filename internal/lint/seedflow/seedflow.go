// Package seedflow proves that every random stream constructed in
// deterministic-zone code derives its seed from the experiment Spec. The
// replicate contract (journal resume, seeded retries, cross-run
// reproducibility) holds only when seeds flow Spec.Seed → ReplicateSeed →
// Split substreams; a sim.NewRand(1234) buried in a helper silently pins
// every replicate to one stream, and a time-derived seed destroys
// reproducibility outright.
//
// The analyzer classifies the provenance of every seed expression reaching a
// sim.Rand construction (sim.NewRand, Rand.Seed, or any wrapper returning a
// *sim.Rand):
//
//   - good: parameters and their fields, ReplicateSeed results, draws from
//     an existing sim.Rand (Split, Uint64). Good provenance dominates
//     constants, so salting a spec seed with a literal stays legal.
//   - bad: package-level variables and host-clock reads. Bad dominates
//     everything: mixing the clock into a spec seed is still a finding.
//   - neutral: constants only — a fixed stream, which is exactly the PR-1
//     bug class where a default seed masked a replicate wiring error.
//
// Functions that hand out fixed or clock-derived streams export a fact, so a
// zone package calling another package's DefaultRNG() is flagged at the call
// site. Opaque helper calls in seed expressions are trusted (no false
// positives); an //lint:allow on the construction absorbs both report and
// fact.
//
// A deterministic-zone package may not import math/rand, math/rand/v2 or
// crypto/rand at all: an ambient RNG is a stream no Spec seed controls, so
// there is no provenance to trace.
package seedflow

import (
	"fmt"
	"go/ast"
	"go/types"
	"path/filepath"
	"strconv"

	"repro/internal/lint"
)

// unseededRand marks a function that constructs or returns a sim.Rand whose
// seed does not derive from caller-provided state.
type unseededRand struct {
	// What describes the offending provenance: "constants only",
	// "package-level var x", "the host clock".
	What string
	// Pos locates the construction (file.go:line).
	Pos string
	// Via names the callee chain for indirect taint; empty when the
	// construction is in the function's own body.
	Via string
}

func (*unseededRand) AFact() {}

// Analyzer implements the seedflow check.
var Analyzer = &lint.Analyzer{
	Name: "seedflow",
	Doc: "require every sim.Rand constructed in deterministic-zone code to " +
		"derive its seed from Spec/ReplicateSeed state, not literals, " +
		"globals or the clock, and forbid ambient RNG imports there",
	RequireReason: true,
	Run:           run,
}

type site struct {
	pos  ast.Node
	what string // provenance description, or "" for a call edge
	desc string // display name of the constructor, for direct sites
	fn   *types.Func
}

// ambientRNGs are the packages whose streams are seeded globally or by the
// OS, never by the caller.
var ambientRNGs = map[string]bool{
	"math/rand":    true,
	"math/rand/v2": true,
	"crypto/rand":  true,
}

func run(pass *lint.Pass) error {
	if pass.PackageZone() == lint.ZoneDeterministic {
		for _, f := range pass.Files {
			for _, spec := range f.Imports {
				if path, _ := strconv.Unquote(spec.Path.Value); ambientRNGs[path] {
					pass.Reportf(spec.Pos(),
						"import of %q brings an ambient RNG into deterministic-zone code; no Spec seed controls its stream — use a *sim.Rand derived from the Spec",
						path)
				}
			}
		}
	}

	funcs := lint.Functions(pass)
	local := make(map[*types.Func]*ast.FuncDecl, len(funcs))
	sites := make(map[*types.Func][]site, len(funcs))
	for _, fn := range funcs {
		local[fn.Obj] = fn.Decl
	}
	for _, fn := range funcs {
		sites[fn.Obj] = collect(pass, fn.Decl)
	}

	taint := make(map[*types.Func]*unseededRand)
	reaches := func(fn *types.Func) *unseededRand {
		if w, ok := taint[fn]; ok {
			return w
		}
		if _, isLocal := local[fn]; isLocal {
			return nil
		}
		var fact unseededRand
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
					taint[fn.Obj] = &unseededRand{What: s.what, Pos: posString(pass, s.pos)}
					changed = true
					break
				}
				if w := reaches(s.fn); w != nil {
					via := lint.FuncDisplayName(pass, s.fn)
					if w.Via != "" {
						via += " → " + w.Via
					}
					taint[fn.Obj] = &unseededRand{What: w.What, Pos: w.Pos, Via: via}
					changed = true
					break
				}
			}
		}
	}
	for fn, w := range taint {
		pass.ExportObjectFact(fn, w)
	}

	for _, fn := range funcs {
		if pass.FuncZone(fn.Decl) != lint.ZoneDeterministic {
			continue
		}
		for _, s := range sites[fn.Obj] {
			if s.what != "" {
				pass.Reportf(s.pos.Pos(),
					"%s seeds a sim.Rand from %s; derive the seed from the Spec (ReplicateSeed or a parent stream's Split)",
					s.desc, s.what)
				continue
			}
			w := reaches(s.fn)
			if w == nil {
				continue
			}
			if decl, isLocal := local[s.fn]; isLocal && pass.FuncZone(decl) == lint.ZoneDeterministic {
				continue // reported at its own root inside the zone
			}
			msg := "call to %s yields a sim.Rand seeded from %s (%s) in deterministic-zone code"
			if w.Via != "" {
				pass.Reportf(s.pos.Pos(), msg+" via %s", lint.FuncDisplayName(pass, s.fn), w.What, w.Pos, w.Via)
			} else {
				pass.Reportf(s.pos.Pos(), msg, lint.FuncDisplayName(pass, s.fn), w.What, w.Pos)
			}
		}
	}
	return nil
}

// collect gathers one declaration's taint sources: RNG constructions whose
// seed provenance is not good, and call edges for fact propagation. Allowed
// constructions are absorbed.
func collect(pass *lint.Pass, decl *ast.FuncDecl) []site {
	tr := newTracer(pass, decl)
	var out []site
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if desc, args, ok := construction(pass, call); ok {
			p := prov{v: vNeutral}
			for _, arg := range args {
				p = combine(p, tr.trace(arg, 0))
			}
			if p.v != vGood && !pass.Allowed(call.Pos()) {
				out = append(out, site{pos: call, what: p.describe(), desc: desc})
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

// construction recognises seed-consuming RNG constructions: Rand.Seed
// reseeds, and any call with arguments whose result is a sim.Rand —
// sim.NewRand itself or a wrapper like FromSeed. Methods on sim.Rand (Split)
// derive substreams and are never constructions.
func construction(pass *lint.Pass, call *ast.CallExpr) (desc string, args []ast.Expr, ok bool) {
	fn := lint.Callee(pass, call)
	if fn != nil && simRandMethod(fn) {
		if fn.Name() == "Seed" || fn.Name() == "Reseed" {
			return lint.FuncDisplayName(pass, fn), call.Args, true
		}
		return "", nil, false
	}
	if len(call.Args) > 0 && lint.IsSimRand(pass.TypeOf(call)) {
		if fn != nil {
			return lint.FuncDisplayName(pass, fn), call.Args, true
		}
		return "sim.Rand constructor", call.Args, true
	}
	return "", nil, false
}

func simRandMethod(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	return lint.IsSimRand(sig.Recv().Type())
}

// ---- seed provenance ----

type verdict int

const (
	vNeutral verdict = iota // constants only
	vGood                   // derives from caller-provided state
	vBad                    // globals or the host clock
)

type prov struct {
	v    verdict
	what string
}

// combine joins the provenance of two subexpressions: bad dominates good
// dominates neutral, so spec.Seed^salt is good but spec.Seed^clock is bad.
func combine(a, b prov) prov {
	if a.v == vBad {
		return a
	}
	if b.v == vBad {
		return b
	}
	if a.v == vGood || b.v == vGood {
		return prov{v: vGood}
	}
	return prov{v: vNeutral}
}

func (p prov) describe() string {
	if p.v == vBad {
		return p.what
	}
	return "constants only"
}

// tracer resolves the provenance of seed expressions within one declaration.
type tracer struct {
	pass    *lint.Pass
	params  map[types.Object]bool
	assigns map[types.Object][]ast.Expr
	visited map[types.Object]bool
}

func newTracer(pass *lint.Pass, decl *ast.FuncDecl) *tracer {
	t := &tracer{
		pass:    pass,
		params:  make(map[types.Object]bool),
		assigns: make(map[types.Object][]ast.Expr),
		visited: make(map[types.Object]bool),
	}
	addFields := func(fl *ast.FieldList) {
		if fl == nil {
			return
		}
		for _, f := range fl.List {
			for _, name := range f.Names {
				if obj := pass.Info.Defs[name]; obj != nil {
					t.params[obj] = true
				}
			}
		}
	}
	addFields(decl.Recv)
	ast.Inspect(decl, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncDecl:
			addFields(n.Type.Params)
		case *ast.FuncLit:
			addFields(n.Type.Params)
		case *ast.AssignStmt:
			if len(n.Lhs) == len(n.Rhs) {
				for i, lhs := range n.Lhs {
					if id, ok := lhs.(*ast.Ident); ok {
						if obj := pass.ObjectOf(id); obj != nil {
							t.assigns[obj] = append(t.assigns[obj], n.Rhs[i])
						}
					}
				}
			}
		case *ast.ValueSpec:
			if len(n.Names) == len(n.Values) {
				for i, name := range n.Names {
					if obj := pass.Info.Defs[name]; obj != nil {
						t.assigns[obj] = append(t.assigns[obj], n.Values[i])
					}
				}
			}
		}
		return true
	})
	return t
}

const maxTraceDepth = 24

func (t *tracer) trace(e ast.Expr, depth int) prov {
	if depth > maxTraceDepth {
		return prov{v: vGood} // give up without a false positive
	}
	switch e := e.(type) {
	case *ast.BasicLit:
		return prov{v: vNeutral}
	case *ast.ParenExpr:
		return t.trace(e.X, depth+1)
	case *ast.UnaryExpr:
		return t.trace(e.X, depth+1)
	case *ast.BinaryExpr:
		return combine(t.trace(e.X, depth+1), t.trace(e.Y, depth+1))
	case *ast.Ident:
		return t.traceIdent(e, depth)
	case *ast.SelectorExpr:
		if id, ok := e.X.(*ast.Ident); ok {
			if pn, ok := t.pass.ObjectOf(id).(*types.PkgName); ok {
				switch t.pass.ObjectOf(e.Sel).(type) {
				case *types.Const:
					return prov{v: vNeutral}
				case *types.Var:
					return prov{v: vBad, what: "package-level var " + pn.Name() + "." + e.Sel.Name}
				}
				return prov{v: vGood}
			}
		}
		// Field selections (spec.Seed, cfg.BaseSeed) are the blessed seed
		// source: the value came in from the caller.
		return prov{v: vGood}
	case *ast.CallExpr:
		return t.traceCall(e, depth)
	}
	return prov{v: vGood}
}

func (t *tracer) traceIdent(e *ast.Ident, depth int) prov {
	obj := t.pass.ObjectOf(e)
	switch obj := obj.(type) {
	case *types.Const:
		return prov{v: vNeutral}
	case *types.Var:
		if obj.Pkg() != nil && obj.Parent() == obj.Pkg().Scope() {
			return prov{v: vBad, what: "package-level var " + e.Name}
		}
		if t.params[obj] {
			return prov{v: vGood}
		}
		if t.visited[obj] {
			return prov{v: vGood}
		}
		t.visited[obj] = true
		if rhs, ok := t.assigns[obj]; ok {
			p := prov{v: vNeutral}
			for _, r := range rhs {
				p = combine(p, t.trace(r, depth+1))
			}
			return p
		}
		return prov{v: vGood} // range vars, closure captures: untraceable
	}
	return prov{v: vGood}
}

func (t *tracer) traceCall(call *ast.CallExpr, depth int) prov {
	if name, ok := clockInside(t.pass, call); ok {
		return prov{v: vBad, what: "the host clock (" + name + ")"}
	}
	if tv, ok := t.pass.Info.Types[call.Fun]; ok && tv.IsType() {
		p := prov{v: vNeutral} // conversion: provenance of the operand
		for _, arg := range call.Args {
			p = combine(p, t.trace(arg, depth+1))
		}
		return p
	}
	// ReplicateSeed results and draws from an existing stream are the
	// blessed derivations; any other helper call is trusted.
	return prov{v: vGood}
}

// clockFuncs are the wall-clock entry points of package time, shared with
// the wallclock analyzer's notion of "reads the host clock".
var clockFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true, "After": true,
	"AfterFunc": true, "Tick": true, "NewTicker": true, "NewTimer": true,
	"Sleep": true,
}

// clockInside reports whether any subexpression of e calls a wall-clock
// entry point of package time, e.g. uint64(time.Now().UnixNano()).
func clockInside(pass *lint.Pass, e ast.Expr) (string, bool) {
	found := ""
	ast.Inspect(e, func(n ast.Node) bool {
		if found != "" {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		id, ok := sel.X.(*ast.Ident)
		if !ok {
			return true
		}
		if pn, ok := pass.ObjectOf(id).(*types.PkgName); ok &&
			pn.Imported().Path() == "time" && clockFuncs[sel.Sel.Name] {
			found = "time." + sel.Sel.Name
			return false
		}
		return true
	})
	return found, found != ""
}

func posString(pass *lint.Pass, n ast.Node) string {
	p := pass.Fset.Position(n.Pos())
	return fmt.Sprintf("%s:%d", filepath.Base(p.Filename), p.Line)
}
