// Package jsondet proves that the JSON the simulator emits — scenario
// results, sweep journals, artifact manifests — is a pure function of the
// data, not of Go's runtime. A map or bare interface field in a marshalled
// struct makes the encoded bytes depend on encoder internals (and, for
// custom encoders, on iteration order): exactly the PR-1 bug class where a
// map-keyed histogram reordered between runs and broke byte-for-byte
// replicate comparison. The determinism contract is stronger than
// "encoding/json happens to sort string keys today": zone results must not
// depend on any encoder's internals.
//
// The analyzer descends through the exported, non-"-"-tagged fields of every
// JSON-tagged struct type declared in a deterministic-zone package, and
// through the static argument types of json.Marshal / json.MarshalIndent /
// (*json.Encoder).Encode calls in zone functions. A type that implements
// MarshalJSON vouches for its own ordering and is exempt (json.RawMessage,
// sorted-slice wrappers). Offending named types export a fact, so embedding
// another package's map-backed type is flagged at the embedding site.
package jsondet

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"reflect"
	"strings"

	"repro/internal/lint"
)

// unorderedJSON marks a named type whose JSON encoding depends on unordered
// data.
type unorderedJSON struct {
	// Path is the field path from the type to the offending data, e.g.
	// ".Rows[].Counts"; empty when the type itself is a map.
	Path string
	// Kind is the offending type, e.g. "map[string]uint64".
	Kind string
	// Pos locates the offending field (file.go:line), when known.
	Pos string
}

func (*unorderedJSON) AFact() {}

// Analyzer implements the jsondet check.
var Analyzer = &lint.Analyzer{
	Name: "jsondet",
	Doc: "forbid map/interface fields (without MarshalJSON) in structs " +
		"marshalled to JSON from deterministic-zone code",
	RequireReason: true,
	Run:           run,
}

// witness records where unordered data enters a type.
type witness struct {
	path   string
	kind   string
	pos    token.Pos // offending field, when seen in source
	posStr string    // pre-rendered position from an imported fact
}

func (w *witness) loc(pass *lint.Pass) string {
	if w.posStr != "" {
		return w.posStr
	}
	if w.pos.IsValid() {
		p := pass.Fset.Position(w.pos)
		if p.Filename != "" {
			return fmt.Sprintf("%s:%d", filepath.Base(p.Filename), p.Line)
		}
	}
	return ""
}

type checker struct {
	pass *lint.Pass
	memo map[*types.Named]*witness
	busy map[*types.Named]bool
}

func run(pass *lint.Pass) error {
	c := &checker{
		pass: pass,
		memo: make(map[*types.Named]*witness),
		busy: make(map[*types.Named]bool),
	}

	// Export facts for every package-level named type that carries
	// unordered data, zone or not: a host-side helper type flags its
	// deterministic-zone embedders.
	scope := pass.Pkg.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		named, ok := tn.Type().(*types.Named)
		if !ok {
			continue
		}
		if w := c.typeWitness(named); w != nil {
			pass.ExportObjectFact(tn, &unorderedJSON{Path: w.path, Kind: w.kind, Pos: w.loc(pass)})
		}
	}

	if pass.PackageZone() != lint.ZoneDeterministic && !anyZoneFunc(pass) {
		return nil
	}

	// Root set 1: JSON-tagged struct types declared in the zone package.
	reported := make(map[*types.Named]bool)
	if pass.PackageZone() == lint.ZoneDeterministic {
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			st, ok := named.Underlying().(*types.Struct)
			if !ok || !jsonTagged(st) {
				continue
			}
			w := c.typeWitness(named)
			if w == nil {
				continue
			}
			reported[named] = true
			anchor := anchorPos(st, w.path, tn.Pos())
			msg := fmt.Sprintf(
				"JSON-marshalled type %s depends on unordered data: %s%s is %s",
				tn.Name(), tn.Name(), w.path, w.kind)
			if loc := w.loc(pass); loc != "" && !posMatches(pass, anchor, loc) {
				msg += " (" + loc + ")"
			}
			pass.Reportf(anchor, "%s; encoded results must not depend on encoder internals — marshal a sorted slice or add a MarshalJSON method", msg)
		}
	}

	// Root set 2: marshal call sites in deterministic-zone functions.
	for _, fn := range lint.Functions(pass) {
		if pass.FuncZone(fn.Decl) != lint.ZoneDeterministic {
			continue
		}
		ast.Inspect(fn.Decl.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			name, arg := marshalCall(pass, call)
			if arg == nil {
				return true
			}
			t := pass.TypeOf(arg)
			if t == nil {
				return true
			}
			if _, isTP := t.(*types.TypeParam); isTP {
				return true // generic payloads are judged at instantiation sites
			}
			if named, ok := derefNamed(t); ok && reported[named] {
				return true // already reported at the type declaration
			}
			w := c.check(t)
			if w == nil {
				return true
			}
			typeStr := types.TypeString(t, types.RelativeTo(pass.Pkg))
			subject := strings.TrimPrefix(typeStr, "*") + w.path
			if w.path == "" {
				subject = "the payload"
			}
			msg := fmt.Sprintf("%s of %s depends on unordered data: %s is %s",
				name, typeStr, subject, w.kind)
			if loc := w.loc(pass); loc != "" {
				msg += " (" + loc + ")"
			}
			pass.Reportf(call.Pos(), "%s; marshal a sorted slice or add a MarshalJSON method", msg)
			return true
		})
	}
	return nil
}

// check returns a witness if t's JSON encoding depends on unordered data.
func (c *checker) check(t types.Type) *witness {
	switch t := t.(type) {
	case *types.Named:
		return c.typeWitness(t)
	case *types.Pointer:
		return c.check(t.Elem())
	case *types.Slice:
		return prefixed("[]", c.check(t.Elem()))
	case *types.Array:
		return prefixed("[]", c.check(t.Elem()))
	case *types.Map:
		return &witness{kind: c.typeString(t)}
	case *types.Interface:
		if hasMarshalJSON(t) {
			return nil // the dynamic value vouches for its own ordering
		}
		return &witness{kind: c.typeString(t)}
	case *types.Struct:
		return c.structWitness(t)
	}
	return nil
}

// typeWitness memoizes the check for named types, consulting imported facts
// for types from other packages and guarding against recursive types.
func (c *checker) typeWitness(named *types.Named) *witness {
	if w, ok := c.memo[named]; ok {
		return w
	}
	if c.busy[named] {
		return nil // recursive type: the cycle itself adds no unordered data
	}
	c.busy[named] = true
	defer delete(c.busy, named)

	var w *witness
	switch {
	case hasMarshalJSON(named):
		w = nil
	case named.Obj().Pkg() != nil && named.Obj().Pkg() != c.pass.Pkg && c.factFor(named) != nil:
		f := c.factFor(named)
		w = &witness{path: f.Path, kind: f.Kind, posStr: f.Pos}
	default:
		w = c.check(named.Underlying())
	}
	c.memo[named] = w
	return w
}

func (c *checker) factFor(named *types.Named) *unorderedJSON {
	var fact unorderedJSON
	if c.pass.ImportObjectFact(named.Obj(), &fact) {
		return &fact
	}
	return nil
}

func (c *checker) structWitness(st *types.Struct) *witness {
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		if !f.Exported() {
			continue // encoding/json ignores unexported fields
		}
		tag := reflect.StructTag(st.Tag(i)).Get("json")
		if strings.Split(tag, ",")[0] == "-" {
			continue
		}
		if c.pass.Allowed(f.Pos()) {
			continue // annotated field: ordering asserted out of band
		}
		w := c.check(f.Type())
		if w == nil {
			continue
		}
		out := &witness{path: "." + f.Name() + w.path, kind: w.kind, pos: w.pos, posStr: w.posStr}
		if !out.pos.IsValid() && out.posStr == "" {
			out.pos = f.Pos()
		}
		return out
	}
	return nil
}

func (c *checker) typeString(t types.Type) string {
	return types.TypeString(t, types.RelativeTo(c.pass.Pkg))
}

// prefixed clones w with a path prefix, so shared memo entries are never
// mutated by callers.
func prefixed(prefix string, w *witness) *witness {
	if w == nil {
		return nil
	}
	return &witness{path: prefix + w.path, kind: w.kind, pos: w.pos, posStr: w.posStr}
}

// hasMarshalJSON reports whether t (or *t) has a MarshalJSON method in its
// method set.
func hasMarshalJSON(t types.Type) bool {
	for _, tt := range []types.Type{t, types.NewPointer(t)} {
		obj, _, _ := types.LookupFieldOrMethod(tt, true, nil, "MarshalJSON")
		if fn, ok := obj.(*types.Func); ok && fn.Exported() {
			return true
		}
	}
	return false
}

// jsonTagged reports whether any field of st carries a json struct tag —
// the marker that the type is a serialization schema, not an internal
// container.
func jsonTagged(st *types.Struct) bool {
	for i := 0; i < st.NumFields(); i++ {
		if reflect.StructTag(st.Tag(i)).Get("json") != "" {
			return true
		}
	}
	return false
}

// marshalCall recognises json.Marshal/json.MarshalIndent calls and
// (*json.Encoder).Encode, returning a display name and the payload
// argument.
func marshalCall(pass *lint.Pass, call *ast.CallExpr) (string, ast.Expr) {
	if len(call.Args) == 0 {
		return "", nil
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", nil
	}
	if id, ok := sel.X.(*ast.Ident); ok {
		if pn, ok := pass.ObjectOf(id).(*types.PkgName); ok {
			if pn.Imported().Path() == "encoding/json" &&
				(sel.Sel.Name == "Marshal" || sel.Sel.Name == "MarshalIndent") {
				return "json." + sel.Sel.Name, call.Args[0]
			}
			return "", nil
		}
	}
	if fn := lint.Callee(pass, call); fn != nil && fn.Name() == "Encode" {
		if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
			if named, ok := derefNamed(sig.Recv().Type()); ok {
				obj := named.Obj()
				if obj.Name() == "Encoder" && obj.Pkg() != nil && obj.Pkg().Path() == "encoding/json" {
					return "Encoder.Encode", call.Args[0]
				}
			}
		}
	}
	return "", nil
}

func derefNamed(t types.Type) (*types.Named, bool) {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	return named, ok
}

// anchorPos locates the field of st named by the first segment of path, so
// the finding lands on the field that imports the unordered data.
func anchorPos(st *types.Struct, path string, fallback token.Pos) token.Pos {
	seg := strings.TrimPrefix(path, ".")
	if i := strings.IndexAny(seg, ".["); i >= 0 {
		seg = seg[:i]
	}
	for i := 0; i < st.NumFields(); i++ {
		if st.Field(i).Name() == seg && st.Field(i).Pos().IsValid() {
			return st.Field(i).Pos()
		}
	}
	return fallback
}

// posMatches reports whether loc renders the same file:line as pos.
func posMatches(pass *lint.Pass, pos token.Pos, loc string) bool {
	p := pass.Fset.Position(pos)
	return loc == fmt.Sprintf("%s:%d", filepath.Base(p.Filename), p.Line)
}

// anyZoneFunc reports whether any function in the package opts into the
// deterministic zone individually, so marshal sites there are still roots
// even when the package itself is unzoned.
func anyZoneFunc(pass *lint.Pass) bool {
	for _, fn := range lint.Functions(pass) {
		if pass.FuncZone(fn.Decl) == lint.ZoneDeterministic {
			return true
		}
	}
	return false
}
