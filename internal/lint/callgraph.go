package lint

import (
	"go/ast"
	"go/types"
)

// Functions returns the package's declared functions and methods paired
// with their bodies, in source order. Calls inside function literals belong
// to the enclosing declaration: a closure runs on whatever path its owner
// runs on.
func Functions(pass *Pass) []FuncNode {
	var out []FuncNode
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			obj, ok := pass.ObjectOf(fn.Name).(*types.Func)
			if !ok {
				continue
			}
			out = append(out, FuncNode{Obj: obj, Decl: fn})
		}
	}
	return out
}

// A FuncNode is one declared function with its type-checker object.
type FuncNode struct {
	Obj  *types.Func
	Decl *ast.FuncDecl
}

// Callee resolves the statically-known callee of a call expression: a named
// function, a method through a selector, or a qualified pkg.Func reference.
// Calls through function values, interfaces whose dynamic method cannot be
// identified, and built-ins resolve to nil.
func Callee(pass *Pass, call *ast.CallExpr) *types.Func {
	switch fun := unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := pass.ObjectOf(fun).(*types.Func)
		return fn
	case *ast.SelectorExpr:
		if sel, ok := pass.Info.Selections[fun]; ok {
			fn, _ := sel.Obj().(*types.Func)
			return fn
		}
		fn, _ := pass.ObjectOf(fun.Sel).(*types.Func)
		return fn
	}
	return nil
}

// ExportedAPI reports whether fn is part of the package's exported API: an
// exported package-level function, or an exported method on an exported
// receiver type.
func ExportedAPI(pass *Pass, fn *ast.FuncDecl) bool {
	if !fn.Name.IsExported() {
		return false
	}
	if fn.Recv == nil || len(fn.Recv.List) == 0 {
		return true
	}
	obj, ok := pass.ObjectOf(fn.Name).(*types.Func)
	if !ok {
		return false
	}
	recv := obj.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	named := namedOf(recv.Type())
	return named != nil && named.Obj().Exported()
}

// FuncDisplayName renders fn for a diagnostic: "Name" for functions in the
// analyzed package, "pkg.Name" for imported ones, with "Type.Name" for
// methods.
func FuncDisplayName(pass *Pass, fn *types.Func) string {
	name := fn.Name()
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
		if named := namedOf(recv.Type()); named != nil {
			name = named.Obj().Name() + "." + name
		}
	}
	if fn.Pkg() != nil && fn.Pkg() != pass.Pkg {
		name = fn.Pkg().Name() + "." + name
	}
	return name
}

// namedOf unwraps one pointer level and returns the named type, or nil.
func namedOf(t types.Type) *types.Named {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

func unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}
