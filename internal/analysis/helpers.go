package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// This file holds the shared kernel-shape helpers: recognising the
// core.LP / core.Event types, discovering Handler implementations
// (Forward/Reverse method pairs), and walking the static call graph a
// handler can reach. The analyzers are deliberately name-and-shape based
// rather than hard-wired to one import path, so the analysistest fixtures
// (and any future extraction of the kernel) exercise the same code paths
// as the real tree.

// namedOf unwraps pointers and aliases down to a named type, or nil.
func namedOf(t types.Type) *types.Named {
	for {
		switch u := t.(type) {
		case *types.Pointer:
			t = u.Elem()
		case *types.Alias:
			t = types.Unalias(u)
		case *types.Named:
			return u
		default:
			return nil
		}
	}
}

// isAtomicType reports whether t (possibly behind pointers) is one of
// sync/atomic's types — the one field shape ownercheck accepts for
// sanctioned cross-goroutine access.
func isAtomicType(t types.Type) bool {
	n := namedOf(t)
	if n == nil || n.Obj().Pkg() == nil {
		return false
	}
	return n.Obj().Pkg().Path() == "sync/atomic"
}

// markedFields collects every struct field in the pass's files tagged
// with the given marker directive (on the field or its declaration
// group), mapping the field object to the named type that declares it.
func markedFields(pass *Pass, keyword string) map[*types.Var]*types.Named {
	owners := make(map[*types.Var]*types.Named)
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				st, ok := ts.Type.(*ast.StructType)
				if !ok {
					continue
				}
				named, _ := pass.TypesInfo.Defs[ts.Name].(*types.TypeName)
				if named == nil {
					continue
				}
				owner := namedOf(named.Type())
				if owner == nil {
					continue
				}
				for _, field := range st.Fields.List {
					if !HasMarker(field.Doc, keyword) && !HasMarker(field.Comment, keyword) {
						continue
					}
					for _, name := range field.Names {
						if v, ok := pass.TypesInfo.Defs[name].(*types.Var); ok {
							owners[v] = owner
						}
					}
				}
			}
		}
	}
	return owners
}

// isKernelType reports whether t (possibly behind pointers) is the named
// type name from a package named "core" — the kernel package, whatever
// path it is vendored under.
func isKernelType(t types.Type, name string) bool {
	n := namedOf(t)
	if n == nil || n.Obj().Pkg() == nil {
		return false
	}
	return n.Obj().Name() == name && n.Obj().Pkg().Name() == "core"
}

// isHandlerSignature reports whether sig is func(*core.LP, *core.Event).
func isHandlerSignature(sig *types.Signature) bool {
	if sig.Params().Len() != 2 || sig.Results().Len() != 0 {
		return false
	}
	return isKernelType(sig.Params().At(0).Type(), "LP") &&
		isKernelType(sig.Params().At(1).Type(), "Event")
}

// HandlerImpl is one concrete Handler implementation found in a package:
// a named type with Forward and Reverse methods of the kernel signature.
type HandlerImpl struct {
	Named   *types.Named
	Forward *ast.FuncDecl
	Reverse *ast.FuncDecl
	Commit  *ast.FuncDecl
}

// FindHandlers discovers the Handler implementations declared in the
// pass's files. Types with only one of the two methods are skipped: they
// are not handlers (the interface requires both), and flagging them would
// double-report what the compiler already rejects at the assignment site.
func FindHandlers(pass *Pass) []*HandlerImpl {
	byType := make(map[*types.Named]*HandlerImpl)
	var order []*types.Named
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Recv == nil || fd.Body == nil {
				continue
			}
			switch fd.Name.Name {
			case "Forward", "Reverse", "Commit":
			default:
				continue
			}
			obj, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			sig := obj.Type().(*types.Signature)
			if !isHandlerSignature(sig) {
				continue
			}
			recv := namedOf(sig.Recv().Type())
			if recv == nil {
				continue
			}
			h := byType[recv]
			if h == nil {
				h = &HandlerImpl{Named: recv}
				byType[recv] = h
				order = append(order, recv)
			}
			switch fd.Name.Name {
			case "Forward":
				h.Forward = fd
			case "Reverse":
				h.Reverse = fd
			case "Commit":
				h.Commit = fd
			}
		}
	}
	var out []*HandlerImpl
	for _, n := range order {
		if h := byType[n]; h.Forward != nil && h.Reverse != nil {
			out = append(out, h)
		}
	}
	return out
}

// FuncDecls indexes the package's function declarations by their type
// objects, so call sites resolve to bodies.
func FuncDecls(pass *Pass) map[*types.Func]*ast.FuncDecl {
	m := make(map[*types.Func]*ast.FuncDecl)
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				if obj, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
					m[obj] = fd
				}
			}
		}
	}
	return m
}

// StaticCallee resolves a call expression to the concrete function or
// method it invokes, or nil for dynamic calls (interface methods, function
// values, built-ins) — the analyzers' soundness boundary: what dispatches
// dynamically is not followed.
func StaticCallee(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, ok := info.Uses[id].(*types.Func)
	if !ok {
		return nil
	}
	sig := fn.Type().(*types.Signature)
	if recv := sig.Recv(); recv != nil && types.IsInterface(recv.Type()) {
		return nil // dynamic dispatch
	}
	return fn
}

// ReachableDecls returns root plus every same-package function reachable
// from it through statically resolvable calls, in discovery order.
// Function literals inside those bodies are visited implicitly (they are
// part of the enclosing body's syntax). Cross-package callees are
// reported through onExternal, once per call site.
func ReachableDecls(pass *Pass, decls map[*types.Func]*ast.FuncDecl, root *ast.FuncDecl, onExternal func(call *ast.CallExpr, callee *types.Func)) []*ast.FuncDecl {
	var order []*ast.FuncDecl
	seen := make(map[*ast.FuncDecl]bool)
	var visit func(fd *ast.FuncDecl)
	visit = func(fd *ast.FuncDecl) {
		if seen[fd] {
			return
		}
		seen[fd] = true
		order = append(order, fd)
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			callee := StaticCallee(pass.TypesInfo, call)
			if callee == nil {
				return true
			}
			if next, ok := decls[callee]; ok {
				visit(next)
			} else if callee.Pkg() != nil && callee.Pkg() != pass.Pkg && onExternal != nil {
				onExternal(call, callee)
			}
			return true
		})
	}
	visit(root)
	return order
}

// StatePath resolves an assignable expression to a dotted field path
// rooted at a value of one of the given state types: for a *Router state,
// `r.stats.DelivTimeByDist[b]` yields "stats.DelivTimeByDist". Index
// expressions are dropped (element writes count as writes to the
// container); a direct overwrite of the whole state (`*st = ...`) yields
// the empty path, which covers every field.
func StatePath(info *types.Info, expr ast.Expr, isState func(types.Type) bool) (string, bool) {
	var chain []string
	e := ast.Unparen(expr)
	// A top-level deref (*st = ...) is a whole-state write.
	if star, ok := e.(*ast.StarExpr); ok {
		if t := info.TypeOf(star.X); t != nil && isState(t) {
			return "", true
		}
	}
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.SelectorExpr:
			chain = append([]string{x.Sel.Name}, chain...)
			if t := info.TypeOf(x.X); t != nil && isState(t) {
				return strings.Join(chain, "."), true
			}
			e = x.X
		default:
			return "", false
		}
	}
}

// PathCovers reports whether a restore of path r undoes a mutation of
// path f: restoring a field (or the whole state, r == "") covers every
// mutation at or below it.
func PathCovers(r, f string) bool {
	return r == "" || r == f || strings.HasPrefix(f, r+".")
}
