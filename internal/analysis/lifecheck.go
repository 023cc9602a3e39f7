package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Lifecheck enforces the recycled event/payload lifecycle of the kernel's
// pools: once an event has been handed to a free call it belongs to the
// pool (a later get may already have reincarnated it), so any further use
// in the same function is a use-after-free that the dynamic tripwires
// (Config.CheckInvariants, simcheck paranoid cells) only catch
// probabilistically. It also flags sends that alias a payload into a
// second event: the kernel makes each dead event's payload a spare
// (core.LP.Spare) exactly once, so two live events sharing one payload
// means a double reissue (and a reused payload mutating under a live
// event's feet). Models no longer surrender payloads explicitly — the
// surrender point is handler return — so there is no model-side free call
// to track beyond a sync.Pool a model may still keep for its own objects.
//
// Checked free points:
//   - (*core.eventPool).put and (*core.PE).free — kernel side;
//   - (*sync.Pool).Put — model-side pools.
//
// The analysis is flow-lite: a variable freed by a statement is dead for
// the remaining statements of the same block (and their nested blocks);
// frees inside a nested block do not poison the enclosing one, so
// branch-local frees never false-positive. Intentional retention is
// waived with //simlint:retained <reason>.
var Lifecheck = &Analyzer{
	Name:    "lifecheck",
	Doc:     "flag use of events/payloads after free or recycle, and sends that retain pooled payloads",
	Keyword: "retained",
	Run:     runLifecheck,
}

func runLifecheck(pass *Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkUseAfterFree(pass, fd.Body, make(map[*types.Var]token.Pos))
			checkPayloadRetention(pass, fd)
		}
	}
	return nil
}

// freedArg returns the variable a call kills, if the call is one of the
// recognised free/recycle entry points.
func freedArg(pass *Pass, call *ast.CallExpr) *types.Var {
	fn := StaticCallee(pass.TypesInfo, call)
	argIndex := -1
	if fn != nil {
		recv := fn.Type().(*types.Signature).Recv()
		switch {
		case recv != nil && isNamedIn(recv.Type(), "sync", "Pool") && fn.Name() == "Put":
			argIndex = 0
		case recv != nil && isKernelType(recv.Type(), "eventPool") && fn.Name() == "put":
			argIndex = 0
		case recv != nil && isKernelType(recv.Type(), "PE") && fn.Name() == "free":
			argIndex = 0
		}
	}
	if argIndex < 0 || argIndex >= len(call.Args) {
		return nil
	}
	if id, ok := ast.Unparen(call.Args[argIndex]).(*ast.Ident); ok {
		if v, ok := pass.TypesInfo.Uses[id].(*types.Var); ok {
			return v
		}
	}
	return nil
}

// isNamedIn reports whether t (behind pointers) is the named type
// pkgPath.name.
func isNamedIn(t types.Type, pkgPath, name string) bool {
	n := namedOf(t)
	if n == nil || n.Obj().Pkg() == nil {
		return false
	}
	return n.Obj().Name() == name && n.Obj().Pkg().Path() == pkgPath
}

// checkUseAfterFree walks one block's statements in order, tracking
// variables killed by free calls. dead maps each killed variable to the
// position of its free. Nested blocks inherit a copy of the dead set;
// kills inside them stay local.
func checkUseAfterFree(pass *Pass, block *ast.BlockStmt, dead map[*types.Var]token.Pos) {
	for _, stmt := range block.List {
		// 1. Uses of already-dead variables anywhere in this statement
		// (including its nested blocks) are violations — except the
		// identifiers being reassigned, which revive the variable.
		reassigned := reassignedVars(pass, stmt)
		if len(dead) > 0 {
			ast.Inspect(stmt, func(n ast.Node) bool {
				id, ok := n.(*ast.Ident)
				if !ok {
					return true
				}
				v, ok := pass.TypesInfo.Uses[id].(*types.Var)
				if !ok {
					return true
				}
				if freePos, isDead := dead[v]; isDead && !reassigned[v] {
					pass.Reportf(id.Pos(),
						"use of %s after it was freed/recycled at %v; the pool may already have reissued it (waive with //simlint:retained <reason>)",
						id.Name, pass.Fset.Position(freePos))
					delete(dead, v) // one report per free
				}
				return true
			})
		}
		for v := range reassigned {
			delete(dead, v)
		}

		// 2. Nested blocks see the current dead set but cannot extend it.
		for _, nested := range nestedBlocks(stmt) {
			checkUseAfterFree(pass, nested, copyDead(dead))
		}

		// 3. Free calls directly in this statement (not inside a nested
		// block, which step 2 already handled with a local copy) kill
		// their argument for the rest of this block.
		ast.Inspect(stmt, func(n ast.Node) bool {
			switch n.(type) {
			case *ast.BlockStmt, *ast.FuncLit:
				return false
			}
			if call, ok := n.(*ast.CallExpr); ok {
				if v := freedArg(pass, call); v != nil {
					dead[v] = call.Pos()
				}
			}
			return true
		})
	}
}

// nestedBlocks lists the blocks directly under one statement.
func nestedBlocks(stmt ast.Stmt) []*ast.BlockStmt {
	var out []*ast.BlockStmt
	switch s := stmt.(type) {
	case *ast.BlockStmt:
		out = append(out, s)
	case *ast.IfStmt:
		out = append(out, s.Body)
		if e, ok := s.Else.(*ast.BlockStmt); ok {
			out = append(out, e)
		} else if e, ok := s.Else.(*ast.IfStmt); ok {
			out = append(out, nestedBlocks(e)...)
		}
	case *ast.ForStmt:
		out = append(out, s.Body)
	case *ast.RangeStmt:
		out = append(out, s.Body)
	case *ast.SwitchStmt:
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				out = append(out, &ast.BlockStmt{List: cc.Body})
			}
		}
	case *ast.TypeSwitchStmt:
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				out = append(out, &ast.BlockStmt{List: cc.Body})
			}
		}
	case *ast.SelectStmt:
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CommClause); ok {
				out = append(out, &ast.BlockStmt{List: cc.Body})
			}
		}
	case *ast.LabeledStmt:
		out = append(out, nestedBlocks(s.Stmt)...)
	}
	return out
}

// reassignedVars returns the variables a statement rebinds at its top
// level (assignment or short declaration), which revives them.
func reassignedVars(pass *Pass, stmt ast.Stmt) map[*types.Var]bool {
	out := make(map[*types.Var]bool)
	assign, ok := stmt.(*ast.AssignStmt)
	if !ok {
		return out
	}
	for _, lhs := range assign.Lhs {
		if id, ok := lhs.(*ast.Ident); ok {
			if v, ok := pass.TypesInfo.Defs[id].(*types.Var); ok {
				out[v] = true
			} else if v, ok := pass.TypesInfo.Uses[id].(*types.Var); ok {
				out[v] = true
			}
		}
	}
	return out
}

func copyDead(dead map[*types.Var]token.Pos) map[*types.Var]token.Pos {
	cp := make(map[*types.Var]token.Pos, len(dead))
	for k, v := range dead {
		cp[k] = v
	}
	return cp
}

// checkPayloadRetention flags sends whose payload argument aliases pooled
// memory: the payload of the event currently being handled (which the
// kernel will recycle when that event dies), or a payload already wired
// into an earlier send in the same block.
func checkPayloadRetention(pass *Pass, fd *ast.FuncDecl) {
	// Variables bound to the in-flight event's payload: `msg :=
	// ev.Data.(*T)` anywhere in the function.
	fromData := make(map[*types.Var]bool)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		assign, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for i, rhs := range assign.Rhs {
			ta, ok := ast.Unparen(rhs).(*ast.TypeAssertExpr)
			if !ok || ta.Type == nil {
				continue
			}
			sel, ok := ast.Unparen(ta.X).(*ast.SelectorExpr)
			if !ok || sel.Sel.Name != "Data" || !isKernelType(pass.TypesInfo.TypeOf(sel.X), "Event") {
				continue
			}
			if i < len(assign.Lhs) {
				if id, ok := assign.Lhs[i].(*ast.Ident); ok {
					if v, ok := pass.TypesInfo.Defs[id].(*types.Var); ok {
						fromData[v] = true
					} else if v, ok := pass.TypesInfo.Uses[id].(*types.Var); ok {
						fromData[v] = true
					}
				}
			}
		}
		return true
	})

	var walkBlock func(block *ast.BlockStmt, sent map[*types.Var]token.Pos)
	walkBlock = func(block *ast.BlockStmt, sent map[*types.Var]token.Pos) {
		for _, stmt := range block.List {
			for _, nested := range nestedBlocks(stmt) {
				walkBlock(nested, copyDead(sent))
			}
			ast.Inspect(stmt, func(n ast.Node) bool {
				switch n.(type) {
				case *ast.BlockStmt, *ast.FuncLit:
					return false
				}
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				arg := sendPayloadArg(pass, call)
				if arg == nil {
					return true
				}
				id, ok := ast.Unparen(arg).(*ast.Ident)
				if !ok {
					return true
				}
				v, ok := pass.TypesInfo.Uses[id].(*types.Var)
				if !ok || !pointerLike(v.Type()) {
					return true
				}
				if fromData[v] {
					pass.Reportf(arg.Pos(),
						"send retains %s, the in-flight event's pooled payload; the kernel reissues it as a spare when that event dies, corrupting this send (allocate a payload or take lp.Spare(); waive with //simlint:retained <reason>)",
						id.Name)
				} else if prev, dup := sent[v]; dup {
					pass.Reportf(arg.Pos(),
						"payload %s is wired into a second send (first at %v); two live events would share one pooled payload and it would be reissued twice (waive with //simlint:retained <reason>)",
						id.Name, pass.Fset.Position(prev))
				}
				sent[v] = arg.Pos()
				return true
			})
			for v := range reassignedVars(pass, stmt) {
				delete(sent, v)
			}
		}
	}
	walkBlock(fd.Body, make(map[*types.Var]token.Pos))
}

// pointerLike reports whether sharing values of this type across events
// aliases mutable memory (pointers, maps, slices, chans).
func pointerLike(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Map, *types.Slice, *types.Chan, *types.Interface:
		return true
	}
	return false
}

// sendPayloadArg returns the data argument of a kernel send/schedule
// call, or nil.
func sendPayloadArg(pass *Pass, call *ast.CallExpr) ast.Expr {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	recvType := pass.TypesInfo.TypeOf(sel.X)
	if recvType == nil {
		return nil
	}
	switch sel.Sel.Name {
	case "Send":
		if isKernelType(recvType, "LP") && len(call.Args) == 3 {
			return call.Args[2]
		}
	case "SendSelf":
		if isKernelType(recvType, "LP") && len(call.Args) == 2 {
			return call.Args[1]
		}
	case "Schedule":
		// Host.Schedule(dst, t, data) — engine-agnostic bootstrap; the
		// receiver is an interface (core.Host) or a concrete engine.
		if len(call.Args) == 3 {
			if named := namedOf(recvType); named != nil && named.Obj().Pkg() != nil && named.Obj().Pkg().Name() == "core" {
				return call.Args[2]
			}
			if types.IsInterface(recvType) {
				return call.Args[2]
			}
		}
	}
	return nil
}
