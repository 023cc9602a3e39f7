package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Ownercheck is the kernel's goroutine-ownership analysis. A struct field
// tagged //simlint:owned (PE freelists, the liveEvents gauge, outbox
// ledgers, epoch tables, each PE's counter record) belongs to the
// goroutine running its owner's methods: the only accesses that stay on
// that goroutine are those made through the enclosing method's own
// receiver. Everything else is a cross-goroutine
// access — the bug class behind the use-after-free panics that
// motivated this analyzer — and must either go through an atomic field
// type (sanctioned, and then policed by atomiccheck) or carry a
// //simlint:crosspe <reason> waiver naming the barrier or token
// ordering that makes it safe. Reads and writes get distinct messages:
// an unordered cross-goroutine write is never fixable by a waiver alone
// and should move to an atomic type unless a real ordering exists.
var Ownercheck = &Analyzer{
	Name:    "ownercheck",
	Doc:     "flag access to goroutine-owned fields from outside the owning receiver's methods",
	Keyword: "crosspe",
	Run:     runOwnercheck,
}

// ownedFact marks a struct field as goroutine-owned. Exported so
// dependent packages flag cross-package access too.
type ownedFact struct{}

func runOwnercheck(pass *Pass) error {
	// Pass 1: collect //simlint:owned fields and their owning types.
	owners := markedFields(pass, "owned")
	for v := range owners {
		pass.ExportObjectFact(v, ownedFact{})
	}

	// Pass 2: audit every selection of an owned field (local or
	// imported).
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			recvVar := receiverVar(pass, fd)
			writes := writeSelections(fd.Body)
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				selection, ok := pass.TypesInfo.Selections[sel]
				if !ok || selection.Kind() != types.FieldVal {
					return true
				}
				field, ok := selection.Obj().(*types.Var)
				if !ok {
					return true
				}
				// Generic owners (the eventq ladder arena) instantiate
				// fresh field objects per instantiation; the marker sits
				// on the origin.
				field = field.Origin()
				owner, owned := owners[field]
				if !owned {
					var fact ownedFact
					if field.Pkg() == nil || field.Pkg() == pass.Pkg || !pass.ImportObjectFact(field, &fact) {
						return true
					}
					owner = nil // cross-package: owner identity via field parent lookup below
				}
				if isAtomicType(field.Type()) {
					// Atomics are the sanctioned cross-goroutine channel;
					// atomiccheck polices their publish discipline.
					return true
				}
				if ownedAccess(pass, fd, recvVar, owner, field, sel) {
					return true
				}
				if writes[sel] {
					pass.Reportf(sel.Sel.Pos(),
						"write to goroutine-owned field %s.%s outside its owner's methods; a cross-goroutine write needs an atomic field type, or //simlint:crosspe <reason> naming the ordering (barrier, token hand-off, pre-start construction) that makes it safe",
						fieldOwnerName(field), field.Name())
				} else {
					pass.Reportf(sel.Sel.Pos(),
						"read of goroutine-owned field %s.%s outside its owner's methods; waive with //simlint:crosspe <reason> naming the barrier or token ordering that publishes it",
						fieldOwnerName(field), field.Name())
				}
				return true
			})
		}
	}
	return nil
}

// writeSelections maps every SelectorExpr in body that sits on the
// written side of a statement: assignment LHS chains (including
// compound assignments), IncDec operands, and address-taken expressions
// (an escaping pointer may be written through, so &other.field counts
// as a write for classification).
func writeSelections(body *ast.BlockStmt) map[ast.Node]bool {
	writes := make(map[ast.Node]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range s.Lhs {
				markWriteChain(lhs, writes)
			}
		case *ast.IncDecStmt:
			markWriteChain(s.X, writes)
		case *ast.UnaryExpr:
			if s.Op == token.AND {
				markWriteChain(s.X, writes)
			}
		}
		return true
	})
	return writes
}

// markWriteChain peels expr down to its selector chain, marking every
// selector on the path: a write to pe.outbox.bufs[i] writes through
// both outbox and bufs.
func markWriteChain(expr ast.Expr, writes map[ast.Node]bool) {
	for {
		switch x := ast.Unparen(expr).(type) {
		case *ast.SelectorExpr:
			writes[x] = true
			expr = x.X
		case *ast.IndexExpr:
			expr = x.X
		case *ast.SliceExpr:
			expr = x.X
		case *ast.StarExpr:
			expr = x.X
		default:
			return
		}
	}
}

// receiverVar returns the receiver variable of a method declaration, or
// nil for plain functions and anonymous receivers.
func receiverVar(pass *Pass, fd *ast.FuncDecl) *types.Var {
	if fd.Recv == nil || len(fd.Recv.List) == 0 || len(fd.Recv.List[0].Names) == 0 {
		return nil
	}
	v, _ := pass.TypesInfo.Defs[fd.Recv.List[0].Names[0]].(*types.Var)
	return v
}

// ownedAccess reports whether the selection reads the field through the
// enclosing method's own receiver — the one access pattern that stays on
// the owning goroutine. owner may be nil for fields imported via facts;
// the receiver's base type is then matched against the field's parent
// struct by type identity.
func ownedAccess(pass *Pass, fd *ast.FuncDecl, recvVar *types.Var, owner *types.Named, field *types.Var, sel *ast.SelectorExpr) bool {
	if recvVar == nil {
		return false
	}
	// The base expression must be exactly the receiver identifier.
	base, ok := ast.Unparen(sel.X).(*ast.Ident)
	if !ok || pass.TypesInfo.Uses[base] != recvVar {
		return false
	}
	recvNamed := namedOf(recvVar.Type())
	if recvNamed == nil {
		return false
	}
	if owner != nil {
		return recvNamed.Obj() == owner.Obj()
	}
	// Imported field: owner is the struct type that declares it. Accept if
	// the receiver's underlying struct declares this exact field object.
	if st, ok := recvNamed.Underlying().(*types.Struct); ok {
		for i := 0; i < st.NumFields(); i++ {
			if st.Field(i) == field {
				return true
			}
		}
	}
	return false
}

// fieldOwnerName renders the declaring package of a marked field for
// diagnostics.
func fieldOwnerName(field *types.Var) string {
	if field.Pkg() != nil {
		return field.Pkg().Name()
	}
	return "?"
}
