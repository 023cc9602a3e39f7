package analysis

import (
	"go/ast"
	"go/types"
)

// Statscheck enforces the ownership discipline of the kernel's sharded
// statistics: each PE owns its counters (processed, mailSent, ...) and
// bumps them without atomics, so any read or write from outside methods
// of the owning type is a data race unless it happens inside one of the
// kernel's synchronisation windows (the comms fixed point's barriers, post-Run
// collection).
//
// Fields are opted in with a //simlint:sharded marker on the field (or
// its declaration group). Access is then allowed only through the
// receiver of a method on the owning type — `p.mailSent++` inside a
// (*PE) method is fine, `other.mailSent` anywhere (including inside a
// (*PE) method, since `other` may be a different shard) is flagged.
// Synchronised cross-PE reads are waived with //simlint:crosspe <reason>
// naming the barrier that makes them safe.
var Statscheck = &Analyzer{
	Name:    "statscheck",
	Doc:     "flag access to PE-sharded counters from outside the owning goroutine context",
	Keyword: "crosspe",
	Run:     runStatscheck,
}

// shardedFact marks a struct field as a PE-sharded counter. Exported so
// dependent packages flag cross-package access too.
type shardedFact struct{}

func runStatscheck(pass *Pass) error {
	// Pass 1: collect marked fields and their owning named types.
	owners := markedFields(pass, "sharded")
	for v := range owners {
		pass.ExportObjectFact(v, shardedFact{})
	}

	// Pass 2: audit every selection of a sharded field (local or
	// imported).
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			recvVar := receiverVar(pass, fd)
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
				owner, sharded := owners[field]
				if !sharded {
					var fact shardedFact
					if field.Pkg() == nil || field.Pkg() == pass.Pkg || !pass.ImportObjectFact(field, &fact) {
						return true
					}
					owner = nil // cross-package: owner identity via field parent lookup below
				}
				if ownedAccess(pass, fd, recvVar, owner, field, sel) {
					return true
				}
				pass.Reportf(sel.Sel.Pos(),
					"access to PE-sharded counter %s.%s outside its owner's methods; unsynchronised cross-PE access races with the owning PE (waive with //simlint:crosspe <reason> if a barrier orders it)",
					fieldOwnerName(field), field.Name())
				return true
			})
		}
	}
	return nil
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

// fieldOwnerName renders the declaring package-qualified context of a
// sharded field for diagnostics.
func fieldOwnerName(field *types.Var) string {
	if field.Pkg() != nil {
		return field.Pkg().Name()
	}
	return "?"
}
