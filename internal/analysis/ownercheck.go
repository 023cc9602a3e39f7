package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"maps"
)

// Ownercheck is the kernel's concurrency analysis. Every rule is one
// ownership contract — a field belongs to one goroutine, or one function
// — declared by a marker:
//
//   - //simlint:owned on a struct field (PE freelists, the liveEvents
//     gauge, outbox ledgers, epoch tables, each PE's counter record): the
//     field belongs to the goroutine running its owner's methods, and the
//     only accesses that stay on that goroutine are those made through the
//     enclosing method's own receiver. Everything else is a
//     cross-goroutine access — the bug class behind the use-after-free
//     panics that motivated this analyzer. Reads and writes get distinct
//     messages: an unordered cross-goroutine write is never fixable by a
//     waiver alone and should move to an atomic type. Fields of sync/atomic
//     type are exempt from this rule; the two markers below police them.
//
//   - //simlint:spsc on an atomic index (the mail lanes' head and tail):
//     the same contract where loads are free. Exactly one function may
//     store it — the producer stores the tail, the consumer the head — so
//     a second writer function, or any store from another package, is a
//     finding.
//
//   - //simlint:publishes <field> on an atomic guard (the lane tail, the
//     GVT token holder): storing the guard hands the named sibling field to
//     another goroutine. Within any one function, every store to the
//     published data must precede the guard store in block order — a slot
//     write after the tail store is visible to a consumer that already
//     observed the tail, the exact bug -race catches only when the
//     interleaving cooperates. The walk is flow-lite: a guard store
//     poisons the rest of its block (and the blocks nested in it); guard
//     stores inside a nested block stay local, so branch-local publishes
//     never false-positive. Publish order is checked within the annotating
//     package (the kernel's guards are unexported).
//
// The spsc and publishes markers also require the field itself to be a
// sync/atomic type: a plain store orders nothing. Ownership and
// single-writer facts travel across packages. A finding is waived with
// //simlint:crosspe <reason> naming the barrier, token hand-off or
// pre-start construction that orders the access.
var Ownercheck = &Analyzer{
	Name:    "ownercheck",
	Doc:     "flag access to goroutine-owned fields outside the owning receiver's methods, second writers of SPSC indexes, and stores after the guard store that publishes them",
	Keyword: "crosspe",
	Run:     runOwnercheck,
}

// ownedFact and spscFact mark a struct field as goroutine-owned or as a
// single-writer atomic index. Exported so dependent packages flag
// cross-package access too.
type (
	ownedFact struct{}
	spscFact  struct{}
)

// atomicMutators are the sync/atomic methods that store.
var atomicMutators = map[string]bool{
	"Store":          true,
	"Add":            true,
	"Swap":           true,
	"CompareAndSwap": true,
	"And":            true,
	"Or":             true,
}

func runOwnercheck(pass *Pass) error {
	owners := markedFields(pass, "owned")
	for v := range owners {
		pass.ExportObjectFact(v, ownedFact{})
	}
	spsc := markedFields(pass, "spsc")
	for v := range spsc {
		pass.ExportObjectFact(v, spscFact{})
		if !isAtomicType(v.Type()) {
			pass.Reportf(v.Pos(),
				"spsc index %s.%s must be a sync/atomic type; a plain index gives the opposite side no ordered view of it",
				fieldOwnerName(v), v.Name())
		}
	}
	pubs := collectPublishes(pass)

	// The first function (in source order) that stores an spsc index
	// claims it; every other storing function is a finding.
	writers := make(map[*types.Var]*ast.FuncDecl)
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkOwnedAccess(pass, fd, owners)
			checkSingleWriter(pass, fd, spsc, writers)
			if len(pubs) > 0 {
				checkPublishOrder(pass, fd.Body, pubs, make(map[pubKey]pubSite))
			}
		}
	}
	return nil
}

// checkOwnedAccess audits every selection of an owned field (local or
// imported) in one function.
func checkOwnedAccess(pass *Pass, fd *ast.FuncDecl, owners map[*types.Var]*types.Named) {
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
		// Generic owners (the eventq ladder arena) instantiate fresh field
		// objects per instantiation; the marker sits on the origin.
		field = field.Origin()
		owner, owned := owners[field]
		if !owned {
			var fact ownedFact
			if field.Pkg() == nil || field.Pkg() == pass.Pkg || !pass.ImportObjectFact(field, &fact) {
				return true
			}
			owner = nil // cross-package: owner identity via field parent lookup below
		}
		if isAtomicType(field.Type()) || ownedAccess(pass, recvVar, owner, field, sel) {
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

// checkSingleWriter flags atomic stores in one function to an spsc index
// another function already claimed, or that another package declares.
func checkSingleWriter(pass *Pass, fd *ast.FuncDecl, spsc map[*types.Var]*types.Named, writers map[*types.Var]*ast.FuncDecl) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok || !atomicMutators[sel.Sel.Name] {
			return true
		}
		_, fields := selectorChain(pass, sel.X)
		for _, field := range fields {
			if _, tagged := spsc[field]; !tagged {
				var fact spscFact
				if field.Pkg() == nil || field.Pkg() == pass.Pkg || !pass.ImportObjectFact(field, &fact) {
					continue
				}
				pass.Reportf(call.Pos(),
					"spsc index %s.%s is stored outside its declaring package; the producer/consumer pair owning it lives there",
					fieldOwnerName(field), field.Name())
				continue
			}
			first, claimed := writers[field]
			switch {
			case !claimed:
				writers[field] = fd
			case first != fd:
				pass.Reportf(call.Pos(),
					"second writer for spsc index %s.%s: %s also stores it (first writer %s); single-writer discipline allows exactly one function per index (producer stores tail, consumer stores head)",
					fieldOwnerName(field), field.Name(), fd.Name.Name, first.Name.Name)
			}
		}
		return true
	})
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
func ownedAccess(pass *Pass, recvVar *types.Var, owner *types.Named, field *types.Var, sel *ast.SelectorExpr) bool {
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

// pubSite records one guard store for the publish-order walk.
type pubSite struct {
	guard string
	pos   token.Pos
}

// pubKey identifies published data: the root variable the selection hangs
// off plus the data field. Keying on the root keeps l.tail publishing
// l.buf without poisoning other.buf.
type pubKey struct {
	base *types.Var
	data *types.Var
}

// collectPublishes maps each //simlint:publishes-tagged guard field to
// the sibling field it publishes, reporting guards that are not atomic
// or whose argument names no sibling.
func collectPublishes(pass *Pass) map[*types.Var]*types.Var {
	pubs := make(map[*types.Var]*types.Var)
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
				// Field objects by name, for sibling resolution.
				byName := make(map[string]*types.Var)
				for _, field := range st.Fields.List {
					for _, name := range field.Names {
						if v, ok := pass.TypesInfo.Defs[name].(*types.Var); ok {
							byName[name.Name] = v
						}
					}
				}
				for _, field := range st.Fields.List {
					arg, ok := MarkerArg(field.Doc, "publishes")
					if !ok {
						arg, ok = MarkerArg(field.Comment, "publishes")
					}
					if !ok || len(field.Names) == 0 {
						continue
					}
					guard, ok := pass.TypesInfo.Defs[field.Names[0]].(*types.Var)
					if !ok {
						continue
					}
					if !isAtomicType(guard.Type()) {
						pass.Reportf(guard.Pos(),
							"publish guard %s.%s must be a sync/atomic type; a plain store publishes nothing to other goroutines",
							fieldOwnerName(guard), guard.Name())
					}
					if arg == "" {
						continue // driver hygiene reports the missing argument
					}
					data, ok := byName[arg]
					if !ok {
						pass.Reportf(guard.Pos(),
							"//simlint:publishes %s names no field of %s", arg, ts.Name.Name)
						continue
					}
					pubs[guard] = data
				}
			}
		}
	}
	return pubs
}

// checkPublishOrder walks one block's statements in order, tracking
// guard stores. published maps each (root, data field) pair to the guard
// store that published it. Nested blocks inherit a copy; publishes
// inside them stay local.
func checkPublishOrder(pass *Pass, block *ast.BlockStmt, pubs map[*types.Var]*types.Var, published map[pubKey]pubSite) {
	for _, stmt := range block.List {
		// 1. Stores to already-published data directly in this statement.
		if len(published) > 0 {
			shallowInspect(stmt, func(n ast.Node) {
				switch s := n.(type) {
				case *ast.AssignStmt:
					for _, lhs := range s.Lhs {
						reportLateStore(pass, lhs, published)
					}
				case *ast.IncDecStmt:
					reportLateStore(pass, s.X, published)
				}
			})
		}

		// 2. Nested blocks see the current published set but cannot
		// extend it.
		for _, nested := range nestedBlocks(stmt) {
			checkPublishOrder(pass, nested, pubs, maps.Clone(published))
		}

		// 3. Guard stores directly in this statement publish their data
		// for the rest of this block.
		shallowInspect(stmt, func(n ast.Node) {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return
			}
			sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
			if !ok || !atomicMutators[sel.Sel.Name] {
				return
			}
			root, fields := selectorChain(pass, sel.X)
			if root == nil {
				return
			}
			for _, field := range fields {
				if data, ok := pubs[field]; ok {
					published[pubKey{root, data}] = pubSite{guard: field.Name(), pos: call.Pos()}
				}
			}
		})
	}
}

// reportLateStore flags a store target that writes through data already
// published in this block.
func reportLateStore(pass *Pass, target ast.Expr, published map[pubKey]pubSite) {
	root, fields := selectorChain(pass, target)
	if root == nil {
		return
	}
	for _, field := range fields {
		if site, ok := published[pubKey{root, field}]; ok {
			pass.Reportf(target.Pos(),
				"store to %s.%s after the %s store at %v that publishes it; a consumer that already observed %s can read this slot mid-write (move the store above the publishing store)",
				root.Name(), field.Name(), site.guard, pass.Fset.Position(site.pos), site.guard)
		}
	}
}

// shallowInspect visits the statement's nodes without descending into
// nested blocks or function literals (the block walk handles those).
func shallowInspect(stmt ast.Stmt, fn func(ast.Node)) {
	ast.Inspect(stmt, func(n ast.Node) bool {
		switch n.(type) {
		case *ast.BlockStmt, *ast.FuncLit:
			return false
		}
		if n != nil {
			fn(n)
		}
		return true
	})
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

// selectorChain peels an expression down to its root identifier,
// collecting the field objects selected along the way: l.buf[i] yields
// (l, [buf]); pe.outbox.bufs yields (pe, [bufs, outbox]).
func selectorChain(pass *Pass, expr ast.Expr) (root *types.Var, fields []*types.Var) {
	for {
		switch x := ast.Unparen(expr).(type) {
		case *ast.IndexExpr:
			expr = x.X
		case *ast.SliceExpr:
			expr = x.X
		case *ast.StarExpr:
			expr = x.X
		case *ast.SelectorExpr:
			if s, ok := pass.TypesInfo.Selections[x]; ok && s.Kind() == types.FieldVal {
				if v, ok := s.Obj().(*types.Var); ok {
					fields = append(fields, v.Origin())
				}
			}
			expr = x.X
		case *ast.Ident:
			v, _ := pass.TypesInfo.Uses[x].(*types.Var)
			if v == nil {
				return nil, nil
			}
			return v, fields
		default:
			return nil, nil
		}
	}
}
