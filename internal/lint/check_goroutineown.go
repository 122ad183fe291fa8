package lint

import (
	"go/ast"
	"go/types"
)

// checkGoroutineOwn enforces single-owner handoff on types annotated
// //predlint:owned (the flight ring's Records, serve's pooled wireBufs and
// per-post dispatch states): once a value of such a type is handed to
// another owner, the handing function may not touch it again. A handoff is
//
//   - a channel send of the value,
//   - Put on a sync.Pool,
//   - Swap on an atomic.Pointer (the ring's publication primitive),
//   - passing the value to a function annotated //predlint:handoff.
//
// The analysis is a forward poison walk per function: a handed-off
// variable is poisoned, any later use (including inside function
// literals, which may run after the new owner has recycled the value)
// is a finding, and reassigning the variable clears it. Branches merge
// by union — a handoff on either arm poisons the code after the branch —
// except arms that terminate (return/panic/break), which never reach it.
// Deferred statements are exempt: they run at function exit, which is
// the idiomatic place to hand a pooled value back.
func checkGoroutineOwn(c *Context) {
	owned := c.collectOwnedTypes()
	handoff := c.collectHandoffFuncs()
	if len(owned) == 0 {
		return
	}
	for _, pkg := range c.Pkgs {
		eachFunc(pkg, func(_ *ast.File, fd *ast.FuncDecl) {
			if fd.Body == nil {
				return
			}
			w := &ownWalker{c: c, pkg: pkg, owned: owned, handoff: handoff}
			w.block(fd.Body.List, poisonSet{})
		})
	}
}

// collectOwnedTypes finds //predlint:owned type declarations.
func (c *Context) collectOwnedTypes() map[types.Object]bool {
	out := map[types.Object]bool{}
	for _, pkg := range c.Pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				gd, ok := decl.(*ast.GenDecl)
				if !ok {
					continue
				}
				for _, spec := range gd.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok {
						continue
					}
					marked := false
					for _, cg := range []*ast.CommentGroup{gd.Doc, ts.Doc, ts.Comment} {
						if cg == nil {
							continue
						}
						for _, cmt := range cg.List {
							if directiveText(cmt.Text) == ownedMarker {
								marked = true
								c.consume(cmt.Pos())
							}
						}
					}
					if marked {
						if obj := pkg.Info.Defs[ts.Name]; obj != nil {
							out[obj] = true
						}
					}
				}
			}
		}
	}
	return out
}

// collectHandoffFuncs finds //predlint:handoff function declarations.
func (c *Context) collectHandoffFuncs() map[types.Object]bool {
	out := map[types.Object]bool{}
	for _, pkg := range c.Pkgs {
		eachFunc(pkg, func(_ *ast.File, fd *ast.FuncDecl) {
			if fd.Doc == nil {
				return
			}
			for _, cmt := range fd.Doc.List {
				if directiveText(cmt.Text) == handoffMarker {
					c.consume(cmt.Pos())
					if obj := pkg.Info.Defs[fd.Name]; obj != nil {
						out[obj] = true
					}
				}
			}
		})
	}
	return out
}

// poisonSet maps a handed-off variable to how and where it was handed
// off.
type poisonSet map[types.Object]poisonInfo

type poisonInfo struct {
	kind string
	line int
}

func (p poisonSet) clone() poisonSet {
	out := make(poisonSet, len(p))
	for k, v := range p {
		out[k] = v
	}
	return out
}

func union(a, b poisonSet) poisonSet {
	out := a.clone()
	for k, v := range b {
		if _, ok := out[k]; !ok {
			out[k] = v
		}
	}
	return out
}

type ownWalker struct {
	c       *Context
	pkg     *Package
	owned   map[types.Object]bool
	handoff map[types.Object]bool
}

// isOwned reports whether t is (a pointer to) an annotated owned type.
func (w *ownWalker) isOwned(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && w.owned[named.Obj()]
}

// ownedIdent resolves an expression to the variable object it names, if
// it is a plain identifier of an owned type.
func (w *ownWalker) ownedIdent(e ast.Expr) types.Object {
	id, ok := e.(*ast.Ident)
	if !ok {
		return nil
	}
	obj := w.pkg.Info.Uses[id]
	if obj == nil || !w.isOwned(obj.Type()) {
		return nil
	}
	return obj
}

func (w *ownWalker) block(stmts []ast.Stmt, p poisonSet) (poisonSet, bool) {
	for _, s := range stmts {
		var term bool
		p, term = w.stmt(s, p)
		if term {
			return p, true
		}
	}
	return p, false
}

func (w *ownWalker) stmt(s ast.Stmt, p poisonSet) (poisonSet, bool) {
	switch s := s.(type) {
	case *ast.ExprStmt:
		w.handleExprs(p, s.X)
		if call, ok := s.X.(*ast.CallExpr); ok && isPanicCall(call) {
			return p, true
		}
		return p, false
	case *ast.AssignStmt:
		w.handleExprs(p, s.Rhs...)
		for _, lhs := range s.Lhs {
			if id, ok := lhs.(*ast.Ident); ok {
				// Reassignment installs a fresh value: the variable no
				// longer aliases the handed-off one.
				if obj := w.pkg.Info.Defs[id]; obj != nil {
					delete(p, obj)
				} else if obj := w.pkg.Info.Uses[id]; obj != nil {
					delete(p, obj)
				}
				continue
			}
			w.handleExprs(p, lhs)
		}
		return p, false
	case *ast.IncDecStmt:
		w.handleExprs(p, s.X)
		return p, false
	case *ast.SendStmt:
		w.handleExprs(p, s.Chan)
		if obj := w.ownedIdent(s.Value); obj != nil {
			w.poison(p, s.Value, obj, "sent on a channel")
		} else {
			w.handleExprs(p, s.Value)
		}
		return p, false
	case *ast.DeferStmt:
		return p, false // runs at exit: the idiomatic handoff point
	case *ast.GoStmt:
		w.handleExprs(p, s.Call.Args...)
		if fl, ok := s.Call.Fun.(*ast.FuncLit); ok {
			w.scanUses(fl.Body, p)
		}
		return p, false
	case *ast.ReturnStmt:
		w.handleExprs(p, s.Results...)
		return p, true
	case *ast.BranchStmt:
		return p, true
	case *ast.BlockStmt:
		return w.block(s.List, p)
	case *ast.LabeledStmt:
		return w.stmt(s.Stmt, p)
	case *ast.IfStmt:
		if s.Init != nil {
			p, _ = w.stmt(s.Init, p)
		}
		w.handleExprs(p, s.Cond)
		thenOut, thenTerm := w.block(s.Body.List, p.clone())
		elseOut, elseTerm := p.clone(), false
		if s.Else != nil {
			elseOut, elseTerm = w.stmt(s.Else, p.clone())
		}
		switch {
		case thenTerm && elseTerm:
			return p, true
		case thenTerm:
			return elseOut, false
		case elseTerm:
			return thenOut, false
		default:
			return union(thenOut, elseOut), false
		}
	case *ast.ForStmt:
		if s.Init != nil {
			p, _ = w.stmt(s.Init, p)
		}
		if s.Cond != nil {
			w.handleExprs(p, s.Cond)
		}
		bodyOut, _ := w.block(s.Body.List, p.clone())
		if s.Post != nil {
			bodyOut, _ = w.stmt(s.Post, bodyOut)
		}
		return union(p, bodyOut), false
	case *ast.RangeStmt:
		w.handleExprs(p, s.X)
		bodyOut, _ := w.block(s.Body.List, p.clone())
		return union(p, bodyOut), false
	case *ast.SwitchStmt:
		if s.Init != nil {
			p, _ = w.stmt(s.Init, p)
		}
		if s.Tag != nil {
			w.handleExprs(p, s.Tag)
		}
		return w.clauses(s.Body.List, p)
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			p, _ = w.stmt(s.Init, p)
		}
		p, _ = w.stmt(s.Assign, p)
		return w.clauses(s.Body.List, p)
	case *ast.SelectStmt:
		var outs []poisonSet
		for _, cs := range s.Body.List {
			comm, ok := cs.(*ast.CommClause)
			if !ok {
				continue
			}
			st := p.clone()
			if comm.Comm != nil {
				st, _ = w.stmt(comm.Comm, st)
			}
			out, term := w.block(comm.Body, st)
			if !term {
				outs = append(outs, out)
			}
		}
		if len(outs) == 0 && len(s.Body.List) > 0 {
			return p, true
		}
		merged := p
		for _, o := range outs {
			merged = union(merged, o)
		}
		return merged, false
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						w.handleExprs(p, v)
					}
				}
			}
		}
		return p, false
	default:
		return p, false
	}
}

func (w *ownWalker) clauses(list []ast.Stmt, p poisonSet) (poisonSet, bool) {
	merged := p
	allTerm := len(list) > 0
	for _, cs := range list {
		clause, ok := cs.(*ast.CaseClause)
		if !ok {
			continue
		}
		for _, e := range clause.List {
			w.handleExprs(p, e)
		}
		out, term := w.block(clause.Body, p.clone())
		if !term {
			merged = union(merged, out)
			allTerm = false
		}
	}
	// Without a default the switch can fall through with the entry state,
	// so even all-terminating cases do not terminate the statement.
	if allTerm && hasDefaultClause(list) {
		return p, true
	}
	return merged, false
}

// handleExprs is the per-statement core: report uses of poisoned
// variables (skipping the arguments of this statement's own handoffs),
// then apply the new handoffs to the poison set.
func (w *ownWalker) handleExprs(p poisonSet, exprs ...ast.Expr) {
	type handoffArg struct {
		id   *ast.Ident
		obj  types.Object
		kind string
	}
	var handoffs []handoffArg
	skip := map[*ast.Ident]bool{}
	for _, e := range exprs {
		if e == nil {
			continue
		}
		ast.Inspect(e, func(n ast.Node) bool {
			if _, ok := n.(*ast.FuncLit); ok {
				return false // handoffs inside a literal belong to its own run
			}
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			kind := w.handoffKind(call)
			if kind == "" {
				return true
			}
			for _, a := range call.Args {
				id, ok := a.(*ast.Ident)
				if !ok {
					continue
				}
				if obj := w.ownedIdent(id); obj != nil {
					handoffs = append(handoffs, handoffArg{id, obj, kind})
					skip[id] = true
				}
			}
			return true
		})
	}
	for _, e := range exprs {
		if e == nil {
			continue
		}
		w.scanUsesExpr(e, p, skip)
	}
	for _, h := range handoffs {
		w.poison(p, h.id, h.obj, h.kind)
	}
}

// handoffKind classifies a call as a handoff: sync.Pool.Put,
// atomic.Pointer.Swap, or a //predlint:handoff function.
func (w *ownWalker) handoffKind(call *ast.CallExpr) string {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		if obj := w.pkg.Info.Uses[fun]; obj != nil && w.handoff[obj] {
			return "passed to handoff function " + fun.Name
		}
	case *ast.SelectorExpr:
		if obj := w.pkg.Info.Uses[fun.Sel]; obj != nil && w.handoff[obj] {
			return "passed to handoff function " + fun.Sel.Name
		}
		tv, ok := w.pkg.Info.Types[fun.X]
		if !ok {
			return ""
		}
		t := tv.Type
		if ptr, isPtr := t.(*types.Pointer); isPtr {
			t = ptr.Elem()
		}
		named, ok := t.(*types.Named)
		if !ok || named.Obj().Pkg() == nil {
			return ""
		}
		pkgPath, typeName := named.Obj().Pkg().Path(), named.Obj().Name()
		if fun.Sel.Name == "Put" && pkgPath == "sync" && typeName == "Pool" {
			return "Put back to its pool"
		}
		if fun.Sel.Name == "Swap" && pkgPath == "sync/atomic" {
			return "swapped into " + types.ExprString(fun.X)
		}
	}
	return ""
}

func (w *ownWalker) poison(p poisonSet, at ast.Node, obj types.Object, kind string) {
	if _, already := p[obj]; already {
		return
	}
	p[obj] = poisonInfo{kind: kind, line: w.c.Fset.Position(at.Pos()).Line}
}

// scanUses reports every identifier use of a poisoned variable in the
// subtree.
func (w *ownWalker) scanUses(n ast.Node, p poisonSet) {
	w.scanUsesExpr(n, p, nil)
}

func (w *ownWalker) scanUsesExpr(n ast.Node, p poisonSet, skip map[*ast.Ident]bool) {
	if len(p) == 0 {
		return
	}
	ast.Inspect(n, func(m ast.Node) bool {
		id, ok := m.(*ast.Ident)
		if !ok || skip[id] {
			return true
		}
		obj := w.pkg.Info.Uses[id]
		if obj == nil {
			return true
		}
		if info, poisoned := p[obj]; poisoned {
			w.c.reportf("goroutineown", "goroutineown/use-after-handoff", id.Pos(),
				"%s used after being %s on line %d: the new owner may already be mutating or recycling it",
				id.Name, info.kind, info.line)
		}
		return true
	})
}
