package lint

import (
	"go/ast"
	"go/types"
	"maps"
)

// checkGoroutineOwn enforces single-owner handoff on types annotated
// //predlint:owned (serve's pooled wireBufs): once a value of such a type
// is handed to another owner, the handing function may not touch it
// again. A handoff is
//
//   - a channel send of the value,
//   - Put on a sync.Pool,
//   - Swap on an atomic.Pointer.
//
// The analysis is a forward poison walk per function on the shared
// interpreter (walk, in flow.go): a handed-off variable is poisoned, any
// later use (including inside function literals, which may run after the
// new owner has recycled the value) is a finding, and reassigning the
// variable clears it. Paths join by union, so a handoff on any path that
// reaches a use poisons it; a path that returns, panics or branches away
// never reaches it. Deferred statements are exempt: they run at function
// exit, which is the idiomatic place to hand a pooled value back.
func checkGoroutineOwn(c *Context) {
	owned := c.collectOwnedTypes()
	if len(owned) == 0 {
		return
	}
	for _, pkg := range c.Pkgs {
		eachFunc(pkg, func(_ *ast.File, fd *ast.FuncDecl) {
			if fd.Body == nil {
				return
			}
			w := &ownWalker{c: c, pkg: pkg, owned: owned}
			walk(w, fd.Body.List, poisonSet{})
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

// poisonSet maps a handed-off variable to how and where it was handed
// off.
type poisonSet map[types.Object]poisonInfo

type poisonInfo struct {
	kind string
	line int
}

// ownWalker checks one function body. walk threads its poison set
// through the statements; its flow methods report uses and apply
// handoffs.
type ownWalker struct {
	c     *Context
	pkg   *Package
	owned map[types.Object]bool
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

func (w *ownWalker) copy(p poisonSet) poisonSet { return maps.Clone(p) }

// join poisons what either path poisoned, keeping a's record of where.
func (w *ownWalker) join(a, b poisonSet) poisonSet {
	out := maps.Clone(a)
	for k, v := range b {
		if _, ok := out[k]; !ok {
			out[k] = v
		}
	}
	return out
}

// apply checks a straight-line statement's uses and applies its
// handoffs. Reassigning a variable installs a fresh value, which no
// longer aliases the handed-off one. A go literal's body is scanned for
// uses, since it may run after the new owner has the value; defer is
// exempt, since a deferred call runs at function exit, the idiomatic
// place to hand a pooled value back.
func (w *ownWalker) apply(p poisonSet, s ast.Stmt) {
	switch s := s.(type) {
	case *ast.ExprStmt:
		w.eval(p, s.X)
	case *ast.AssignStmt:
		w.eval(p, s.Rhs...)
		for _, lhs := range s.Lhs {
			if id, ok := lhs.(*ast.Ident); ok {
				delete(p, w.pkg.Info.ObjectOf(id))
			} else {
				w.eval(p, lhs)
			}
		}
	case *ast.IncDecStmt:
		w.eval(p, s.X)
	case *ast.SendStmt:
		w.eval(p, s.Chan)
		if obj := w.ownedIdent(s.Value); obj != nil {
			w.poison(p, s.Value, obj, "sent on a channel")
		} else {
			w.eval(p, s.Value)
		}
	case *ast.GoStmt:
		w.eval(p, s.Call.Args...)
		if fl, ok := s.Call.Fun.(*ast.FuncLit); ok {
			w.scanUses(fl.Body, p, nil)
		}
	}
}

// eval reports uses of poisoned variables in one statement's expressions
// (skipping the arguments of the statement's own handoffs), then applies
// the new handoffs to the poison set.
func (w *ownWalker) eval(p poisonSet, exprs ...ast.Expr) {
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
		w.scanUses(e, p, skip)
	}
	for _, h := range handoffs {
		w.poison(p, h.id, h.obj, h.kind)
	}
}

// handoffKind classifies a call as a handoff: sync.Pool.Put or
// atomic.Pointer.Swap.
func (w *ownWalker) handoffKind(call *ast.CallExpr) string {
	fun, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return ""
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
	return ""
}

func (w *ownWalker) poison(p poisonSet, at ast.Node, obj types.Object, kind string) {
	if _, already := p[obj]; already {
		return
	}
	p[obj] = poisonInfo{kind: kind, line: w.c.Fset.Position(at.Pos()).Line}
}

// scanUses reports every identifier use of a poisoned variable in the
// subtree but those in skip.
func (w *ownWalker) scanUses(n ast.Node, p poisonSet, skip map[*ast.Ident]bool) {
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
