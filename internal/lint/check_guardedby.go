package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"maps"
	"strings"
)

// checkGuardedBy enforces //predlint:guardedby annotations: a struct
// field documented with
//
//	pending int //predlint:guardedby mu
//
// may only be read or written while the named sibling mutex is held on
// every path through the enclosing function. The analysis is
// intra-procedural lock-set tracking on the shared interpreter (walk, in
// flow.go): Lock/RLock add the mutex (keyed by the receiver expression,
// so s.mu and t.mu are distinct), Unlock/RUnlock remove it, a deferred
// Unlock keeps it held to function exit, and paths join by intersection,
// so a lock counts as held after a branch only if every path that gets
// there holds it. RLock suffices for reads; a write under RLock only is
// its own finding.
//
// Two deliberate holes keep the check usable:
//
//   - accesses through function-local variables are exempt (the
//     pre-publication construction pattern: build the value, then hand it
//     to the world);
//   - goroutine bodies and non-immediate function literals start with an
//     empty lock set — they run later, under whatever locks they take
//     themselves. A deferred literal is analyzed with the lock set at the
//     defer statement, matching the lock-then-defer-cleanup idiom.
type guardInfo struct {
	mutex string // sibling field name
	rw    bool   // sibling is a sync.RWMutex
}

// lockSet maps a mutex key ("s.mu") to the strongest mode held on every
// path so far: lockRead (RLock) or lockWrite (Lock).
type lockSet map[string]int

const (
	lockRead  = 1
	lockWrite = 2
)

func checkGuardedBy(c *Context) {
	guarded := c.collectGuarded()
	if len(guarded) == 0 {
		return
	}
	for _, pkg := range c.Pkgs {
		eachFunc(pkg, func(_ *ast.File, fd *ast.FuncDecl) {
			if fd.Body == nil {
				return
			}
			w := &gbWalker{c: c, pkg: pkg, fn: fd, guarded: guarded}
			walk(w, fd.Body.List, lockSet{})
		})
	}
}

// collectGuarded parses every //predlint:guardedby field annotation in
// the module, validates the named sibling mutex, and returns the guarded
// field objects. Invalid annotations (missing or non-mutex sibling) are
// bad-mutex findings; either way the annotation is consumed, so
// staleignore does not double-report it.
func (c *Context) collectGuarded() map[types.Object]guardInfo {
	out := map[types.Object]guardInfo{}
	for _, pkg := range c.Pkgs {
		for _, file := range pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				st, ok := n.(*ast.StructType)
				if !ok || st.Fields == nil {
					return true
				}
				for _, field := range st.Fields.List {
					text, pos := fieldDirective(field, guardedbyPrefix)
					if text == "" {
						continue
					}
					c.consume(pos)
					fields := strings.Fields(strings.TrimPrefix(text, guardedbyPrefix))
					if len(fields) != 1 {
						c.reportDirectivef("guardedby", "guardedby/bad-mutex", text, field.Pos(),
							"guardedby annotation needs exactly one mutex field name")
						continue
					}
					mutex := fields[0]
					rw, ok := siblingMutex(pkg, st, mutex)
					if !ok {
						c.reportDirectivef("guardedby", "guardedby/bad-mutex", text, field.Pos(),
							"guardedby names %s, which is not a sibling sync.Mutex or sync.RWMutex field", mutex)
						continue
					}
					for _, name := range field.Names {
						if obj := pkg.Info.Defs[name]; obj != nil {
							out[obj] = guardInfo{mutex: mutex, rw: rw}
						}
					}
				}
				return true
			})
		}
	}
	return out
}

// fieldDirective finds a directive with the given prefix in a struct
// field's doc group or trailing comment.
func fieldDirective(field *ast.Field, prefix string) (string, token.Pos) {
	for _, cg := range []*ast.CommentGroup{field.Doc, field.Comment} {
		if cg == nil {
			continue
		}
		for _, cmt := range cg.List {
			text := directiveText(cmt.Text)
			if text == prefix || strings.HasPrefix(text, prefix+" ") {
				return text, cmt.Pos()
			}
		}
	}
	return "", token.NoPos
}

// siblingMutex reports whether the struct has a field of the given name
// whose type is sync.Mutex or sync.RWMutex, and whether it is an RWMutex.
func siblingMutex(pkg *Package, st *ast.StructType, name string) (rw, ok bool) {
	for _, field := range st.Fields.List {
		for _, n := range field.Names {
			if n.Name != name {
				continue
			}
			obj := pkg.Info.Defs[n]
			if obj == nil {
				return false, false
			}
			named, isNamed := obj.Type().(*types.Named)
			if !isNamed || named.Obj().Pkg() == nil || named.Obj().Pkg().Path() != "sync" {
				return false, false
			}
			switch named.Obj().Name() {
			case "Mutex":
				return false, true
			case "RWMutex":
				return true, true
			}
			return false, false
		}
	}
	return false, false
}

// gbWalker checks one function body. walk threads its lock set through
// the statements; its flow methods check accesses and apply lock
// operations.
type gbWalker struct {
	c       *Context
	pkg     *Package
	fn      *ast.FuncDecl
	guarded map[types.Object]guardInfo
}

func (w *gbWalker) copy(ls lockSet) lockSet { return maps.Clone(ls) }

// join keeps only the locks held on both paths, at the weaker mode.
func (w *gbWalker) join(a, b lockSet) lockSet {
	out := lockSet{}
	for k, va := range a {
		if vb, ok := b[k]; ok {
			out[k] = min(va, vb)
		}
	}
	return out
}

func (w *gbWalker) eval(ls lockSet, es ...ast.Expr) {
	for _, e := range es {
		w.scan(e, ls)
	}
}

// apply checks a straight-line statement's accesses and applies a direct
// Lock or Unlock. A deferred Unlock keeps the lock held to function exit,
// so it changes nothing; a deferred function literal runs with the locks
// held at the defer, and a go literal with none.
func (w *gbWalker) apply(ls lockSet, s ast.Stmt) {
	switch s := s.(type) {
	case *ast.ExprStmt:
		w.scan(s.X, ls)
		if call, ok := s.X.(*ast.CallExpr); ok {
			w.applyLockOp(call, ls)
		}
	case *ast.AssignStmt:
		w.eval(ls, s.Rhs...)
		for _, lhs := range s.Lhs {
			w.write(lhs, ls)
		}
	case *ast.IncDecStmt:
		w.write(s.X, ls)
	case *ast.SendStmt:
		w.eval(ls, s.Chan, s.Value)
	case *ast.DeferStmt:
		w.eval(ls, s.Call.Args...)
		if fl, ok := s.Call.Fun.(*ast.FuncLit); ok {
			walk(w, fl.Body.List, w.copy(ls))
		}
	case *ast.GoStmt:
		w.eval(ls, s.Call.Args...)
		if fl, ok := s.Call.Fun.(*ast.FuncLit); ok {
			walk(w, fl.Body.List, lockSet{})
		}
	}
}

// scan walks an expression for guarded-field reads, nested lock ops in
// immediately-invoked literals, and function literals.
func (w *gbWalker) scan(e ast.Expr, ls lockSet) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			// Non-immediate literal: runs later under its own locks.
			walk(w, n.Body.List, lockSet{})
			return false
		case *ast.CallExpr:
			if fl, ok := n.Fun.(*ast.FuncLit); ok {
				// Immediately-invoked literal runs here, under ls.
				w.eval(ls, n.Args...)
				walk(w, fl.Body.List, w.copy(ls))
				return false
			}
		case *ast.CompositeLit:
			// Keyed struct literals name fields without accessing a live
			// value; element expressions still need scanning.
			for _, el := range n.Elts {
				if kv, ok := el.(*ast.KeyValueExpr); ok {
					w.scan(kv.Value, ls)
				} else {
					w.scan(el, ls)
				}
			}
			return false
		case *ast.SelectorExpr:
			w.access(n, false, ls)
		}
		return true
	})
}

// write records a write access to the assignment target, unwrapping
// parens and indexes (writing s.m[k] mutates the guarded map) but not
// stars (writing *s.p mutates the pointee, reading the field).
func (w *gbWalker) write(lhs ast.Expr, ls lockSet) {
	for {
		switch e := lhs.(type) {
		case *ast.ParenExpr:
			lhs = e.X
		case *ast.IndexExpr:
			w.scan(e.Index, ls)
			lhs = e.X
		case *ast.SelectorExpr:
			w.access(e, true, ls)
			w.scan(e.X, ls)
			return
		default:
			w.scan(lhs, ls)
			return
		}
	}
}

// access reports a guarded-field access made without the guard held.
func (w *gbWalker) access(sel *ast.SelectorExpr, isWrite bool, ls lockSet) {
	selection, ok := w.pkg.Info.Selections[sel]
	if !ok || selection.Kind() != types.FieldVal {
		return
	}
	info, guarded := w.guarded[selection.Obj()]
	if !guarded || w.localBase(sel.X) {
		return
	}
	key := types.ExprString(sel.X) + "." + info.mutex
	mode := ls[key]
	field := selection.Obj().Name()
	switch {
	case mode == 0 && isWrite:
		w.c.reportf("guardedby", "guardedby/unguarded-write", sel.Sel.Pos(),
			"write to %s without holding %s (guarded by //predlint:guardedby %s)", field, key, info.mutex)
	case mode == 0:
		w.c.reportf("guardedby", "guardedby/unguarded-read", sel.Sel.Pos(),
			"read of %s without holding %s (guarded by //predlint:guardedby %s)", field, key, info.mutex)
	case mode == lockRead && isWrite:
		w.c.reportf("guardedby", "guardedby/rlock-write", sel.Sel.Pos(),
			"write to %s while %s is only read-locked", field, key)
	}
}

// localBase reports whether the access base bottoms out in a variable
// declared inside this function body — the pre-publication construction
// exemption: a value built locally is not yet shared.
func (w *gbWalker) localBase(e ast.Expr) bool {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.CallExpr:
			return false
		case *ast.Ident:
			obj := w.pkg.Info.Uses[x]
			if obj == nil {
				return false
			}
			if _, isVar := obj.(*types.Var); !isVar {
				return false
			}
			body := w.fn.Body
			return obj.Pos() >= body.Pos() && obj.Pos() < body.End()
		default:
			return false
		}
	}
}

// applyLockOp mutates the lock set for a direct mu.Lock()-style call.
func (w *gbWalker) applyLockOp(call *ast.CallExpr, ls lockSet) {
	key, op := w.lockOp(call)
	if key == "" {
		return
	}
	switch op {
	case "Lock":
		ls[key] = lockWrite
	case "RLock":
		if ls[key] < lockRead {
			ls[key] = lockRead
		}
	case "Unlock", "RUnlock":
		delete(ls, key)
	}
}

// lockOp recognises a call as mutex Lock/Unlock/RLock/RUnlock on a
// sync.Mutex or sync.RWMutex, returning the receiver key and the method.
func (w *gbWalker) lockOp(call *ast.CallExpr) (key, op string) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", ""
	}
	switch sel.Sel.Name {
	case "Lock", "Unlock", "RLock", "RUnlock":
	default:
		return "", ""
	}
	tv, ok := w.pkg.Info.Types[sel.X]
	if !ok {
		return "", ""
	}
	t := tv.Type
	if p, isPtr := t.(*types.Pointer); isPtr {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil || named.Obj().Pkg().Path() != "sync" {
		return "", ""
	}
	if name := named.Obj().Name(); name != "Mutex" && name != "RWMutex" {
		return "", ""
	}
	return types.ExprString(sel.X), sel.Sel.Name
}
