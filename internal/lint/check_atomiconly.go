package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// checkAtomicOnly keeps the tree on one atomic style, the sync/atomic
// types (atomic.Uint64, atomic.Value, atomic.Pointer[T], ...):
//
//   - a struct field of such a type may only be used as the receiver of
//     a method call (or method value). Using it in value context copies
//     the atomic — the copy's state is disconnected from the original —
//     and taking its address hands out a channel for plain access, so
//     both are findings;
//   - every use of a sync/atomic package-level function
//     (atomic.LoadUint64, atomic.AddInt32, ...) is a finding: such a
//     function works on a plain variable, which any other line can read
//     or write plainly, and nothing would check that it does not.
func checkAtomicOnly(c *Context) {
	fields := c.collectAtomicFields()
	for _, pkg := range c.Pkgs {
		for _, file := range pkg.Files {
			w := &atomicWalker{c: c, pkg: pkg, fields: fields}
			w.file(file)
		}
	}
}

// collectAtomicFields gathers every struct field of a sync/atomic type.
func (c *Context) collectAtomicFields() map[types.Object]bool {
	out := map[types.Object]bool{}
	for _, pkg := range c.Pkgs {
		for _, file := range pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				st, ok := n.(*ast.StructType)
				if !ok || st.Fields == nil {
					return true
				}
				for _, field := range st.Fields.List {
					for _, name := range field.Names {
						if obj := pkg.Info.Defs[name]; obj != nil && isAtomicType(obj.Type()) {
							out[obj] = true
						}
					}
				}
				return true
			})
		}
	}
	return out
}

// isAtomicType reports whether t is a named type (or generic instance)
// declared in sync/atomic.
func isAtomicType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	return named.Obj().Pkg().Path() == "sync/atomic"
}

// atomicWalker scans one file with an explicit ancestor stack, so each
// atomic-field selector can be classified by its use context.
type atomicWalker struct {
	c      *Context
	pkg    *Package
	fields map[types.Object]bool
	stack  []ast.Node
}

func (w *atomicWalker) file(f *ast.File) {
	ast.Inspect(f, func(n ast.Node) bool {
		if n == nil {
			w.stack = w.stack[:len(w.stack)-1]
			return false
		}
		switch n := n.(type) {
		case *ast.SelectorExpr:
			w.classify(n)
		case *ast.Ident:
			w.packageFunc(n)
		}
		w.stack = append(w.stack, n)
		return true
	})
}

// packageFunc reports a use of a sync/atomic package-level function.
func (w *atomicWalker) packageFunc(id *ast.Ident) {
	fn, ok := w.pkg.Info.Uses[id].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync/atomic" {
		return
	}
	if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() != nil {
		return // a typed atomic's method: the sanctioned style
	}
	w.c.reportf("atomiconly", "atomiconly/func", id.Pos(),
		"sync/atomic.%s on a plain variable: declare the variable with a sync/atomic type and use its methods", id.Name)
}

func (w *atomicWalker) classify(sel *ast.SelectorExpr) {
	selection, ok := w.pkg.Info.Selections[sel]
	if !ok || selection.Kind() != types.FieldVal || !w.fields[selection.Obj()] {
		return
	}
	field := selection.Obj().Name()
	switch p := w.stack[len(w.stack)-1].(type) { // the selector's parent
	case *ast.UnaryExpr:
		if p.Op == token.AND && p.X == sel {
			w.c.reportf("atomiconly", "atomiconly/escape", sel.Sel.Pos(),
				"address of atomic field %s escapes: anything holding it can bypass the atomic API", field)
			return
		}
	case *ast.SelectorExpr:
		// Receiver of a method call or method value: the only legal use.
		if ms, ok := w.pkg.Info.Selections[p]; ok && p.X == sel && ms.Kind() == types.MethodVal {
			return
		}
	case *ast.AssignStmt:
		for _, lhs := range p.Lhs {
			if lhs == sel {
				w.c.reportf("atomiconly", "atomiconly/plain-access", sel.Sel.Pos(),
					"plain store to atomic field %s: use its Store method", field)
				return
			}
		}
	}
	w.c.reportf("atomiconly", "atomiconly/copy", sel.Sel.Pos(),
		"atomic field %s used by value: the copy's state is disconnected from the original", field)
}
