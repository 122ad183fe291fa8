package lint

import (
	"go/ast"
	"go/types"
)

// checkTestOnly keeps the library surface lean: an exported package-level
// name, or an exported method, in a library package (Config.LibraryPrefixes)
// that no non-test file of the module references is a finding. The loader
// reads only non-test files, so every use it records is a product use;
// code that only tests keep alive belongs in a test file. A method counts
// as used when its receiver type, or a pointer to it, implements an
// interface that declares the method: callers reach it through that
// interface. The interfaces considered are error, those written in the
// module (declared or literal), and those declared in the packages the
// module imports. A name kept on purpose carries
// "//predlint:ignore testonly <reason>".
func checkTestOnly(c *Context) {
	used := map[types.Object]bool{}
	for _, pkg := range c.Pkgs {
		for _, obj := range pkg.Info.Uses {
			if fn, ok := obj.(*types.Func); ok {
				obj = fn.Origin() // a use of F[int] is a use of F
			}
			used[obj] = true
		}
	}
	ifaces := c.interfaceMethods()
	for _, pkg := range c.Pkgs {
		if !c.isLibrary(pkg) {
			continue
		}
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				for _, id := range declaredNames(decl) {
					obj := pkg.Info.Defs[id]
					if obj == nil || !id.IsExported() || used[obj] {
						continue
					}
					if fn, ok := obj.(*types.Func); ok {
						if recv := receiver(fn); recv != nil && implementsAny(recv, ifaces[fn.Name()]) {
							continue
						}
					}
					c.reportf("testonly", "testonly/unused", id.Pos(),
						"%s is exported but no non-test file uses it: move it into a test file or delete it", qualifiedName(obj))
				}
			}
		}
	}
}

// declaredNames returns the identifiers a top-level declaration
// introduces: a function or method name, or every type, const and var
// name of a general declaration.
func declaredNames(decl ast.Decl) []*ast.Ident {
	switch d := decl.(type) {
	case *ast.FuncDecl:
		return []*ast.Ident{d.Name}
	case *ast.GenDecl:
		var out []*ast.Ident
		for _, spec := range d.Specs {
			switch s := spec.(type) {
			case *ast.TypeSpec:
				out = append(out, s.Name)
			case *ast.ValueSpec:
				out = append(out, s.Names...)
			}
		}
		return out
	}
	return nil
}

// receiver returns the named type a method is declared on, looking
// through a pointer receiver, or nil when fn is not a method.
func receiver(fn *types.Func) *types.Named {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

// interfaceMethods indexes, by method name, every interface a method can
// be reached through: error, each interface type the module's packages
// write, and each named interface their imports declare.
func (c *Context) interfaceMethods() map[string][]*types.Interface {
	out := map[string][]*types.Interface{}
	seen := map[*types.Interface]bool{}
	add := func(t types.Type) {
		if named, ok := t.(*types.Named); ok && named.TypeParams().Len() > 0 {
			return // a generic interface only binds once instantiated
		}
		iface, ok := t.Underlying().(*types.Interface)
		if !ok || seen[iface] {
			return
		}
		seen[iface] = true
		for i := 0; i < iface.NumMethods(); i++ {
			name := iface.Method(i).Name()
			out[name] = append(out[name], iface)
		}
	}
	add(types.Universe.Lookup("error").Type())
	scanned := map[*types.Package]bool{}
	for _, pkg := range c.Pkgs {
		for _, tv := range pkg.Info.Types {
			if tv.IsType() {
				add(tv.Type)
			}
		}
		for _, imp := range append([]*types.Package{pkg.Types}, pkg.Types.Imports()...) {
			if scanned[imp] {
				continue
			}
			scanned[imp] = true
			scope := imp.Scope()
			for _, name := range scope.Names() {
				if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
					add(tn.Type())
				}
			}
		}
	}
	return out
}

// implementsAny reports whether recv, or a pointer to it, implements one
// of the candidate interfaces.
func implementsAny(recv *types.Named, candidates []*types.Interface) bool {
	for _, iface := range candidates {
		if types.Implements(recv, iface) || types.Implements(types.NewPointer(recv), iface) {
			return true
		}
	}
	return false
}

// qualifiedName renders a finding's subject as pkg.Name or
// pkg.Type.Method.
func qualifiedName(obj types.Object) string {
	if fn, ok := obj.(*types.Func); ok {
		if recv := receiver(fn); recv != nil {
			return obj.Pkg().Name() + "." + recv.Obj().Name() + "." + obj.Name()
		}
	}
	return obj.Pkg().Name() + "." + obj.Name()
}
