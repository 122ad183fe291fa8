package lint

import (
	"go/ast"
	"strings"
)

// checkPanicFree flags panic() and log.Fatal* in library packages
// (import paths under Config.LibraryPrefixes): libraries report failures
// as error returns so callers choose the policy; only main packages may
// decide to die. Invariant panics that guard provably-unreachable states
// stay allowed via //predlint:ignore panicfree annotations, which keep
// every such decision visible at the site.
func checkPanicFree(c *Context) {
	for _, pkg := range c.Pkgs {
		if !c.isLibrary(pkg) {
			continue
		}
		for _, file := range pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" {
					c.reportf("panicfree", "panicfree/panic", call.Pos(),
						"panic in library package %s: return an error instead", pkg.Name)
					return true
				}
				if path, name := pkgFunc(pkg.Info, call); path == "log" && strings.HasPrefix(name, "Fatal") {
					c.reportf("panicfree", "panicfree/fatal", call.Pos(),
						"log.%s in library package %s: return an error instead", name, pkg.Name)
				}
				return true
			})
		}
	}
}
