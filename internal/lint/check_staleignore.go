package lint

import (
	"go/ast"
	"strings"
)

// checkStaleIgnore audits the directives themselves, so the suppression
// and annotation inventory cannot rot:
//
//   - an //predlint:ignore that suppressed nothing this run is dead and
//     must be deleted (judged only when every check it names actually
//     ran, so a filtered -checks run never misfires);
//   - an ignore without a reason string, or naming an unknown check, is
//     a finding — every exception stays explained and spellable;
//   - a guardedby/owned/hotpath marker that no check matched to a
//     declaration is dangling: it documents an invariant nothing
//     enforces;
//   - any other predlint: spelling is an unknown directive (usually a
//     typo that would otherwise silently enforce nothing).
//
// It must be registered last: it reads the used/consumed marks the other
// checks left behind. A deliberate keep is spelled
// "//predlint:ignore staleignore,<check> reason" — the record then
// suppresses its own dead finding, visibly.
func checkStaleIgnore(c *Context) {
	known := map[string]bool{"all": true}
	for _, ch := range Checks() {
		known[ch.Name] = true
	}
	allRan := true
	for _, ch := range Checks() {
		if !c.ran[ch.Name] {
			allRan = false
		}
	}

	for _, rec := range c.dirs.records {
		if rec.reason == "" {
			c.reportDirectivef("staleignore", "staleignore/no-reason", rec.text, rec.pos,
				"ignore directive has no reason: say why the exception is safe")
		}
		judgeable := true
		for name := range rec.checks {
			if !known[name] {
				c.reportDirectivef("staleignore", "staleignore/unknown-check", rec.text, rec.pos,
					"ignore directive names unknown check %q", name)
				judgeable = false
				continue
			}
			if name == "all" {
				judgeable = judgeable && allRan
			} else {
				judgeable = judgeable && c.ran[name]
			}
		}
		if judgeable && !rec.used {
			c.reportDirectivef("staleignore", "staleignore/dead", rec.text, rec.pos,
				"ignore directive suppresses nothing: delete it (or it will hide the next real finding here)")
		}
	}

	for _, pkg := range c.Pkgs {
		for _, file := range pkg.Files {
			for _, cg := range file.Comments {
				for _, cmt := range cg.List {
					c.auditDirective(cmt)
				}
			}
		}
	}
}

// auditDirective classifies one predlint comment that is not a
// (well-formed) ignore: dangling annotations and unknown spellings.
func (c *Context) auditDirective(cmt *ast.Comment) {
	text := directiveText(cmt.Text)
	if text == "" {
		return
	}
	word := text
	if i := strings.IndexByte(word, ' '); i >= 0 {
		word = word[:i]
	}
	switch word {
	case ignorePrefix:
		if _, ok := c.dirs.byPos[cmt.Pos()]; !ok {
			c.reportDirectivef("staleignore", "staleignore/malformed", text, cmt.Pos(),
				"malformed ignore directive: no check names, so it suppresses nothing")
		}
	case hotpathMarker:
		if !c.dirs.hotpathDocs[cmt.Pos()] {
			c.reportDirectivef("staleignore", "staleignore/dangling", text, cmt.Pos(),
				"hotpath annotation is not in a function declaration's doc comment: nothing is being checked")
		}
	case guardedbyPrefix:
		c.auditAnnotation(cmt, text, "guardedby", "a struct field")
	case ownedMarker:
		c.auditAnnotation(cmt, text, "goroutineown", "a type declaration")
	default:
		c.reportDirectivef("staleignore", "staleignore/unknown-directive", text, cmt.Pos(),
			"unknown predlint directive %q: probably a typo, certainly unenforced", word)
	}
}

// auditAnnotation flags an annotation the owning check (when it ran) did
// not consume.
func (c *Context) auditAnnotation(cmt *ast.Comment, text, check, wants string) {
	if !c.ran[check] || c.consumed[cmt.Pos()] {
		return
	}
	c.reportDirectivef("staleignore", "staleignore/dangling", text, cmt.Pos(),
		"dangling %s annotation: it must document %s, here it enforces nothing", strings.TrimPrefix(text, "predlint:"), wants)
}
