package lint

import (
	"go/ast"
	"go/token"
	"strings"
)

// directives indexes the tree's predlint comment annotations:
//
//	//predlint:ignore check1,check2 reason...
//	//predlint:hotpath
//	//predlint:guardedby mu            (struct field)
//	//predlint:owned                   (type declaration)
//
// An ignore comment suppresses the named checks on its own line and on
// the line below it, so it works both as a trailing comment and as a
// comment-above. "all" suppresses every check. The annotation markers are
// parsed by their checks from the declarations they document; directives
// only records which comment positions belong to which marker so the
// staleignore check can tell a consumed annotation from a dangling one.
type directives struct {
	// ignores[file][line] holds the ignore records guarding that line;
	// one record appears under both its own line and the next.
	ignores map[string]map[int][]*ignoreRecord
	// records lists every distinct ignore comment once, in source order
	// of discovery, for the staleignore audit.
	records []*ignoreRecord
	// byPos finds an ignore record from its comment position.
	byPos map[token.Pos]*ignoreRecord
	// hotpath holds the declaration positions of annotated functions;
	// hotpathDocs the comment positions that attached to a declaration.
	hotpath     map[token.Pos]bool
	hotpathDocs map[token.Pos]bool
}

// ignoreRecord is one //predlint:ignore comment: where it is, what it
// names, why, and whether any check consulted it this run.
type ignoreRecord struct {
	pos    token.Pos
	text   string // directive text, comment markers stripped
	checks map[string]bool
	reason string
	used   bool
}

const (
	ignorePrefix    = "predlint:ignore"
	hotpathMarker   = "predlint:hotpath"
	guardedbyPrefix = "predlint:guardedby"
	ownedMarker     = "predlint:owned"
)

func collectDirectives(root string, fset *token.FileSet, pkgs []*Package) *directives {
	d := &directives{
		ignores:     map[string]map[int][]*ignoreRecord{},
		byPos:       map[token.Pos]*ignoreRecord{},
		hotpath:     map[token.Pos]bool{},
		hotpathDocs: map[token.Pos]bool{},
	}
	for _, p := range pkgs {
		for _, f := range p.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					d.addComment(root, fset, c)
				}
			}
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Doc == nil {
					continue
				}
				for _, c := range fd.Doc.List {
					if directiveText(c.Text) == hotpathMarker {
						d.hotpath[fd.Pos()] = true
						d.hotpathDocs[c.Pos()] = true
					}
				}
			}
		}
	}
	return d
}

// directiveText strips the comment markers and leading space from a
// comment line, returning "" when it is not a predlint directive.
func directiveText(text string) string {
	text = strings.TrimPrefix(text, "//")
	text = strings.TrimSpace(text)
	if !strings.HasPrefix(text, "predlint:") {
		return ""
	}
	return text
}

func (d *directives) addComment(root string, fset *token.FileSet, c *ast.Comment) {
	text := directiveText(c.Text)
	rest, ok := strings.CutPrefix(text, ignorePrefix)
	if !ok {
		return
	}
	fields := strings.Fields(rest)
	if len(fields) == 0 {
		return // malformed: no check names; never silently suppress everything
	}
	rec := &ignoreRecord{
		pos:    c.Pos(),
		text:   text,
		checks: map[string]bool{},
		reason: strings.TrimSpace(strings.Join(fields[1:], " ")),
	}
	for _, name := range strings.Split(fields[0], ",") {
		if name = strings.TrimSpace(name); name != "" {
			rec.checks[name] = true
		}
	}
	d.records = append(d.records, rec)
	d.byPos[c.Pos()] = rec
	pos := fset.Position(c.Pos())
	file := relPath(root, pos.Filename)
	lines := d.ignores[file]
	if lines == nil {
		lines = map[int][]*ignoreRecord{}
		d.ignores[file] = lines
	}
	// The comment guards its own line (trailing form) and the next
	// (comment-above form).
	for _, line := range []int{pos.Line, pos.Line + 1} {
		lines[line] = append(lines[line], rec)
	}
}

// suppressed reports whether a finding of the given check at file:line is
// covered by an ignore comment, marking every covering record as used so
// staleignore can tell live suppressions from dead ones.
func (d *directives) suppressed(file string, line int, check string) bool {
	hit := false
	for _, rec := range d.ignores[file][line] {
		if rec.checks[check] || rec.checks["all"] {
			rec.used = true
			hit = true
		}
	}
	return hit
}

// isHotpath reports whether the function declaration carries the
// //predlint:hotpath annotation.
func (d *directives) isHotpath(fd *ast.FuncDecl) bool {
	return d.hotpath[fd.Pos()]
}
