package lint

// The path-sensitive checks, guardedby and goroutineown, share one
// forward interpreter. walk threads a check's facts through a function
// body: it owns the statement structure (blocks, labels, branches,
// returns, declarations, if, for, range, switch, type switch, select,
// and the way panic ends a path), and a check supplies only its facts'
// copy and join and the effects of expressions and straight-line
// statements on them.
//
// The merge rule. A path that returns, panics, branches, or blocks
// forever in an empty select ends there and constrains nothing after its
// statement; when every arm of a statement ends its path, so does the
// statement. Otherwise:
//
//   - an if joins the arms that do not end their path (a missing else is
//     an arm that changes nothing);
//   - a switch or type switch joins the clauses that do not end their
//     path, and adds its entry facts only when it has no default, since
//     it may then run no clause;
//   - a select runs exactly one case, so it joins only the cases that do
//     not end their path;
//   - a for or range loop joins its entry facts with those at the end of
//     one pass of its body, since the body may run zero times. A loop
//     never ends its path, even one with no condition: telling whether
//     it breaks is not worth the precision.

import "go/ast"

// flow is what a check supplies to walk. Facts are a mutable value that
// eval and apply change in place.
type flow[F any] interface {
	// copy returns facts that change independently of f.
	copy(f F) F
	// join merges the facts of two paths that meet.
	join(a, b F) F
	// eval applies the effects of evaluating the expressions of one
	// statement; nil expressions (an absent condition or tag) are
	// skipped.
	eval(f F, es ...ast.Expr)
	// apply applies the effects of a straight-line statement: an
	// expression, assignment, inc/dec, send, go or defer statement.
	apply(f F, s ast.Stmt)
}

// walk runs the statements in order from facts f. It returns the facts
// at their end, and whether every path through them ends before it.
func walk[F any](fl flow[F], stmts []ast.Stmt, f F) (F, bool) {
	for _, s := range stmts {
		var end bool
		if f, end = step(fl, s, f); end {
			return f, true
		}
	}
	return f, false
}

// step runs one statement; a nil statement (an absent init, post or
// else) changes nothing.
func step[F any](fl flow[F], s ast.Stmt, f F) (F, bool) {
	switch s := s.(type) {
	case nil:
		return f, false
	case *ast.BlockStmt:
		return walk(fl, s.List, f)
	case *ast.LabeledStmt:
		return step(fl, s.Stmt, f)
	case *ast.BranchStmt:
		return f, true
	case *ast.ReturnStmt:
		fl.eval(f, s.Results...)
		return f, true
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						fl.eval(f, v)
					}
				}
			}
		}
		return f, false
	case *ast.IfStmt:
		f, _ = step(fl, s.Init, f)
		fl.eval(f, s.Cond)
		var outs []F
		if out, end := walk(fl, s.Body.List, fl.copy(f)); !end {
			outs = append(outs, out)
		}
		if out, end := step(fl, s.Else, fl.copy(f)); !end {
			outs = append(outs, out)
		}
		return merge(fl, outs, f)
	case *ast.ForStmt:
		f, _ = step(fl, s.Init, f)
		fl.eval(f, s.Cond)
		out, _ := walk(fl, s.Body.List, fl.copy(f))
		out, _ = step(fl, s.Post, out)
		return fl.join(f, out), false
	case *ast.RangeStmt:
		fl.eval(f, s.X)
		out, _ := walk(fl, s.Body.List, fl.copy(f))
		return fl.join(f, out), false
	case *ast.SwitchStmt:
		f, _ = step(fl, s.Init, f)
		fl.eval(f, s.Tag)
		return clauses(fl, s.Body, f)
	case *ast.TypeSwitchStmt:
		f, _ = step(fl, s.Init, f)
		f, _ = step(fl, s.Assign, f)
		return clauses(fl, s.Body, f)
	case *ast.SelectStmt:
		var outs []F
		for _, cs := range s.Body.List {
			comm := cs.(*ast.CommClause) // the parser admits nothing else in a select
			in, _ := step(fl, comm.Comm, fl.copy(f))
			if out, end := walk(fl, comm.Body, in); !end {
				outs = append(outs, out)
			}
		}
		return merge(fl, outs, f)
	default:
		fl.apply(f, s)
		es, ok := s.(*ast.ExprStmt)
		if !ok {
			return f, false
		}
		call, ok := es.X.(*ast.CallExpr)
		return f, ok && isPanicCall(call)
	}
}

// clauses runs a switch's case clauses, each from the facts after its
// tag, and merges their exits.
func clauses[F any](fl flow[F], body *ast.BlockStmt, f F) (F, bool) {
	var outs []F
	hasDefault := false
	for _, cs := range body.List {
		clause := cs.(*ast.CaseClause) // the parser admits nothing else in a switch
		hasDefault = hasDefault || clause.List == nil
		for _, e := range clause.List {
			fl.eval(f, e)
		}
		if out, end := walk(fl, clause.Body, fl.copy(f)); !end {
			outs = append(outs, out)
		}
	}
	if !hasDefault {
		outs = append(outs, f)
	}
	return merge(fl, outs, f)
}

// merge joins the exits of the arms that did not end their path; with
// none, the statement ends its path too, and its facts stay at entry.
func merge[F any](fl flow[F], outs []F, entry F) (F, bool) {
	if len(outs) == 0 {
		return entry, true
	}
	f := outs[0]
	for _, o := range outs[1:] {
		f = fl.join(f, o)
	}
	return f, false
}

// isPanicCall recognises a direct call to the panic builtin.
func isPanicCall(call *ast.CallExpr) bool {
	id, ok := call.Fun.(*ast.Ident)
	return ok && id.Name == "panic"
}
