package lib

import "fmt"

// The testonly cases: lib is the fixture's only library package, so its
// exported surface is what the check audits.

// Used is called from the fixture's main package (not flagged).
func Used() {}

// Unused is referenced by no non-test file (flagged).
func Unused() {}

// Level is used by the main package, which prints it.
type Level int

// String is called by no file, but Level implements fmt.Stringer, the
// interface fmt reaches it through (not flagged).
func (l Level) String() string { return fmt.Sprintf("level %d", int(l)) }

// Undo is an exported method no file calls and no interface declares
// (flagged).
func (l Level) Undo() Level { return l - 1 }

// Kept is unreferenced but kept on purpose (counted as suppressed).
//
//predlint:ignore testonly fixture surface kept on purpose
func Kept() {}
