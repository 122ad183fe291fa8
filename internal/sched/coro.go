//go:build go1.23

// The build line above raises this file's language version to go1.23, the
// first with iter.Pull, while go.mod stays at go 1.22: the benchmark module
// in _perfbench requires this one and says go 1.22, and a higher version
// here would stop its build. Delete the line when both go.mod files move
// to go 1.23.

package sched

import "iter"

// start makes t's body a coroutine: t.resume runs it and t.suspend
// suspends it. The coroutine runs finish once the body returns; a panic in
// the body propagates out of t.resume.
func (t *Thread) start(body func(*Thread)) {
	t.resume, _ = iter.Pull(func(yield func(struct{}) bool) {
		t.suspend = yield
		body(t)
		t.finish()
	})
}
