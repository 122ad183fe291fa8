// Package own is the goroutineown / staleignore fixture: handoff
// violations, accepted ownership patterns, and every way a predlint
// directive can rot.
package own

import (
	"sync"
	"sync/atomic"
)

// Buf is a pooled buffer with a single owner at any time.
//
//predlint:owned
type Buf struct {
	b []byte
}

var pool = sync.Pool{New: func() interface{} { return new(Buf) }}

// UseDeferred hands the buffer back at exit: accepted.
func UseDeferred() int {
	buf := pool.Get().(*Buf)
	defer pool.Put(buf)
	return len(buf.b)
}

// UseAfterPut touches the buffer after the pool owns it again: finding.
func UseAfterPut() int {
	buf := pool.Get().(*Buf)
	pool.Put(buf)
	return len(buf.b)
}

// Recycle reassigns after the handoff, installing a fresh value:
// accepted.
func Recycle() *Buf {
	buf := pool.Get().(*Buf)
	pool.Put(buf)
	buf = new(Buf)
	return buf
}

// SendThenTouch mutates the buffer after sending it away: finding.
func SendThenTouch(ch chan *Buf) {
	buf := new(Buf)
	ch <- buf
	buf.b = nil
}

// SwapThenRead reads the buffer after publishing it by Swap: finding.
func SwapThenRead(slot *atomic.Pointer[Buf]) []byte {
	buf := new(Buf)
	old := slot.Swap(buf)
	_ = old
	return buf.b
}

// MaybeRetire hands off only on a terminating branch, so the tail use is
// clean: accepted.
func MaybeRetire(done bool) *Buf {
	buf := new(Buf)
	if done {
		pool.Put(buf)
		return nil
	}
	return buf
}

// Peek keeps a deliberate read-after-put for the suppression
// round-trip.
func Peek() int {
	buf := pool.Get().(*Buf)
	pool.Put(buf)
	//predlint:ignore goroutineown fixture exercises the goroutineown suppression round-trip
	return cap(buf.b)
}

// Quiet carries a dead suppression: nothing here panics, so the ignore
// suppresses nothing and staleignore flags it.
//
//predlint:ignore panicfree fixture stale suppression for the staleignore fixture
func Quiet() {}

// NoReason carries an ignore with no reason string (also dead).
//
//predlint:ignore exhaustive
func NoReason() {}

// Typo carries an ignore naming a check that does not exist.
//
//predlint:ignore frobcheck fixture names an unknown check
func Typo() {}

// dangling carries annotations where nothing reads them and directives
// predlint does not know: a typo and the two retired kinds, handoff and
// atomic.
func dangling() {
	//predlint:owned
	//predlint:guardedby mu
	//predlint:hotpath
	//predlint:frobnicate
	//predlint:ignore
	//predlint:handoff
	//predlint:atomic
	x := 0
	_ = x
}

// Route sends the buffer on one arm of an else-if chain, so the use
// after the chain may follow the send: finding.
func Route(n int, ch chan *Buf) int {
	buf := new(Buf)
	if n < 0 {
		return 0
	} else if n == 0 {
		ch <- buf
	} else {
		buf.b = make([]byte, n)
	}
	return len(buf.b)
}

// Refill puts the buffer back and installs a fresh one on every case,
// but with no default the switch can fall through with the handed-off
// value: finding.
func Refill(n int) int {
	buf := pool.Get().(*Buf)
	pool.Put(buf)
	switch n {
	case 0:
		buf = new(Buf)
	case 1:
		buf = pool.Get().(*Buf)
	}
	return len(buf.b)
}

// Dispatch sends the buffer on one arm of a switch with a default, so
// the use after the switch may follow the send: finding.
func Dispatch(n int, ch chan *Buf) int {
	buf := new(Buf)
	switch {
	case n > 0:
		ch <- buf
	default:
		buf.b = nil
	}
	return len(buf.b)
}

// Renew puts the buffer back and installs a fresh one on every arm of a
// switch with a default, so no handed-off value reaches the use:
// accepted.
func Renew(n int) int {
	buf := pool.Get().(*Buf)
	pool.Put(buf)
	switch n {
	case 0:
		buf = new(Buf)
	default:
		buf = pool.Get().(*Buf)
	}
	return len(buf.b)
}

// Classify puts the buffer back on one arm of a type switch, so the use
// after the switch may follow the handoff: finding.
func Classify(v interface{}) int {
	buf := new(Buf)
	switch x := v.(type) {
	case int:
		buf.b = make([]byte, x)
	case string:
		pool.Put(buf)
	}
	return len(buf.b)
}

// Spin sends the buffer inside a for loop, so the use after the loop may
// follow the send: finding.
func Spin(n int, ch chan *Buf) int {
	buf := new(Buf)
	for i := 0; i < n; i++ {
		ch <- buf
	}
	return len(buf.b)
}

// Drain puts the buffer back inside a range loop, so the use after the
// loop may follow the Put: finding.
func Drain(parts [][]byte) int {
	buf := pool.Get().(*Buf)
	for _, p := range parts {
		buf.b = append(buf.b, p...)
		pool.Put(buf)
	}
	return len(buf.b)
}

// Offer sends the buffer on one case of a select, so the use after the
// select may follow the send: finding.
func Offer(ch chan *Buf, stop chan struct{}) int {
	buf := new(Buf)
	select {
	case ch <- buf:
	case <-stop:
	}
	return len(buf.b)
}

// Replace puts the buffer back and installs a fresh one on every case
// of a select, so no handed-off value reaches the use: accepted.
func Replace(fresh chan *Buf, stop chan struct{}) int {
	buf := pool.Get().(*Buf)
	pool.Put(buf)
	select {
	case buf = <-fresh:
	case <-stop:
		buf = new(Buf)
	}
	return len(buf.b)
}

// Background puts the buffer back, then starts a goroutine that reads
// it: finding inside the literal.
func Background() {
	buf := pool.Get().(*Buf)
	pool.Put(buf)
	go func() {
		_ = len(buf.b)
	}()
}

// Hand sends the buffer and leaves the labeled loop at once, so the use
// after the loop follows the send: finding.
func Hand(n int, ch chan *Buf) int {
	buf := new(Buf)
loop:
	for i := 0; i < n; i++ {
		ch <- buf
		break loop
	}
	return len(buf.b)
}
