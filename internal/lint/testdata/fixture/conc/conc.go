// Package conc is the guardedby / atomiconly fixture: one violating and
// one accepted pattern per rule.
package conc

import (
	"sync"
	"sync/atomic"
)

// Counter packs every annotation form the two checks parse.
type Counter struct {
	mu sync.Mutex
	// count and total are mu-guarded.
	count int //predlint:guardedby mu
	total int //predlint:guardedby mu

	rw   sync.RWMutex
	view int //predlint:guardedby rw

	bad int //predlint:guardedby nosuch

	hits atomic.Uint64 // auto-enrolled: sync/atomic typed

	legacy uint64 // only ever loaded through a sync/atomic function
}

// Inc is the accepted pattern: lock held on every path via defer.
func (c *Counter) Inc() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.count++
}

// View reads under RLock: accepted.
func (c *Counter) View() int {
	c.rw.RLock()
	defer c.rw.RUnlock()
	return c.view
}

// BumpView writes under RLock only: finding.
func (c *Counter) BumpView() {
	c.rw.RLock()
	c.view++
	c.rw.RUnlock()
}

// Flush misses the unlock on one branch, so the read below is not
// guarded on every path: finding.
func (c *Counter) Flush(early bool) int {
	c.mu.Lock()
	if early {
		c.mu.Unlock()
	}
	return c.count
}

// Reset writes with no lock at all: finding.
func (c *Counter) Reset() {
	c.count = 0
}

// NewCounter builds through a local value: pre-publication writes are
// exempt.
func NewCounter() *Counter {
	c := &Counter{}
	c.count = 1
	return c
}

// Mode locks on every switch arm before the access: accepted.
func (c *Counter) Mode(m int) int {
	switch m {
	case 0:
		c.mu.Lock()
	default:
		c.mu.Lock()
	}
	v := c.count
	c.mu.Unlock()
	return v
}

// WaitLock locks on every select arm before the access: accepted.
func (c *Counter) WaitLock(ch chan int) int {
	select {
	case <-ch:
		c.mu.Lock()
	case v := <-ch:
		_ = v
		c.mu.Lock()
	}
	n := c.count
	c.mu.Unlock()
	return n
}

// Sum holds the lock across the loop: accepted.
func (c *Counter) Sum(vals []int) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, v := range vals {
		c.total += v
	}
	return c.total
}

// Total reads inside a deferred literal, which runs with the lock held
// at the defer site: accepted.
func (c *Counter) Total() (t int) {
	c.mu.Lock()
	defer func() {
		t = c.total
		c.mu.Unlock()
	}()
	return 0
}

// Leak spawns a goroutine that does not inherit the caller's lock:
// finding inside the literal.
func (c *Counter) Leak() {
	c.mu.Lock()
	go func() {
		c.total++
	}()
	c.mu.Unlock()
}

// Racy keeps a deliberate unguarded read for the suppression
// round-trip.
func (c *Counter) Racy() int {
	//predlint:ignore guardedby fixture exercises the guardedby suppression round-trip
	return c.count
}

// Hit goes through the atomic's method: accepted.
func (c *Counter) Hit() {
	c.hits.Add(1)
}

// SnapshotHits copies the atomic by value: finding.
func (c *Counter) SnapshotHits() atomic.Uint64 {
	return c.hits
}

// HitsPtr leaks the atomic's address: finding.
func (c *Counter) HitsPtr() *atomic.Uint64 {
	return &c.hits
}

// ResetHits overwrites the atomic with a plain store: finding.
func (c *Counter) ResetHits() {
	c.hits = atomic.Uint64{}
}

// Legacy calls a sync/atomic package function on a plain field, which
// other code could read plainly: finding.
func (c *Counter) Legacy() uint64 {
	return atomic.LoadUint64(&c.legacy)
}

// ModeNoDefault locks on every case, but with no default the switch can
// fall through unlocked, so the read after it is unguarded: finding.
func (c *Counter) ModeNoDefault(m int) int {
	switch m {
	case 0:
		c.mu.Lock()
	case 1:
		c.mu.Lock()
	}
	v := c.count
	c.mu.Unlock()
	return v
}

// Kind locks on two arms of a type switch but not on its default, so
// the write after the switch is unguarded: finding.
func (c *Counter) Kind(v interface{}) {
	switch x := v.(type) {
	case int:
		c.mu.Lock()
		c.total += x
	case string:
		c.mu.Lock()
		c.total += len(x)
	default:
	}
	c.count++
	c.mu.Unlock()
}

// Tick holds the lock for each iteration's body only, so the post
// statement's write runs unguarded: finding.
func (c *Counter) Tick(n int) {
	for i := 0; i < n; c.count++ {
		c.mu.Lock()
		c.total += i
		i++
		c.mu.Unlock()
	}
}

// Until leaves the labeled loop with the lock released. That path never
// reaches the write after the break test, which stays guarded, but the
// read after the loop is not: finding.
func (c *Counter) Until(rows [][]int) int {
scan:
	for _, row := range rows {
		c.mu.Lock()
		for _, v := range row {
			if v < 0 {
				c.mu.Unlock()
				break scan
			}
			c.total += v
		}
		c.mu.Unlock()
	}
	return c.total
}

// Twice reads in two immediately invoked literals, which run under the
// caller's locks: the first holds mu, the second does not: finding.
func (c *Counter) Twice() int {
	c.mu.Lock()
	a := func() int { return c.count }()
	c.mu.Unlock()
	return a + func() int { return c.count }()
}

// TryWait locks on the receive but not on the default, so the read
// after the select is unguarded: finding.
func (c *Counter) TryWait(ch chan int) int {
	select {
	case <-ch:
		c.mu.Lock()
	default:
	}
	n := c.count
	c.mu.Unlock()
	return n
}

// Park blocks forever in an empty select on the arm that released the
// lock, so only locked paths reach the read: accepted.
func (c *Counter) Park(stop bool) int {
	c.mu.Lock()
	if stop {
		c.mu.Unlock()
		select {}
	}
	n := c.count
	c.mu.Unlock()
	return n
}
