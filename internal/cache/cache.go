// Package cache implements the set-associative write-back caches of the
// simulated nodes: a 16 KB direct-mapped L1 and a 512 KB 4-way L2 with 64-byte
// lines in the paper's configuration (Table 4). The caches filter the access
// stream each node presents to the directory: hits are invisible to the
// coherence protocol, misses and upgrades generate protocol transactions.
//
// Replacement is LRU within a set. Evictions of lines held in modified state
// are reported to the caller so the directory can be informed; clean
// evictions are silent, as in typical DSM protocols, which is one source of
// the "cache replacements prior to invalidation can obscure our view of the
// true sharing" effect the paper minimises with large L2s.
package cache

import "fmt"

// LineState is the local MSI state of a cached line.
type LineState uint8

const (
	// Invalid lines are absent from the cache.
	Invalid LineState = iota
	// Shared lines may be read but not written.
	Shared
	// Exclusive lines are clean sole copies (MESI): readable, and
	// writable without a coherence transaction (the write silently
	// promotes the line to Modified).
	Exclusive
	// Modified lines are owned exclusively and may be read and written.
	Modified
)

func (s LineState) String() string {
	switch s {
	case Invalid:
		return "I"
	case Shared:
		return "S"
	case Exclusive:
		return "E"
	case Modified:
		return "M"
	default:
		return fmt.Sprintf("LineState(%d)", uint8(s))
	}
}

// line is one way of a set, in 16 bytes: a 4-way set fits one 64-byte
// host cache line.
type line struct {
	// key holds the tag shifted left by two and the line's state in the
	// low two bits, so one word tells whether the way holds a block.
	key uint64
	lru uint64 // last-touch tick; larger = more recent
}

func (l *line) state() LineState { return LineState(l.key & 3) }

func (l *line) setState(s LineState) { l.key = l.key&^3 | uint64(s) }

// holds reports whether l is a valid copy of the block with this tag.
func (l *line) holds(tag uint64) bool { return l.key>>2 == tag && l.state() != Invalid }

// Config describes one cache level.
type Config struct {
	SizeBytes int
	LineBytes int
	Assoc     int
}

// Sets returns the number of sets implied by the configuration.
func (c Config) Sets() int { return c.SizeBytes / (c.LineBytes * c.Assoc) }

func (c Config) validate() error {
	if c.SizeBytes <= 0 || c.LineBytes <= 0 || c.Assoc <= 0 {
		return fmt.Errorf("cache: non-positive config %+v", c)
	}
	if c.SizeBytes%(c.LineBytes*c.Assoc) != 0 {
		return fmt.Errorf("cache: size %d not divisible by line*assoc", c.SizeBytes)
	}
	if s := c.Sets(); s&(s-1) != 0 {
		return fmt.Errorf("cache: set count %d not a power of two", s)
	}
	if l := c.LineBytes; l&(l-1) != 0 {
		return fmt.Errorf("cache: line size %d not a power of two", l)
	}
	if c.LineBytes < 4 {
		// Tags must leave the two state bits of line.key free.
		return fmt.Errorf("cache: line size %d below 4 bytes", c.LineBytes)
	}
	return nil
}

// Cache is a single-level set-associative cache indexed by block address.
// Addresses passed to its methods are byte addresses; the cache aligns them
// to lines internally.
type Cache struct {
	lines    []line // set s is lines[s*assoc : (s+1)*assoc]
	assoc    int
	setMask  uint64
	lineBits uint
	tick     uint64

	// Statistics.
	Hits, Misses, Evictions, DirtyEvictions uint64
}

// New returns an empty cache with the given configuration. It panics on an
// invalid configuration (a construction-time programming error).
func New(cfg Config) *Cache {
	if err := cfg.validate(); err != nil {
		//predlint:ignore panicfree construction-time config validation
		panic(err)
	}
	lineBits := uint(0)
	for 1<<lineBits < cfg.LineBytes {
		lineBits++
	}
	return &Cache{
		lines:    make([]line, cfg.Sets()*cfg.Assoc),
		assoc:    cfg.Assoc,
		setMask:  uint64(cfg.Sets() - 1),
		lineBits: lineBits,
	}
}

//predlint:hotpath
func (c *Cache) locate(addr uint64) (set []line, tag uint64) {
	block := addr >> c.lineBits
	i := int(block&c.setMask) * c.assoc
	return c.lines[i : i+c.assoc], block
}

// Lookup returns the state of the line containing addr without touching LRU
// state or statistics.
//
//predlint:hotpath
//predlint:ignore testonly the machine package's coherence-invariant tests read line states through it, and a test file cannot export to another package
func (c *Cache) Lookup(addr uint64) LineState {
	set, tag := c.locate(addr)
	for i := range set {
		if set[i].holds(tag) {
			return set[i].state()
		}
	}
	return Invalid
}

// Eviction describes the line a fill displaced. The zero value means the
// fill took an invalid way and displaced nothing.
type Eviction struct {
	Addr  uint64    // line-aligned address of the victim
	State LineState // victim's state; Invalid when nothing was displaced
}

// Dirty reports whether the victim was Modified, so its data must be
// written back.
func (e Eviction) Dirty() bool { return e.State == Modified }

// Access performs a load (write=false) or store (write=true) of addr.
// It returns the state the line had before the access (Invalid on a miss,
// Shared on a store upgrade, etc.) and, if a fill displaced a valid line,
// the eviction (the zero Eviction otherwise). After Access returns, the
// line is present in Shared state for loads and Modified state for stores.
//
//predlint:hotpath
func (c *Cache) Access(addr uint64, write bool) (prev LineState, ev Eviction) {
	c.tick++
	set, tag := c.locate(addr)
	for i := range set {
		if set[i].holds(tag) {
			prev = set[i].state()
			set[i].lru = c.tick
			if write {
				set[i].setState(Modified)
			}
			if prev == Modified || prev == Exclusive || (prev == Shared && !write) {
				c.Hits++ // E→M is a silent promotion (MESI)
			} else {
				c.Misses++ // upgrade: Shared line written
			}
			return prev, Eviction{}
		}
	}
	// Miss: choose victim (invalid way if any, else LRU).
	c.Misses++
	victim := 0
	for i := range set {
		if set[i].state() == Invalid {
			victim = i
			goto fill
		}
		if set[i].lru < set[victim].lru {
			victim = i
		}
	}
	if set[victim].state() != Invalid {
		c.Evictions++
		ev = Eviction{Addr: set[victim].key >> 2 << c.lineBits, State: set[victim].state()}
		if ev.Dirty() {
			c.DirtyEvictions++
		}
	}
fill:
	st := Shared
	if write {
		st = Modified
	}
	set[victim] = line{key: tag<<2 | uint64(st), lru: c.tick}
	return Invalid, ev
}

// Invalidate removes the line containing addr, returning its prior state.
func (c *Cache) Invalidate(addr uint64) LineState {
	set, tag := c.locate(addr)
	for i := range set {
		if set[i].holds(tag) {
			prev := set[i].state()
			set[i].setState(Invalid)
			return prev
		}
	}
	return Invalid
}

// Downgrade moves the line containing addr from Modified or Exclusive to
// Shared (for a remote read), returning its prior state.
func (c *Cache) Downgrade(addr uint64) LineState {
	set, tag := c.locate(addr)
	for i := range set {
		if set[i].holds(tag) {
			prev := set[i].state()
			if prev == Modified || prev == Exclusive {
				set[i].setState(Shared)
			}
			return prev
		}
	}
	return Invalid
}

// MarkExclusive promotes a Shared line to Exclusive (a MESI directory
// granted sole ownership on a read fill). Lines in other states are left
// alone.
func (c *Cache) MarkExclusive(addr uint64) {
	set, tag := c.locate(addr)
	for i := range set {
		if set[i].key == tag<<2|uint64(Shared) {
			set[i].setState(Exclusive)
			return
		}
	}
}

// Hierarchy is a two-level inclusive cache hierarchy (L1 inside L2), the
// per-node arrangement of Table 4. An access probes L1; an L1 miss probes
// L2; an L2 miss (or write to a non-Modified line) must go to the directory.
type Hierarchy struct {
	L1, L2 *Cache
}

// NewHierarchy builds a hierarchy from two configurations sharing a line
// size. It panics if the line sizes differ.
func NewHierarchy(l1, l2 Config) *Hierarchy {
	if l1.LineBytes != l2.LineBytes {
		//predlint:ignore panicfree construction-time config validation
		panic("cache: L1 and L2 line sizes differ")
	}
	return &Hierarchy{L1: New(l1), L2: New(l2)}
}

// Outcome classifies a hierarchy access for the protocol layer.
type Outcome uint8

const (
	// Hit means the access completed locally with sufficient permission.
	Hit Outcome = iota
	// MissClean means the line was absent; a directory fetch is required.
	MissClean
	// Upgrade means the line was present Shared but written; the
	// directory must invalidate other sharers but no data fetch is
	// needed.
	Upgrade
)

// Access performs a load or store against the hierarchy. The returned
// Outcome tells the protocol layer whether directory interaction is needed;
// the returned eviction (the zero Eviction if none) reports an L2 victim so
// the protocol can write back dirty lines. Inclusion is maintained: L2
// evictions invalidate L1.
//
//predlint:hotpath
func (h *Hierarchy) Access(addr uint64, write bool) (Outcome, Eviction) {
	h.L1.Access(addr, write) // L1 evictions are silent: L2 is inclusive
	// L2 sees all L1 activity in this simple inclusive model; touching it
	// on every access preserves LRU recency for inclusion.
	prev2, ev2 := h.L2.Access(addr, write)
	if ev2.State != Invalid {
		h.L1.Invalidate(ev2.Addr)
	}
	switch {
	case prev2 == Modified || prev2 == Exclusive:
		return Hit, ev2 // E→M promotes silently (MESI)
	case prev2 == Shared && !write:
		return Hit, ev2
	case prev2 == Shared && write:
		return Upgrade, ev2
	default:
		return MissClean, ev2
	}
}

// Invalidate removes the line from both levels, returning the strongest
// prior state (Modified if either level had it modified).
func (h *Hierarchy) Invalidate(addr uint64) LineState {
	s1 := h.L1.Invalidate(addr)
	s2 := h.L2.Invalidate(addr)
	switch {
	case s1 == Modified || s2 == Modified:
		return Modified
	case s1 == Exclusive || s2 == Exclusive:
		return Exclusive
	case s1 == Shared || s2 == Shared:
		return Shared
	default:
		return Invalid
	}
}

// Downgrade moves the line to Shared in both levels.
func (h *Hierarchy) Downgrade(addr uint64) {
	h.L1.Downgrade(addr)
	h.L2.Downgrade(addr)
}

// MarkExclusive promotes the line to Exclusive in both levels (after a
// MESI directory granted sole ownership on a read fill).
func (h *Hierarchy) MarkExclusive(addr uint64) {
	h.L1.MarkExclusive(addr)
	h.L2.MarkExclusive(addr)
}
