// Package machine assembles the simulated distributed shared-memory
// multiprocessor: per-node two-level cache hierarchies, a full-map
// invalidation directory with first-touch home placement, and a 2-D torus
// interconnect — the system of the paper's Table 4. Workloads issue loads
// and stores through a Machine; the Machine filters them through the caches,
// runs the coherence protocol, and produces the coherence-event trace that
// drives predictor evaluation.
package machine

import (
	"fmt"
	"math/bits"

	"cohpredict/internal/bitmap"
	"cohpredict/internal/cache"
	"cohpredict/internal/directory"
	"cohpredict/internal/topology"
	"cohpredict/internal/trace"
)

// Config describes the simulated system.
type Config struct {
	Nodes     int
	LineBytes int
	L1        cache.Config
	L2        cache.Config
	// LocalLatency and RemoteLatency (cycles) are Table 4's memory
	// latencies; they do not affect prediction metrics but parameterise
	// the data-forwarding extension's latency estimates.
	LocalLatency  int
	RemoteLatency int
	// DirPointers selects a limited-pointer Dir_i NB directory with
	// that many sharer pointers per entry; 0 means full-map (Dir_N NB).
	// Limited directories broadcast invalidations after overflow, which
	// inflates protocol traffic but — thanks to the access-bit
	// mechanism — leaves prediction feedback exact.
	DirPointers int
	// MESI enables exclusive read grants: sole-copy loads fill in
	// Exclusive state and later stores promote silently, producing no
	// prediction event (see directory/mesi.go). Off by default to match
	// the paper's accounting, where every write miss and write fault is
	// traced.
	MESI bool
}

// DefaultConfig returns the paper's system parameters (Table 4): 16 nodes,
// 16 KB direct-mapped L1 and 512 KB 4-way L2 with 64-byte lines, 52-cycle
// local and 133-cycle remote memory latency.
func DefaultConfig() Config {
	return Config{
		Nodes:         16,
		LineBytes:     64,
		L1:            cache.Config{SizeBytes: 16 << 10, LineBytes: 64, Assoc: 1},
		L2:            cache.Config{SizeBytes: 512 << 10, LineBytes: 64, Assoc: 4},
		LocalLatency:  52,
		RemoteLatency: 133,
	}
}

func (c Config) validate() error {
	if c.Nodes <= 0 || c.Nodes > bitmap.MaxNodes {
		return fmt.Errorf("machine: node count %d out of range", c.Nodes)
	}
	if c.L1.LineBytes != c.LineBytes || c.L2.LineBytes != c.LineBytes {
		return fmt.Errorf("machine: cache line sizes must equal %d", c.LineBytes)
	}
	return nil
}

// storeSite identifies a static store instruction executed by a node.
type storeSite struct {
	pid int
	pc  uint64
}

// siteSet is a set of store sites. It remembers each node's last site
// added, so a run of stores from one site touches the map only once.
type siteSet struct {
	sites map[storeSite]struct{}
	last  []uint64 // per node: the last pc added plus one (0: none yet)
}

func newSiteSet(nodes int) siteSet {
	return siteSet{sites: make(map[storeSite]struct{}), last: make([]uint64, nodes)}
}

func (s siteSet) add(pid int, pc uint64) {
	if s.last[pid] != pc+1 {
		s.last[pid] = pc + 1
		s.sites[storeSite{pid, pc}] = struct{}{}
	}
}

// perNode counts each node's distinct sites.
func (s siteSet) perNode() []int {
	n := make([]int, len(s.last))
	for site := range s.sites {
		n[site.pid]++
	}
	return n
}

// NodeStats aggregates per-node statistics for the paper's Table 5.
type NodeStats struct {
	StaticStores    int    // distinct store PCs executed (shared data only)
	PredictedStores int    // distinct store PCs that generated prediction events
	StoreMisses     uint64 // stores that reached the directory
	Loads, Stores   uint64 // accesses issued
}

// Machine is the simulated multiprocessor.
type Machine struct {
	cfg   Config
	torus *topology.Torus
	nodes []*cache.Hierarchy
	dir   *directory.Directory
	net   *topology.TrafficMeter

	perNode    []NodeStats
	staticPCs  siteSet // every store site executed
	predictPCs siteSet // the store sites that reached the directory
	finished   bool
}

// New builds a machine from the configuration. It panics on invalid
// configurations (a construction-time programming error).
func New(cfg Config) *Machine {
	if err := cfg.validate(); err != nil {
		//predlint:ignore panicfree construction-time config validation
		panic(err)
	}
	torus := topology.Square(cfg.Nodes)
	dir := directory.New(cfg.Nodes)
	if cfg.DirPointers > 0 {
		dir = directory.NewLimited(cfg.Nodes, cfg.DirPointers)
	}
	m := &Machine{
		cfg:        cfg,
		torus:      torus,
		nodes:      make([]*cache.Hierarchy, cfg.Nodes),
		dir:        dir,
		net:        topology.NewTrafficMeter(torus),
		perNode:    make([]NodeStats, cfg.Nodes),
		staticPCs:  newSiteSet(cfg.Nodes),
		predictPCs: newSiteSet(cfg.Nodes),
	}
	for i := range m.nodes {
		m.nodes[i] = cache.NewHierarchy(cfg.L1, cfg.L2)
	}
	return m
}

// Torus returns the interconnect model.
func (m *Machine) Torus() *topology.Torus { return m.torus }

// Directory exposes the directory for tests.
func (m *Machine) Directory() *directory.Directory { return m.dir }

func (m *Machine) line(addr uint64) uint64 { return addr &^ (uint64(m.cfg.LineBytes) - 1) }

func (m *Machine) checkPID(pid int) {
	if pid < 0 || pid >= m.cfg.Nodes {
		//predlint:ignore panicfree pid bounds misuse guard
		panic(fmt.Sprintf("machine: pid %d out of range [0,%d)", pid, m.cfg.Nodes))
	}
	if m.finished {
		//predlint:ignore panicfree access-after-Finish misuse guard
		panic("machine: access after Finish")
	}
}

// Load performs a load of addr by node pid. The pc identifies the static
// load site (used only for statistics; predictors key off store PCs).
//
//predlint:hotpath
func (m *Machine) Load(pid int, pc, addr uint64) {
	m.checkPID(pid)
	m.perNode[pid].Loads++
	line := m.line(addr)
	outcome, ev := m.nodes[pid].Access(line, false)
	if ev.Dirty() {
		m.net.Send(pid, m.dir.Writeback(pid, ev.Addr))
	}
	if outcome != cache.MissClean {
		return
	}
	var owner, home int
	if m.cfg.MESI {
		var exclusive bool
		owner, exclusive, home = m.dir.ReadExclusive(pid, pc, line)
		if exclusive {
			m.nodes[pid].MarkExclusive(line)
		}
	} else {
		owner, home = m.dir.Read(pid, line)
	}
	m.net.Send(pid, home) // request
	if owner >= 0 {
		m.nodes[owner].Downgrade(line)
		m.net.Send(home, owner) // intervention
		m.net.Send(owner, pid)  // data forward
	} else {
		m.net.Send(home, pid) // data reply
	}
}

// Store performs a store to addr by node pid from static store site pc.
//
//predlint:hotpath
func (m *Machine) Store(pid int, pc, addr uint64) {
	m.checkPID(pid)
	m.perNode[pid].Stores++
	m.staticPCs.add(pid, pc)
	line := m.line(addr)
	outcome, ev := m.nodes[pid].Access(line, true)
	if ev.Dirty() {
		m.net.Send(pid, m.dir.Writeback(pid, ev.Addr))
	}
	if outcome == cache.Hit {
		return
	}
	m.perNode[pid].StoreMisses++
	m.predictPCs.add(pid, pc)
	victims, home := m.dir.Write(pid, pc, line)
	m.net.Send(pid, home) // request / upgrade
	for ; !victims.IsEmpty(); victims &= victims - 1 {
		v := bits.TrailingZeros64(uint64(victims))
		m.nodes[v].Invalidate(line)
		m.net.Send(home, v) // invalidation
		m.net.Send(v, home) // acknowledgment (with access bit)
	}
	m.net.Send(home, pid) // data / exclusivity grant
}

// Finish resolves open epochs and returns the coherence-event trace. The
// machine must not be used afterwards.
func (m *Machine) Finish() *trace.Trace {
	if m.finished {
		//predlint:ignore panicfree double-Finish misuse guard
		panic("machine: Finish called twice")
	}
	m.finished = true
	return m.dir.Finish()
}

// Stats summarises machine activity.
type Stats struct {
	PerNode            []NodeStats
	Directory          directory.Stats
	NetMessages        uint64
	NetHopFlits        uint64
	MaxStaticStores    int // max over nodes (Table 5 column)
	MaxPredictedStores int
	TotalLoads         uint64
	TotalStores        uint64
	TotalStoreMisses   uint64
}

// Stats returns the current statistics. Valid after Finish (and before,
// with partially resolved Table 5 site counts).
func (m *Machine) Stats() Stats {
	s := Stats{
		PerNode:     append([]NodeStats(nil), m.perNode...),
		Directory:   m.dir.Stats(),
		NetMessages: m.net.Messages,
		NetHopFlits: m.net.HopFlits,
	}
	staticPerNode := m.staticPCs.perNode()
	predictPerNode := m.predictPCs.perNode()
	for pid := 0; pid < m.cfg.Nodes; pid++ {
		s.PerNode[pid].StaticStores = staticPerNode[pid]
		s.PerNode[pid].PredictedStores = predictPerNode[pid]
		if staticPerNode[pid] > s.MaxStaticStores {
			s.MaxStaticStores = staticPerNode[pid]
		}
		if predictPerNode[pid] > s.MaxPredictedStores {
			s.MaxPredictedStores = predictPerNode[pid]
		}
		s.TotalLoads += s.PerNode[pid].Loads
		s.TotalStores += s.PerNode[pid].Stores
		s.TotalStoreMisses += s.PerNode[pid].StoreMisses
	}
	return s
}
