package serve

import (
	"math/bits"

	"cohpredict/internal/core"
	"cohpredict/internal/trace"
)

// Router assigns events to shards so each shard owns a disjoint partition
// of the predictor key space and every event's table touches stay inside
// one shard. Two facts make that possible:
//
//   - Keyer.Key packs the addr field into the low bits, then pc, then
//     dir, then pid (see core/index.go). The bits contributed by dir and
//     addr therefore occupy fixed positions, extractable with a mask.
//
//   - The only event that touches two keys is a forwarded-update train:
//     it trains the previous writer's key, which differs from the current
//     key in the pid/pc fields only — the dir and addr fields come from
//     the event itself and are identical in both keys.
//
// Routing on the dir+addr component of the packed key therefore sends the
// current and previous keys of any event to the same shard, and events
// with equal full keys always co-locate (the component is a pure function
// of the key). Per-shard FIFO processing then preserves the serial
// train/predict order of every entry, which is the whole determinism
// argument: served predictions are byte-identical to eval.Evaluate at any
// shard count.
//
// Two degenerate cases are handled at construction:
//
//   - Sticky-spatial schemes predict from addr±1 neighbour entries, so a
//     partition by key would split a prediction's reads across shards;
//     sticky sessions run on a single shard.
//   - An index using neither dir nor addr has an empty routing component;
//     every event routes to shard 0 (no table parallelism exists for such
//     an index anyway — all its keys collide under any correct routing).
type Router struct {
	keyer  core.Keyer
	mask   uint64
	shards int
}

// RouteMask returns the bits of a packed index key contributed by the dir
// and addr fields: the key of an event whose dir and addr bits are all set
// and whose pid and pc are zero.
func RouteMask(idx core.IndexSpec, m core.Machine) uint64 {
	k := idx.Keyer(m)
	return k.Key(0, 0, uint8(1<<m.NodeBits()-1), ^uint64(0))
}

// NewRouter builds a router for the scheme on machine m with the requested
// shard count. Shard counts below one are clamped to one; sticky schemes
// are forced to a single shard (spatial prediction reads neighbour keys).
func NewRouter(s core.Scheme, m core.Machine, shards int) *Router {
	if shards < 1 {
		shards = 1
	}
	if s.Fn == core.Sticky {
		return &Router{keyer: s.Index.Keyer(m), mask: 0, shards: 1}
	}
	return &Router{keyer: s.Index.Keyer(m), mask: RouteMask(s.Index, m), shards: shards}
}

// Shards returns the effective shard count.
func (r *Router) Shards() int { return r.shards }

// mix64 is the splitmix64 finalizer: a fixed, stage-free integer hash so
// shard assignment is deterministic across runs and processes.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e9b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Route returns the shard owning the given packed index key: the hash
// scaled to the shard count, the high word of their product, which
// spreads as evenly as a remainder without a division.
func (r *Router) Route(key uint64) int {
	if r.shards == 1 {
		return 0
	}
	k, _ := bits.Mul64(mix64(key&r.mask), uint64(r.shards))
	return int(k)
}

// RouteEvent returns the shard that must process the event (the shard of
// its current-writer key; the previous-writer key co-locates by
// construction).
func (r *Router) RouteEvent(ev *trace.Event) int {
	return r.Route(r.keyer.Key(ev.PID, ev.PC, ev.Dir, ev.Addr))
}
