package serve

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"strings"

	"cohpredict/internal/codec"
	"cohpredict/internal/eval"
	"cohpredict/internal/fault"
)

// Session snapshots are COHSNAP1 (internal/eval): the engine state —
// scheme, machine, the table's entries in key order, tallies — then the
// serving-layer state, tuning and the idempotency cache, packed into the
// opaque Extra section by the helpers here. A GET writes the whole
// snapshot into one buffer: eval.AppendSnapshot writes each entry
// straight from the table, and the section follows in place. A PUT reads
// the section's cached replies into one buffer and their keys into one
// string, then imports the entries straight into the new session's
// table.
//
// A cache entry is its key followed by its reply frame's tail (the
// count, then the predictions), copied verbatim both ways: the layout
// version 1 has always had. An acknowledged entry is its key followed by
// ackedCount where the count would be, and nothing more; a section with
// none is version 1's bytes, and a decoder that predates them refuses
// one as a count out of range. The tuning still carries the retired
// flush deadline's slot, in nanoseconds: live sessions write 0, and a
// decoded section keeps what it read so it re-encodes byte for byte. Its
// shards word is range-checked on restore and otherwise ignored: live
// sessions write 1.

// sessionExtraVersion versions the Extra section layout.
const sessionExtraVersion = 1

// ackedCount stands in an acknowledged entry's count: one more than any
// reply can hold.
const ackedCount = MaxBatchEvents + 1

// ackedTail is an acknowledged entry's tail.
var ackedTail = codec.AppendUvarint(nil, ackedCount)

// MaxSnapshotBytes bounds a snapshot body: the one limit a backend's
// snapshot PUT reads with and the router ships and migrates with, so a
// snapshot one node writes is one any node restores.
const MaxSnapshotBytes = 64 << 20

// maxExtraHead bounds the section's head: its version, the four tuning
// words and the cache count, six uvarints.
const maxExtraHead = 6 * 10

// SessionTuning is the restorable performance configuration of a session
// (everything in SessionConfig that does not affect results). Shards is
// range-checked and written as 1, and BatchSize is only kept.
type SessionTuning struct {
	Shards     int
	BatchSize  int
	MaxPending int
}

// sessionExtra is a decoded Extra section: the tuning, the retired flush
// slot, and the idempotency cache, ready to install in a session.
type sessionExtra struct {
	tuning SessionTuning
	flush  uint64 // the retired flush slot, ignored on restore
	idem   map[string]*idemEntry
	order  []string
}

// closedDone is the done channel of every restored cache entry, which is
// complete from the start.
var closedDone = func() chan struct{} {
	c := make(chan struct{})
	close(c)
	return c
}()

// AppendSnapshot appends the session's COHSNAP1 snapshot to dst —
// scheme, machine, table, tallies, tuning, and the idempotency cache —
// under the table lock, so it falls between two posts. The snapshot
// restores (Server.RestoreSnapshot) into a session whose future
// predictions and stats are byte-identical to this one's.
func (s *Session) AppendSnapshot(dst []byte) ([]byte, error) {
	s.tableMu.Lock()
	defer s.tableMu.Unlock()
	if s.eng.fail != nil {
		return nil, s.eng.fail
	}
	hdr := eval.Snapshot{
		Scheme:  s.cfg.Scheme,
		Machine: s.cfg.Machine,
		Events:  s.baseEvents + s.eng.events,
		Conf:    s.baseConf,
	}
	hdr.Conf.Merge(s.eng.conf)
	tuning := SessionTuning{Shards: s.cfg.Shards, BatchSize: s.cfg.BatchSize, MaxPending: s.cfg.MaxPending}

	// The section's length precedes it, so the cache is measured first;
	// idemMu is held until it is written, so both walks see one cache.
	s.idemMu.Lock()
	defer s.idemMu.Unlock()
	n, size := idemSize(s.idemOrder, s.idem)
	var head [maxExtraHead]byte
	h := appendExtraHead(head[:0], tuning, 0, n)
	dst = eval.AppendSnapshot(dst, &hdr, len(h)+size, s.eng.table)
	dst = appendIdem(append(dst, h...), s.idemOrder, s.idem)
	s.om.snapshots.Inc()
	return dst, nil
}

// appendExtraHead appends the section's head: version, tuning, the flush
// slot, and the count of cache entries that follow.
func appendExtraHead(b []byte, t SessionTuning, flush uint64, n int) []byte {
	b = codec.AppendUvarint(b, sessionExtraVersion)
	b = codec.AppendUvarint(b, uint64(t.Shards))
	b = codec.AppendUvarint(b, uint64(t.BatchSize))
	b = codec.AppendUvarint(b, flush)
	b = codec.AppendUvarint(b, uint64(t.MaxPending))
	return codec.AppendUvarint(b, uint64(n))
}

// snapshotted reports whether a cache entry belongs in a snapshot: only a
// completed, successful one. A keyed post completes its entry before it
// releases the table lock, and AppendSnapshot holds that lock, so the
// entries it takes are exactly the keyed posts whose events its table
// holds. An entry still open belongs to a post that has not trained (or
// never will), and one with an error trained nothing either: baking
// either into the snapshot would make the restored session answer a
// replay of the key with zero predictions, and the batch would silently
// never train. Under the lock an open entry can only go on to fail, so
// two walks of one cache agree on which entries they take.
func snapshotted(e *idemEntry) bool { return e.completed() && e.err == nil }

// idemTail returns what follows a snapshotted entry's key in the
// section: its reply frame's tail, or ackedTail once it is acknowledged.
// The caller holds idemMu.
func idemTail(e *idemEntry) []byte {
	if e.frame == nil {
		return ackedTail
	}
	return e.frame[wireHeaderLen:]
}

// idemSize returns how many of the cache's entries a snapshot takes, and
// the bytes they fill in the section. The caller holds idemMu.
func idemSize(order []string, idem map[string]*idemEntry) (n, size int) {
	for _, k := range order {
		if e := idem[k]; snapshotted(e) {
			n++
			size += codec.UvarintLen(uint64(len(k))) + len(k) + len(idemTail(e))
		}
	}
	return n, size
}

// appendIdem appends the entries idemSize counts, in cache order, under
// the same idemMu hold.
func appendIdem(b []byte, order []string, idem map[string]*idemEntry) []byte {
	for _, k := range order {
		if e := idem[k]; snapshotted(e) {
			b = codec.AppendUvarint(b, uint64(len(k)))
			b = append(b, k...)
			b = append(b, idemTail(e)...)
		}
	}
	return b
}

// decodeSessionExtra unpacks an Extra section. An empty section yields
// zero tuning (NewSession fills the defaults) and no cache — a snapshot
// produced outside the serving layer restores cleanly. Like every other
// decoder in the repo it accepts only canonical uvarints, so an accepted
// section re-encodes byte for byte, and no count makes it allocate more
// than the bytes behind the count can fill.
//
// A first pass checks every entry and measures the keys and frames, and
// then that no key repeats, in place; without cache that is all, and the
// section comes back with its tuning alone, as a dormant restore needs
// it. The second pass copies the keys into one string and the frames
// into one buffer and builds the cache over them, so a restore allocates
// the same few times however many replies it carries. Those backing
// stores live until the last restored entry is evicted.
func decodeSessionExtra(data []byte, cache bool) (*sessionExtra, error) {
	x := &sessionExtra{}
	if len(data) == 0 {
		return x, nil
	}
	r := codec.NewReader(data)
	if v := r.Uvarint(); r.Err() == nil && v != sessionExtraVersion {
		return nil, fmt.Errorf("serve: snapshot extra version %d not supported", v)
	}
	x.tuning.Shards = int(r.Uvarint())
	x.tuning.BatchSize = int(r.Uvarint())
	x.flush = r.Uvarint()
	x.tuning.MaxPending = int(r.Uvarint())
	// An entry takes at least three bytes: key length, key, count.
	n := r.Count(maxIdemKeys, 3)
	items := r.Rest()
	var tails [maxIdemKeys]int // each entry's frame tail length, 0 once acknowledged
	var keys [maxIdemKeys][]byte
	keyBytes, frameBytes := 0, 0
	for i := 0; i < n; i++ {
		key := r.Bytes(maxIdemKeyLen)
		keys[i] = key
		tail := r.Rest()
		if bytes.HasPrefix(tail, ackedTail) {
			r.Uvarint()
		} else {
			r.SkipUvarints(r.Count(MaxBatchEvents, 1)) // the count, then the predictions
			tails[i] = len(tail) - len(r.Rest())
		}
		if r.Err() != nil {
			break
		}
		if len(key) == 0 {
			return nil, errors.New("serve: snapshot idempotency key is empty")
		}
		keyBytes += len(key)
		if tails[i] > 0 {
			frameBytes += wireHeaderLen + tails[i]
		}
	}
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("serve: snapshot extra section: %w", err)
	}
	sorted := keys[:n]
	slices.SortFunc(sorted, bytes.Compare)
	for i := 1; i < n; i++ {
		if bytes.Equal(sorted[i], sorted[i-1]) {
			return nil, fmt.Errorf("serve: snapshot idempotency key %q duplicated", sorted[i])
		}
	}
	if !cache {
		return x, nil
	}

	var keyStore strings.Builder
	keyStore.Grow(keyBytes) // never outgrown, so earlier keys stay valid
	frames := make([]byte, 0, frameBytes)
	entries := make([]idemEntry, n)
	x.idem = make(map[string]*idemEntry, n)
	x.order = make([]string, n)
	for i := range entries {
		kl, k, _ := codec.Uvarint(items) // checked above
		start := keyStore.Len()
		keyStore.Write(items[k : k+int(kl)])
		key := keyStore.String()[start:]
		items = items[k+int(kl):]
		entries[i] = idemEntry{done: closedDone}
		if tails[i] == 0 {
			items = items[len(ackedTail):]
		} else {
			f := len(frames)
			frames = append(frames, wireMagic...)
			frames = append(frames, wireKindReply)
			frames = append(frames, items[:tails[i]]...)
			items = items[tails[i]:]
			entries[i].frame = frames[f:len(frames):len(frames)]
		}
		x.idem[key] = &entries[i]
		x.order[i] = key
	}
	return x, nil
}

// newDormantSession restores a session from a decoded snapshot without
// building it. It checks everything a restore must: the tuning (shards,
// batch size, max pending) that the snapshot's Extra section carries,
// with shards, when non-nil, in place of its shards word; the
// idempotency cache in that section; and every entry, without a table.
// The session takes the snapshot's tallies and keeps an exact-size copy
// of data, the snapshot's bytes, until its first use builds it (wake).
func newDormantSession(id string, data []byte, snap *eval.Snapshot, shards *int, flt *fault.Injector, rec EventRecorder, om *serveMetrics) (*Session, error) {
	cfg, err := restoredConfig(snap, shards, flt, rec)
	if err != nil {
		return nil, err
	}
	if err := snap.Check(); err != nil {
		return nil, err
	}
	s := newSession(id, cfg, om)
	s.baseConf, s.baseEvents = snap.Conf, snap.Events
	s.snap = make([]byte, len(data))
	copy(s.snap, data)
	s.om.dormant(1, len(s.snap))
	return s, nil
}

// restoredConfig returns the checked config of a session restored from
// snap: its scheme and machine, the tuning its Extra section carries,
// and shards, when non-nil, checked in place of its shards word. It
// checks the whole section, idempotency cache included, without building
// the cache.
func restoredConfig(snap *eval.Snapshot, shards *int, flt *fault.Injector, rec EventRecorder) (SessionConfig, error) {
	extra, err := decodeSessionExtra(snap.Extra, false)
	if err != nil {
		return SessionConfig{}, err
	}
	cfg := SessionConfig{
		Scheme:     snap.Scheme,
		Machine:    snap.Machine,
		Shards:     extra.tuning.Shards,
		BatchSize:  extra.tuning.BatchSize,
		MaxPending: extra.tuning.MaxPending,
		Fault:      flt,
		Record:     rec,
	}
	if shards != nil {
		cfg.Shards = *shards
	}
	if err := cfg.fillDefaults(); err != nil {
		return SessionConfig{}, err
	}
	return cfg, nil
}
