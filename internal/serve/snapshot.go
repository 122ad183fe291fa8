package serve

import (
	"errors"
	"fmt"

	"cohpredict/internal/eval"
)

// Session snapshots ride on the eval snapshot codec: the engine state
// (scheme, machine, tables, tallies) uses eval.EncodeSnapshot's canonical
// wire form, and the serving-layer state — tuning and the idempotency
// cache — is packed into its opaque Extra section by the helpers here, in
// the same canonical uvarint style. A cache entry is its key followed by
// its reply frame's tail (the count, then the predictions), copied
// verbatim both ways: the layout version 1 has always had. The tuning
// still carries the retired flush deadline's slot, in nanoseconds: live
// sessions write 0, and a decoded section keeps what it read so it
// re-encodes byte for byte.

// sessionExtraVersion versions the Extra section layout.
const sessionExtraVersion = 1

// SessionTuning is the restorable performance configuration of a session
// (everything in SessionConfig that does not affect results).
type SessionTuning struct {
	Shards     int
	BatchSize  int
	MaxPending int
}

type idemItem struct {
	key   string
	frame []byte
}

type sessionExtra struct {
	tuning SessionTuning
	flush  uint64 // the retired flush slot, ignored on restore
	idem   []idemItem
}

var (
	errExtraTruncated  = errors.New("serve: snapshot extra section truncated")
	errExtraNonMinimal = errors.New("serve: snapshot extra section has a non-minimal varint")
)

// encodeSessionExtra packs the session's tuning and completed idempotency
// entries. Quiescence guarantees every successfully admitted batch's entry
// is complete before this runs, but a PostKeyed racing the snapshot can
// register its entry and only then fail admission with ErrSnapshotting —
// such an entry is still open (or carries an error) while we hold idemMu
// and is skipped: baking it into the snapshot would make the restored
// session answer a replay of the key with zero predictions and the batch
// would silently never train.
func encodeSessionExtra(s *Session) []byte {
	x := sessionExtra{tuning: SessionTuning{
		Shards: s.cfg.Shards, BatchSize: s.cfg.BatchSize, MaxPending: s.cfg.MaxPending,
	}}
	s.idemMu.Lock()
	for _, k := range s.idemOrder {
		if e := s.idem[k]; e.completed() && e.err == nil {
			x.idem = append(x.idem, idemItem{key: k, frame: e.frame})
		}
	}
	s.idemMu.Unlock()
	return x.encode()
}

// encode writes the section. A completed entry's frame is never written
// again, so it is safe to read without idemMu.
func (x *sessionExtra) encode() []byte {
	b := eval.AppendUvarint(nil, sessionExtraVersion)
	b = eval.AppendUvarint(b, uint64(x.tuning.Shards))
	b = eval.AppendUvarint(b, uint64(x.tuning.BatchSize))
	b = eval.AppendUvarint(b, x.flush)
	b = eval.AppendUvarint(b, uint64(x.tuning.MaxPending))
	b = eval.AppendUvarint(b, uint64(len(x.idem)))
	for _, it := range x.idem {
		b = eval.AppendUvarint(b, uint64(len(it.key)))
		b = append(b, it.key...)
		b = append(b, it.frame[wireHeaderLen:]...)
	}
	return b
}

// decodeSessionExtra unpacks an Extra section. An empty section yields
// zero tuning (NewSession fills the defaults) and no cache — a snapshot
// produced outside the serving layer restores cleanly. Like every other
// decoder in the repo it accepts only canonical uvarints, so an accepted
// section re-encodes byte for byte, and no count makes it allocate more
// than the bytes behind the count can fill.
func decodeSessionExtra(data []byte) (*sessionExtra, error) {
	x := &sessionExtra{}
	if len(data) == 0 {
		return x, nil
	}
	r := &extraReader{b: data}
	if v := r.uvarint(); r.err == nil && v != sessionExtraVersion {
		return nil, fmt.Errorf("serve: snapshot extra version %d not supported", v)
	}
	x.tuning.Shards = int(r.uvarint())
	x.tuning.BatchSize = int(r.uvarint())
	x.flush = r.uvarint()
	x.tuning.MaxPending = int(r.uvarint())
	n := r.uvarint()
	if r.err != nil {
		return nil, r.err
	}
	if n > maxIdemKeys {
		return nil, fmt.Errorf("serve: snapshot idempotency cache of %d keys exceeds limit %d", n, maxIdemKeys)
	}
	// An entry takes at least three bytes: key length, key, count.
	if n > uint64(len(r.b))/3 {
		return nil, errExtraTruncated
	}
	seen := make(map[string]bool, n)
	x.idem = make([]idemItem, 0, n)
	for i := uint64(0); i < n; i++ {
		kl := r.uvarint()
		if r.err != nil {
			return nil, r.err
		}
		if kl == 0 || kl > maxIdemKeyLen {
			return nil, fmt.Errorf("serve: snapshot idempotency key length %d out of range [1,%d]", kl, maxIdemKeyLen)
		}
		key := r.bytes(int(kl))
		frame := r.replyFrame()
		if r.err != nil {
			return nil, r.err
		}
		if seen[string(key)] {
			return nil, fmt.Errorf("serve: snapshot idempotency key %q duplicated", key)
		}
		seen[string(key)] = true
		x.idem = append(x.idem, idemItem{key: string(key), frame: frame})
	}
	if len(r.b) != 0 {
		return nil, fmt.Errorf("serve: snapshot extra section has %d trailing bytes", len(r.b))
	}
	return x, nil
}

type extraReader struct {
	b   []byte
	err error
}

func (r *extraReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n, ok := eval.Uvarint(r.b)
	switch {
	case n == 0:
		r.err = errExtraTruncated
		return 0
	case !ok:
		r.err = errExtraNonMinimal
		return 0
	}
	r.b = r.b[n:]
	return v
}

func (r *extraReader) bytes(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n > len(r.b) {
		r.err = errExtraTruncated
		return nil
	}
	out := r.b[:n]
	r.b = r.b[n:]
	return out
}

// replyFrame reads one entry's frame tail — a count, then that many
// predictions — and returns the reply frame it belongs to, built with one
// allocation once every prediction has been read, so a count the section
// does not back allocates nothing.
func (r *extraReader) replyFrame() []byte {
	tail := r.b
	np := r.uvarint()
	if r.err != nil {
		return nil
	}
	if np > MaxBatchEvents {
		r.err = fmt.Errorf("serve: snapshot idempotency entry of %d predictions exceeds limit %d", np, MaxBatchEvents)
		return nil
	}
	for j := uint64(0); j < np && r.err == nil; j++ {
		r.uvarint()
	}
	if r.err != nil {
		return nil
	}
	tail = tail[:len(tail)-len(r.b)]
	frame := make([]byte, wireHeaderLen+len(tail))
	copy(frame, wireMagic)
	frame[len(wireMagic)] = wireKindReply
	copy(frame[wireHeaderLen:], tail)
	return frame
}
