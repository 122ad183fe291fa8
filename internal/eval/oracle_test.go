package eval

import (
	"testing"

	"cohpredict/internal/bitmap"
	"cohpredict/internal/trace"
)

// Table-driven edge cases for the ordered two-pass oracle (and the
// forwarded-update corner it is compared against in §3.4): each case is a
// tiny hand-built event list with the exact expected prediction per event,
// checked with Engine.Step so masking and scoring run exactly as in a real
// evaluation.
func TestUpdateModeEdgeCases(t *testing.T) {
	cases := []struct {
		name    string
		scheme  string
		events  []trace.Event
		want    []bitmap.Bitmap
		entries int // expected table entries after the run
	}{
		{
			// The very first write to a block: the oracle predicts from a
			// cold entry (empty), then trains retroactively with the
			// event's own future readers — so the *next* writer sees them.
			name:   "ordered first write to a block",
			scheme: "last(add8)1[ordered]",
			events: []trace.Event{
				{PID: 0, PC: 16, Dir: 0, Addr: 0x40, FutureReaders: bitmap.New(2, 3)},
				{PID: 1, PC: 16, Dir: 0, Addr: 0x40, HasPrev: true, PrevPID: 0, PrevPC: 16,
					InvReaders: bitmap.New(2, 3), FutureReaders: bitmap.New(0)},
			},
			want:    []bitmap.Bitmap{bitmap.Empty, bitmap.New(2, 3)},
			entries: 1,
		},
		{
			// Back-to-back writes by the same node: the second write
			// predicts the future readers the first just trained; the
			// third write (by a predicted node) shows the self-mask —
			// node 7 is predicted-for but never told to forward to itself.
			name:   "ordered back-to-back writes by one node",
			scheme: "last(add8)1[ordered]",
			events: []trace.Event{
				{PID: 5, PC: 16, Dir: 0, Addr: 0x80, FutureReaders: bitmap.New(1, 2)},
				{PID: 5, PC: 16, Dir: 0, Addr: 0x80, HasPrev: true, PrevPID: 5, PrevPC: 16,
					InvReaders: bitmap.New(1, 2), FutureReaders: bitmap.New(7)},
				{PID: 7, PC: 16, Dir: 0, Addr: 0x80, HasPrev: true, PrevPID: 5, PrevPC: 16,
					InvReaders: bitmap.New(7), FutureReaders: bitmap.Empty},
			},
			want:    []bitmap.Bitmap{bitmap.Empty, bitmap.New(1, 2), bitmap.Empty},
			entries: 1,
		},
		{
			// A forwarded update whose destination entry is never
			// predicted again: node 0's entry receives the feedback for
			// the epoch it closed, but node 0 never writes again, so the
			// training is observationally dead — every later prediction
			// comes from other entries, all still cold.
			name:   "forwarded update to a never-again-predicted entry",
			scheme: "last(pid+pc8)1[forwarded]",
			events: []trace.Event{
				{PID: 0, PC: 20, Dir: 0, Addr: 0x40, FutureReaders: bitmap.New(4)},
				{PID: 1, PC: 30, Dir: 0, Addr: 0x40, HasPrev: true, PrevPID: 0, PrevPC: 20,
					InvReaders: bitmap.New(4), FutureReaders: bitmap.New(2)},
				{PID: 2, PC: 30, Dir: 0, Addr: 0x40, HasPrev: true, PrevPID: 1, PrevPC: 30,
					InvReaders: bitmap.New(2), FutureReaders: bitmap.Empty},
			},
			// Event 1 predicts from (pid=1,pc=30): cold. Event 2 predicts
			// from (pid=2,pc=30): also cold — (0,20)'s training is dead.
			want:    []bitmap.Bitmap{bitmap.Empty, bitmap.Empty, bitmap.Empty},
			entries: 2, // (0,20) and (1,30) were trained; (2,30) never was
		},
		{
			// Contrast case: under ordered update the same never-writes-
			// again pattern is NOT dead — the oracle trains the *current*
			// entry, so event 2's prediction sees event 1's future reader.
			name:   "ordered trains the current entry, not the closed one",
			scheme: "last(pid+pc8)1[ordered]",
			events: []trace.Event{
				{PID: 0, PC: 20, Dir: 0, Addr: 0x40, FutureReaders: bitmap.New(4)},
				{PID: 1, PC: 30, Dir: 0, Addr: 0x40, HasPrev: true, PrevPID: 0, PrevPC: 20,
					InvReaders: bitmap.New(4), FutureReaders: bitmap.New(2)},
				{PID: 1, PC: 30, Dir: 0, Addr: 0x40, HasPrev: true, PrevPID: 1, PrevPC: 30,
					InvReaders: bitmap.New(2), FutureReaders: bitmap.Empty},
			},
			want:    []bitmap.Bitmap{bitmap.Empty, bitmap.Empty, bitmap.New(2)},
			entries: 2,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			eng := NewEngine(mustParse(t, tc.scheme), m16)
			for i, ev := range tc.events {
				if got := eng.Step(ev); got != tc.want[i] {
					t.Fatalf("event %d: predicted %v, want %v", i, got, tc.want[i])
				}
			}
			if got := eng.table.Entries(); got != tc.entries {
				t.Fatalf("table holds %d entries, want %d", got, tc.entries)
			}
		})
	}
}
