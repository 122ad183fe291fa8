package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"cohpredict/internal/bitmap"
)

// The per-node PAs and sticky entries that FlatTable's bit planes replace,
// kept as the reference the planes are checked against. They are the
// scalar definitions of the paper's two-level adaptive predictor and of
// Bilir et al.'s sticky mask, one node at a time.

// refPAS is one PAs entry: per node, a history register of depth bits and
// a pattern table of 2^depth two-bit saturating counters.
type refPAS struct {
	depth   int
	nodes   int
	hist    []uint8 // per-node history register
	counter []uint8 // nodes × 2^depth two-bit counters
}

func newRefPAS(nodes, depth int) *refPAS {
	return &refPAS{depth: depth, nodes: nodes,
		hist: make([]uint8, nodes), counter: make([]uint8, nodes<<uint(depth))}
}

func (e *refPAS) Predict() bitmap.Bitmap {
	var b bitmap.Bitmap
	size := 1 << e.depth
	for n := 0; n < e.nodes; n++ {
		if e.counter[n*size+int(e.hist[n])] >= 2 {
			b = b.Set(n)
		}
	}
	return b
}

func (e *refPAS) Train(feedback bitmap.Bitmap) {
	size := 1 << e.depth
	mask := uint8(size - 1)
	for n := 0; n < e.nodes; n++ {
		idx := n*size + int(e.hist[n])
		if feedback.Has(n) {
			if e.counter[idx] < 3 {
				e.counter[idx]++
			}
			e.hist[n] = ((e.hist[n] << 1) | 1) & mask
		} else {
			if e.counter[idx] > 0 {
				e.counter[idx]--
			}
			e.hist[n] = (e.hist[n] << 1) & mask
		}
	}
}

// words is the entry's exported form (see AppendEntries).
func (e *refPAS) words() []uint64 {
	w := []uint64{uint64(e.depth), uint64(e.nodes)}
	for _, h := range e.hist {
		w = append(w, uint64(h))
	}
	for _, c := range e.counter {
		w = append(w, uint64(c))
	}
	return w
}

// refSticky is one sticky entry: a reader mask and a strike counter per
// node.
type refSticky struct {
	mask    bitmap.Bitmap
	strikes [bitmap.MaxNodes]uint8
	trained bool
}

func (e *refSticky) Train(feedback bitmap.Bitmap, nodes int) {
	e.trained = true
	for n := 0; n < nodes; n++ {
		switch {
		case feedback.Has(n):
			e.mask = e.mask.Set(n)
			e.strikes[n] = 0
		case e.mask.Has(n):
			e.strikes[n]++
			if e.strikes[n] >= StickyStrikes {
				e.mask = e.mask.Clear(n)
				e.strikes[n] = 0
			}
		}
	}
}

func (e *refSticky) words(nodes int) []uint64 {
	var trained uint64
	if e.trained {
		trained = 1
	}
	w := []uint64{uint64(e.mask), trained}
	for n := 0; n < nodes; n++ {
		w = append(w, uint64(e.strikes[n]))
	}
	return w
}

// randomFeedback sets each of the machine's nodes with the given
// probability.
func randomFeedback(rng *rand.Rand, nodes int, density float64) bitmap.Bitmap {
	var b bitmap.Bitmap
	for n := 0; n < nodes; n++ {
		if rng.Float64() < density {
			b = b.Set(n)
		}
	}
	return b
}

var (
	refNodes     = []int{1, 4, 16, 64}
	refDensities = []float64{0.06, 0.25, 1}
)

// TestPASPlanesMatchReference drives the bit-sliced PAs table and the
// per-node reference with the same random feedback, and compares every
// prediction and the exported words after every step.
func TestPASPlanesMatchReference(t *testing.T) {
	for _, nodes := range refNodes {
		for depth := 1; depth <= MaxDepth; depth++ {
			for _, density := range refDensities {
				t.Run(fmt.Sprintf("n%d/d%d/p%v", nodes, depth, density), func(t *testing.T) {
					m := Machine{Nodes: nodes, LineBytes: 64}
					tab := NewTable(Scheme{Fn: PAs, Index: IndexSpec{AddrBits: 2}, Depth: depth}, m)
					ref := map[uint64]*refPAS{}
					rng := rand.New(rand.NewSource(int64(nodes*100 + depth)))
					for step := 0; step < 400; step++ {
						key := uint64(rng.Intn(4))
						fb := randomFeedback(rng, nodes, density)
						if ref[key] == nil {
							ref[key] = newRefPAS(nodes, depth)
						}
						ref[key].Train(fb)
						tab.Train(key, fb)
						if got, want := tab.Predict(key), ref[key].Predict(); got != want {
							t.Fatalf("step %d key %d: Predict %v, reference %v", step, key, got, want)
						}
						if got, want := entryWords(t, tab, key), ref[key].words(); !slices.Equal(got, want) {
							t.Fatalf("step %d key %d: words %v, reference %v", step, key, got, want)
						}
					}
				})
			}
		}
	}
}

// TestStickyPlanesMatchReference does the same for the sticky table: the
// strike plane against per-node strike counters, and the spatial
// prediction against the OR of the reference masks.
func TestStickyPlanesMatchReference(t *testing.T) {
	for _, nodes := range refNodes {
		for _, density := range refDensities {
			t.Run(fmt.Sprintf("n%d/p%v", nodes, density), func(t *testing.T) {
				m := Machine{Nodes: nodes, LineBytes: 64}
				tab := NewTable(Scheme{Fn: Sticky, Index: IndexSpec{AddrBits: 3}, Depth: 1}, m)
				ref := map[uint64]*refSticky{}
				rng := rand.New(rand.NewSource(int64(nodes)))
				for step := 0; step < 400; step++ {
					key := uint64(rng.Intn(8))
					fb := randomFeedback(rng, nodes, density)
					if ref[key] == nil {
						ref[key] = &refSticky{}
					}
					ref[key].Train(fb, nodes)
					tab.Train(key, fb)
					checkStickyAgainst(t, tab, ref, nodes, step)
				}
			})
		}
	}
}

// checkStickyAgainst compares every key's prediction and exported words
// with the reference.
func checkStickyAgainst(t *testing.T, tab *FlatTable, ref map[uint64]*refSticky, nodes, step int) {
	t.Helper()
	for key := uint64(0); key < 8; key++ {
		var want bitmap.Bitmap
		for _, k := range []uint64{(key + 7) % 8, key, (key + 1) % 8} {
			if e := ref[k]; e != nil {
				want |= e.mask
			}
		}
		if got := tab.Predict(key); got != want {
			t.Fatalf("step %d key %d: Predict %v, reference %v", step, key, got, want)
		}
		var wantWords []uint64
		if e := ref[key]; e != nil {
			wantWords = e.words(nodes)
		}
		if got := entryWords(t, tab, key); !slices.Equal(got, wantWords) {
			t.Fatalf("step %d key %d: words %v, reference %v", step, key, got, wantWords)
		}
	}
}

// TestRestoreOnlyStatesMatchReference covers states no training sequence
// produces, only a restore: a sticky entry that exists but never trained,
// a strike on a node outside the sticky mask, and a PAs entry that is all
// zeros. Each is imported into both the table and the reference, then
// trained on.
func TestRestoreOnlyStatesMatchReference(t *testing.T) {
	const nodes = 16
	m := Machine{Nodes: nodes, LineBytes: 64}
	t.Run("sticky", func(t *testing.T) {
		tab := NewTable(Scheme{Fn: Sticky, Index: IndexSpec{AddrBits: 3}, Depth: 1}, m)
		untrained := &refSticky{}
		outside := &refSticky{mask: bitmap.New(1), trained: true}
		outside.strikes[5] = 1 // node 5 is not in the mask
		ref := map[uint64]*refSticky{2: untrained, 5: outside}
		err := importOne(tab, []testEntry{
			{Key: 2, Words: untrained.words(nodes)},
			{Key: 5, Words: outside.words(nodes)},
		})
		if err != nil {
			t.Fatal(err)
		}
		checkStickyAgainst(t, tab, ref, nodes, -1)
		rng := rand.New(rand.NewSource(7))
		for step := 0; step < 200; step++ {
			key := []uint64{2, 5}[step%2]
			fb := randomFeedback(rng, nodes, 0.06)
			ref[key].Train(fb, nodes)
			tab.Train(key, fb)
			checkStickyAgainst(t, tab, ref, nodes, step)
		}
	})
	t.Run("pas", func(t *testing.T) {
		for depth := 1; depth <= MaxDepth; depth++ {
			tab := NewTable(Scheme{Fn: PAs, Index: IndexSpec{AddrBits: 2}, Depth: depth}, m)
			ref := newRefPAS(nodes, depth)
			if err := importOne(tab, []testEntry{{Key: 3, Words: ref.words()}}); err != nil {
				t.Fatal(err)
			}
			if tab.Entries() != 1 || !tab.Predict(3).IsEmpty() {
				t.Fatalf("depth %d: all-zero entry: %d entries, predicts %v", depth, tab.Entries(), tab.Predict(3))
			}
			rng := rand.New(rand.NewSource(int64(depth)))
			for step := 0; step < 200; step++ {
				fb := randomFeedback(rng, nodes, 0.25)
				ref.Train(fb)
				tab.Train(3, fb)
				if got, want := entryWords(t, tab, 3), ref.words(); !slices.Equal(got, want) {
					t.Fatalf("depth %d step %d: words %v, reference %v", depth, step, got, want)
				}
				if got, want := tab.Predict(3), ref.Predict(); got != want {
					t.Fatalf("depth %d step %d: Predict %v, reference %v", depth, step, got, want)
				}
			}
		}
	})
}
