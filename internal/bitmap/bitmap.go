// Package bitmap provides sharing bitmaps: fixed-width bit vectors that
// record, for each node of a multiprocessor, whether the node holds (or is
// predicted to hold) a copy of a cache block.
//
// The paper studies 16-node systems, but the type supports any machine of up
// to 64 nodes so the library can be used for larger configurations.
package bitmap

import (
	"fmt"
	"math/bits"
	"strings"
)

// MaxNodes is the largest machine size a Bitmap can represent.
const MaxNodes = 64

// Bitmap is a sharing bitmap with one bit per node. Bit i (LSB = node 0)
// set means node i is a sharer. The zero value is the empty bitmap.
type Bitmap uint64

// Empty is the bitmap with no sharers.
const Empty Bitmap = 0

// New returns a bitmap with exactly the given node bits set.
// It panics if any node is outside [0, MaxNodes).
func New(nodes ...int) Bitmap {
	var b Bitmap
	for _, n := range nodes {
		b = b.Set(n)
	}
	return b
}

// Full returns the bitmap with the low n bits set (all nodes of an n-node
// machine sharing). It panics if n is outside [0, MaxNodes].
func Full(n int) Bitmap {
	if n < 0 || n > MaxNodes {
		//predlint:ignore panicfree documented construction-time bounds check
		panic(fmt.Sprintf("bitmap: node count %d out of range", n))
	}
	if n == MaxNodes {
		return ^Bitmap(0)
	}
	return Bitmap(1)<<uint(n) - 1
}

func checkNode(node int) {
	if node < 0 || node >= MaxNodes {
		//predlint:ignore panicfree bounds guard on the documented node-index contract
		panic(fmt.Sprintf("bitmap: node %d out of range [0,%d)", node, MaxNodes))
	}
}

// Set returns b with the given node's bit set.
func (b Bitmap) Set(node int) Bitmap {
	checkNode(node)
	return b | 1<<uint(node)
}

// Clear returns b with the given node's bit cleared.
func (b Bitmap) Clear(node int) Bitmap {
	checkNode(node)
	return b &^ (1 << uint(node))
}

// Has reports whether the given node's bit is set.
func (b Bitmap) Has(node int) bool {
	checkNode(node)
	return b&(1<<uint(node)) != 0
}

// Intersect returns the bitwise AND of b and o.
func (b Bitmap) Intersect(o Bitmap) Bitmap { return b & o }

// Minus returns the sharers in b that are not in o.
func (b Bitmap) Minus(o Bitmap) Bitmap { return b &^ o }

// Count returns the number of sharers (population count).
func (b Bitmap) Count() int { return bits.OnesCount64(uint64(b)) }

// IsEmpty reports whether no bits are set.
func (b Bitmap) IsEmpty() bool { return b == 0 }

// Nodes returns the set node indices in ascending order.
func (b Bitmap) Nodes() []int {
	nodes := make([]int, 0, b.Count())
	for v := uint64(b); v != 0; {
		n := bits.TrailingZeros64(v)
		nodes = append(nodes, n)
		v &^= 1 << uint(n)
	}
	return nodes
}

// Overlaps reports whether b and o share at least one set bit.
func (b Bitmap) Overlaps(o Bitmap) bool { return b&o != 0 }

// String renders the bitmap as a binary string of the 16 low bits when all
// sharers fit (the paper's machine size), or of all 64 bits otherwise, with
// node 0 rightmost. Example: "0000000000000101" means nodes 0 and 2 share.
func (b Bitmap) String() string {
	width := 16
	if b>>16 != 0 {
		width = 64
	}
	var sb strings.Builder
	for i := width - 1; i >= 0; i-- {
		if b.Has(i) {
			sb.WriteByte('1')
		} else {
			sb.WriteByte('0')
		}
	}
	return sb.String()
}
