// Package lfsr implements maximal-length linear feedback shift registers in
// Galois configuration. The census prober uses an LFSR to walk its target
// list in a randomized permutation (Sec. 3.5 of the paper), so that probes
// toward the same /24 or the same destination network are spread over the
// whole census rather than clustered, avoiding ICMP rate limiting at the
// destination.
//
// A maximal-length n-bit LFSR enumerates every value in [1, 2^n-1] exactly
// once per period, which makes it a zero-memory permutation generator: no
// shuffle array of 10^7 entries has to be kept per vantage point.
package lfsr

import (
	"fmt"
	"math/bits"
)

// taps maps register width to the tap positions of a primitive polynomial
// (from the classic Xilinx XAPP052 table), yielding a maximal-length
// sequence of period 2^width - 1.
var taps = map[uint][]uint{
	2:  {2, 1},
	3:  {3, 2},
	4:  {4, 3},
	5:  {5, 3},
	6:  {6, 5},
	7:  {7, 6},
	8:  {8, 6, 5, 4},
	9:  {9, 5},
	10: {10, 7},
	11: {11, 9},
	12: {12, 6, 4, 1},
	13: {13, 4, 3, 1},
	14: {14, 5, 3, 1},
	15: {15, 14},
	16: {16, 15, 13, 4},
	17: {17, 14},
	18: {18, 11},
	19: {19, 6, 2, 1},
	20: {20, 17},
	21: {21, 19},
	22: {22, 21},
	23: {23, 18},
	24: {24, 23, 22, 17},
	25: {25, 22},
	26: {26, 6, 2, 1},
	27: {27, 5, 2, 1},
	28: {28, 25},
	29: {29, 27},
	30: {30, 6, 4, 1},
	31: {31, 28},
	32: {32, 22, 2, 1},
}

// MaxBits is the largest supported register width.
const MaxBits = 32

// Galois is a linear feedback shift register in Galois configuration.
type Galois struct {
	state uint64
	seed  uint64
	mask  uint64 // tap mask
	bits  uint
}

// New returns an LFSR of the given width seeded with seed. The width must be
// in [2, MaxBits] and the seed is reduced modulo the register size; a
// reduced seed of zero (the lock-up state) is replaced by 1.
func New(width uint, seed uint64) (*Galois, error) {
	g, err := newGalois(width, seed)
	if err != nil {
		return nil, err
	}
	return &g, nil
}

// newGalois is New by value.
func newGalois(width uint, seed uint64) (Galois, error) {
	tp, ok := taps[width]
	if !ok {
		return Galois{}, fmt.Errorf("lfsr: unsupported width %d (want 2..%d)", width, MaxBits)
	}
	var mask uint64
	for _, t := range tp {
		mask |= 1 << (t - 1)
	}
	s := seed & ((1 << width) - 1)
	if s == 0 {
		s = 1
	}
	return Galois{state: s, seed: s, mask: mask, bits: width}, nil
}

// Period returns the sequence period, 2^width - 1.
func (g *Galois) Period() uint64 { return (1 << g.bits) - 1 }

// Next advances the register and returns the new state, a value in
// [1, 2^width-1]. The sequence visits every such value once per period.
func (g *Galois) Next() uint64 {
	lsb := g.state & 1
	g.state >>= 1
	if lsb != 0 {
		g.state ^= g.mask
	}
	return g.state
}

// Reset rewinds the register to its seed state.
func (g *Galois) Reset() { g.state = g.seed }

// BitsFor returns the smallest supported register width whose period covers
// n values, i.e. the smallest w with 2^w - 1 >= n.
func BitsFor(n uint64) (uint, error) {
	if n == 0 {
		return 0, fmt.Errorf("lfsr: no width for n=0")
	}
	w := uint(bits.Len64(n))
	if (uint64(1)<<w)-1 < n {
		w++
	}
	if w < 2 {
		w = 2
	}
	if w > MaxBits {
		return 0, fmt.Errorf("lfsr: n=%d exceeds max period 2^%d-1", n, MaxBits)
	}
	return w, nil
}

// Permutation iterates the indices [0, n) in the pseudo-random order induced
// by a maximal-length LFSR, skipping register states beyond n. It visits
// every index exactly once per cycle. It is a value with the register
// inside, so a probing run walks its targets without allocating.
type Permutation struct {
	g       Galois
	n       uint64
	emitted uint64
}

// NewPermutation returns a permutation over [0, n). Different seeds give
// different (rotated) orders.
func NewPermutation(n uint64, seed uint64) (Permutation, error) {
	w, err := BitsFor(n)
	if err != nil {
		return Permutation{}, err
	}
	g, err := newGalois(w, seed)
	if err != nil {
		return Permutation{}, err
	}
	return Permutation{g: g, n: n}, nil
}

// Len returns n, the number of indices in the permutation.
func (p *Permutation) Len() uint64 { return p.n }

// Next returns the next index and true, or 0 and false once all n indices
// have been emitted.
func (p *Permutation) Next() (uint64, bool) {
	if p.emitted >= p.n {
		return 0, false
	}
	for {
		v := p.g.Next()
		if v <= p.n {
			p.emitted++
			return v - 1, true
		}
	}
}

// Reset rewinds the permutation to its beginning.
func (p *Permutation) Reset() {
	p.g.Reset()
	p.emitted = 0
}
