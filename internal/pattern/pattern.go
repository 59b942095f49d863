// Package pattern provides test pattern sources for fault simulation:
// LFSR pseudo-random sequences (the BIST pattern generator of the era),
// weighted random, exhaustive counters, and explicit vector sets for
// ATPG-generated tests. Sources produce 64-pattern blocks matched to the
// bit-parallel simulator: one uint64 word per primary input, bit b of
// word i being the value of input i in pattern b.
package pattern

import (
	"fmt"
	"math/rand"
)

// Source produces pattern blocks.
type Source interface {
	// FillBlock writes up to 64 patterns into dst (one word per primary
	// input, len(dst) words total) and returns the number of patterns
	// produced. Zero means the source is exhausted. Bits above the
	// returned count are zero.
	FillBlock(dst []uint64) int
	// Reset restarts the stream from its initial state.
	Reset()
}

// LFSR is a 64-bit Galois linear feedback shift register with a primitive
// feedback polynomial, producing a maximal-length pseudo-random bit
// sequence. Successive bits fill successive primary inputs, so each input
// sees a distinct phase of the sequence — the standard arrangement when an
// LFSR feeds a scan chain.
type LFSR struct {
	state uint64
	seed  uint64
}

// primitivePoly64 encodes x^64 + x^63 + x^61 + x^60 + 1 (taps at the high
// bits), a known primitive polynomial over GF(2).
const primitivePoly64 = 0xd800000000000000

// NewLFSR returns an LFSR seeded with the given nonzero value. A zero
// seed is replaced with 1 (the all-zero state is the lone fixed point of
// an LFSR and would generate a constant stream).
func NewLFSR(seed uint64) *LFSR {
	if seed == 0 {
		seed = 1
	}
	return &LFSR{state: seed, seed: seed}
}

// step advances one bit and returns it.
func (l *LFSR) step() uint64 {
	out := l.state & 1
	l.state >>= 1
	if out == 1 {
		l.state ^= primitivePoly64
	}
	return out
}

// FillBlock implements Source. An LFSR never exhausts.
func (l *LFSR) FillBlock(dst []uint64) int {
	for i := range dst {
		dst[i] = 0
	}
	for b := 0; b < 64; b++ {
		for i := range dst {
			dst[i] |= l.step() << uint(b)
		}
	}
	return 64
}

// Reset implements Source.
func (l *LFSR) Reset() { l.state = l.seed }

// Weighted produces independent random patterns where input i is 1 with
// probability Weights[i] (0.5 for inputs beyond the weights slice).
type Weighted struct {
	Weights []float64
	seed    int64
	rng     *rand.Rand
}

// NewWeighted returns a weighted random source.
func NewWeighted(seed int64, weights []float64) *Weighted {
	return &Weighted{Weights: weights, seed: seed, rng: rand.New(rand.NewSource(seed))}
}

// FillBlock implements Source.
func (w *Weighted) FillBlock(dst []uint64) int {
	for i := range dst {
		p := 0.5
		if i < len(w.Weights) {
			p = w.Weights[i]
		}
		var word uint64
		for b := 0; b < 64; b++ {
			if w.rng.Float64() < p {
				word |= 1 << uint(b)
			}
		}
		dst[i] = word
	}
	return 64
}

// Reset implements Source.
func (w *Weighted) Reset() { w.rng = rand.New(rand.NewSource(w.seed)) }

// Counter enumerates all 2^n input combinations for n-input circuits
// (n <= maxCounterInputs), then exhausts. Useful for exhaustive
// ground-truth runs on small circuits.
type Counter struct {
	n    int
	next uint64
}

// maxCounterInputs is the widest circuit a Counter enumerates: 2^30
// patterns, about a billion.
const maxCounterInputs = 30

// CheckCounterInputs returns an error naming the limit when a Counter
// cannot enumerate n inputs. Callers with circuits from outside the
// program check it before NewCounter.
func CheckCounterInputs(n int) error {
	if n < 1 || n > maxCounterInputs {
		return fmt.Errorf("counter source supports 1 to %d inputs, circuit has %d", maxCounterInputs, n)
	}
	return nil
}

// NewCounter returns an exhaustive counting source for n inputs. It
// panics when CheckCounterInputs(n) fails.
func NewCounter(n int) *Counter {
	if err := CheckCounterInputs(n); err != nil {
		panic("pattern: " + err.Error())
	}
	return &Counter{n: n}
}

// FillBlock implements Source.
func (c *Counter) FillBlock(dst []uint64) int {
	total := uint64(1) << uint(c.n)
	count := 0
	for i := range dst {
		dst[i] = 0
	}
	for b := 0; b < 64 && c.next < total; b++ {
		v := c.next
		for i := range dst {
			if v>>uint(i)&1 == 1 {
				dst[i] |= 1 << uint(b)
			}
		}
		c.next++
		count++
	}
	return count
}

// Reset implements Source.
func (c *Counter) Reset() { c.next = 0 }

// Vectors replays an explicit list of test vectors, each given as one bool
// per primary input. Used to fault-simulate ATPG-generated test sets.
type Vectors struct {
	Vecs [][]bool
	pos  int
}

// NewVectors returns a source replaying the given vectors.
func NewVectors(vecs [][]bool) *Vectors { return &Vectors{Vecs: vecs} }

// FillBlock implements Source.
func (v *Vectors) FillBlock(dst []uint64) int {
	for i := range dst {
		dst[i] = 0
	}
	count := 0
	for b := 0; b < 64 && v.pos < len(v.Vecs); b++ {
		vec := v.Vecs[v.pos]
		for i := range dst {
			if i < len(vec) && vec[i] {
				dst[i] |= 1 << uint(b)
			}
		}
		v.pos++
		count++
	}
	return count
}

// Reset implements Source.
func (v *Vectors) Reset() { v.pos = 0 }
