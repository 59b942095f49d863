// Package logic provides bit-parallel logic simulation of netlist
// circuits: 64 patterns are evaluated per pass, one uint64 word per
// signal. This is the substrate under the fault simulator and the
// empirical signal-probability estimator.
package logic

import (
	"fmt"
	"math/bits"

	"repro/internal/netlist"
)

// Simulator evaluates a circuit 64 patterns at a time. It is not safe for
// concurrent use; create one per goroutine.
type Simulator struct {
	c    *netlist.Circuit
	vals []uint64
	buf  []uint64
}

// New returns a Simulator for the circuit.
func New(c *netlist.Circuit) *Simulator {
	return &Simulator{
		c:    c,
		vals: make([]uint64, c.NumGates()),
		buf:  make([]uint64, 0, 8),
	}
}

// Circuit returns the simulated circuit.
func (s *Simulator) Circuit() *netlist.Circuit { return s.c }

// Run evaluates one block. inputWords carries one word per primary input,
// in Inputs() order: bit b of inputWords[i] is the value of input i in
// pattern b. All signal values are available through Value afterwards.
func (s *Simulator) Run(inputWords []uint64) error {
	c := s.c
	if len(inputWords) != c.NumInputs() {
		return fmt.Errorf("logic: got %d input words, circuit has %d inputs", len(inputWords), c.NumInputs())
	}
	for i, in := range c.Inputs() {
		s.vals[in] = inputWords[i]
	}
	for _, id := range c.TopoOrder() {
		g := c.Gate(id)
		if g.Type == netlist.Input {
			continue
		}
		s.buf = s.buf[:0]
		for _, f := range g.Fanin {
			s.buf = append(s.buf, s.vals[f])
		}
		s.vals[id] = g.Type.EvalWords(s.buf)
	}
	return nil
}

// Value returns the 64-pattern word last computed for the signal.
func (s *Simulator) Value(id int) uint64 { return s.vals[id] }

// Values returns the internal value slice (one word per gate). Read-only;
// contents change on the next Run.
func (s *Simulator) Values() []uint64 { return s.vals }

// SignalStats accumulates empirical one-counts per signal over simulated
// blocks, yielding measured signal probabilities (used to validate the
// analytic COP measures).
type SignalStats struct {
	Ones     []uint64
	Patterns uint64
}

// NewSignalStats returns stats sized for the circuit.
func NewSignalStats(c *netlist.Circuit) *SignalStats {
	return &SignalStats{Ones: make([]uint64, c.NumGates())}
}

// Accumulate folds the simulator's current block into the stats. n is the
// number of valid patterns in the block (<= 64); bits above n are ignored.
func (st *SignalStats) Accumulate(s *Simulator, n int) {
	mask := ^uint64(0)
	if n < 64 {
		mask = (uint64(1) << uint(n)) - 1
	}
	for id, v := range s.vals {
		st.Ones[id] += uint64(bits.OnesCount64(v & mask))
	}
	st.Patterns += uint64(n)
}

// Probability returns the measured probability of signal id being 1.
func (st *SignalStats) Probability(id int) float64 {
	if st.Patterns == 0 {
		return 0
	}
	return float64(st.Ones[id]) / float64(st.Patterns)
}
