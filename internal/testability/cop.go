// Package testability implements analytic testability measures for
// combinational circuits: the COP controllability/observability
// probabilities, per-fault detection probability estimates, and
// random-pattern test length estimation. On
// fanout-free circuits the COP probabilities are exact; reconvergent
// fanout introduces the correlation error that motivates validating
// against the fault simulator.
package testability

import (
	"fmt"
	"math"

	"repro/internal/fault"
	"repro/internal/logic"
	"repro/internal/netlist"
	"repro/internal/pattern"
)

// StemCombine selects how branch observabilities merge into a stem
// observability in the presence of fanout.
type StemCombine uint8

const (
	// CombineMax takes the best single branch: a lower bound, the
	// conventional COP choice (a fault propagates at least as well as its
	// best branch).
	CombineMax StemCombine = iota
	// CombineOr treats branches as independent detection events:
	// 1 - Π(1-ob_i), an optimistic estimate under reconvergence.
	CombineOr
)

// COPOptions configures the analysis.
type COPOptions struct {
	// InputProb gives P(input=1) per primary input in Inputs() order;
	// inputs beyond the slice default to 0.5.
	InputProb []float64
	// Combine selects the stem observability rule (default CombineMax).
	Combine StemCombine
}

// COP holds the computed controllability and observability probabilities
// of a circuit. An Overlay extends it with one control point that is
// scored without building the modified circuit; a COP from NewCOP or
// NewCOPMeasured carries none.
type COP struct {
	c       *netlist.Circuit
	n       int // c.NumGates(): the overlay's test input and gating gate are n and n+1
	combine StemCombine
	// c1[g] = P(signal g = 1) assuming signal independence.
	c1 []float64
	// obs[g] = P(a value change at g is visible at some primary output).
	obs []float64
	// branchObs[branchOff[g]+pin] = P(change on that fanin branch
	// propagates to a PO through gate g).
	branchObs []float64
	branchOff []int
	// cp is the overlaid control point; cp.sig is -1 when there is none.
	cp controlPoint
}

// controlPoint describes the gating gate an Overlay inserts at signal
// sig: gate n+1 of type typ reads sig and test input n, and every pin of
// the circuit that reads sig reads gate n+1 instead.
type controlPoint struct {
	sig   int
	typ   netlist.GateType
	fanin [2]int // {sig, n}
	self  [1]int // {n+1}: the only consumer of sig and of the test input
}

// newCOP allocates the measures of c plus `extra` appended gates (the
// overlay's test input and gating gate) and sets the primary input
// probabilities; extra is 0 or 2.
func newCOP(c *netlist.Circuit, opts COPOptions, extra int) COP {
	n := c.NumGates()
	co := COP{
		c:         c,
		n:         n,
		combine:   opts.Combine,
		c1:        make([]float64, n+extra),
		obs:       make([]float64, n+extra),
		branchOff: make([]int, n+extra+1),
		cp:        controlPoint{sig: -1},
	}
	pins := 0
	for id := 0; id < n; id++ {
		co.branchOff[id] = pins
		pins += len(c.Fanin(id))
	}
	if extra > 0 {
		co.branchOff[n] = pins // the test input has no pins
		co.branchOff[n+1] = pins
		pins += len(co.cp.fanin)
	}
	co.branchOff[n+extra] = pins
	co.branchObs = make([]float64, pins)
	for i, in := range c.Inputs() {
		co.c1[in] = inputProb(opts, i)
	}
	return co
}

// inputProb returns P(input = 1) for the i-th primary input.
func inputProb(opts COPOptions, i int) float64 {
	if i < len(opts.InputProb) {
		return opts.InputProb[i]
	}
	return 0.5
}

// NewCOP computes the COP measures for the circuit.
func NewCOP(c *netlist.Circuit, opts COPOptions) *COP {
	co := newCOP(c, opts, 0)
	co.forward(0)
	co.backward()
	return &co
}

// NewCOPMeasured computes the measures with signal probabilities taken
// from logic simulation of `patterns` vectors from src rather than from
// the analytic forward pass. Measured controllabilities capture the
// reconvergence correlation the independence assumption misses; the
// backward observability pass still assumes independent side inputs.
func NewCOPMeasured(c *netlist.Circuit, src pattern.Source, patterns int, opts COPOptions) (*COP, error) {
	if patterns <= 0 {
		patterns = 4096
	}
	sim := logic.New(c)
	stats := logic.NewSignalStats(c)
	words := make([]uint64, c.NumInputs())
	applied := 0
	for applied < patterns {
		n := src.FillBlock(words)
		if n == 0 {
			break
		}
		if applied+n > patterns {
			n = patterns - applied
		}
		if err := sim.Run(words); err != nil {
			return nil, err
		}
		stats.Accumulate(sim, n)
		applied += n
	}
	co := newCOP(c, opts, 0)
	for id := range co.c1 {
		co.c1[id] = stats.Probability(id)
	}
	co.backward()
	return &co, nil
}

// Overlay is a COP analysis that scores one control point at a time
// without building the modified circuit. After SetControlPoint(s, kind)
// every measure equals, bit for bit, that of
//
//	NewCOP(c.InsertTestPoints([]netlist.TestPoint{{Signal: s, Kind: kind}}), opts)
//
// where the new test input and gating gate take IDs c.NumGates() and
// c.NumGates()+1. Each call reuses the same buffers and allocates
// nothing.
type Overlay struct {
	COP
	// pos[g] is gate g's position in c.TopoOrder(); from is the first
	// position whose signal probabilities the current control point may
	// have changed (len(order) when none is set).
	pos  []int
	from int
}

// NewOverlay analyzes the circuit with no control point set, as NewCOP
// does. Test inputs draw their probability from opts.InputProb like any
// other input: entry c.NumInputs() applies to the overlay's test input.
func NewOverlay(c *netlist.Circuit, opts COPOptions) *Overlay {
	order := c.TopoOrder()
	o := &Overlay{COP: newCOP(c, opts, 2), pos: make([]int, len(order)), from: len(order)}
	for i, id := range order {
		o.pos[id] = i
	}
	o.c1[o.n] = inputProb(opts, c.NumInputs())
	o.forward(0)
	o.backward()
	return o
}

// SetControlPoint replaces the overlay's control point with a Control0
// (AND-gated) or Control1 (OR-gated) point at signal s and recomputes the
// measures. The forward pass restarts at the earlier topological
// position of s and of the previous point's signal; nothing before it
// depends on either.
func (o *Overlay) SetControlPoint(s int, kind netlist.TestPointKind) {
	typ := netlist.Or
	switch kind {
	case netlist.Control0:
		typ = netlist.And
	case netlist.Control1:
	default:
		panic(fmt.Sprintf("testability: overlay control point of kind %v", kind))
	}
	o.cp = controlPoint{sig: s, typ: typ, fanin: [2]int{s, o.n}, self: [1]int{o.n + 1}}
	start := min(o.from, o.pos[s])
	o.from = o.pos[s]
	o.forward(start)
	o.backward()
}

// view returns a gate's type and fanin as the analysis sees them, plus
// the substitution its pins read through: a pin reading `from` reads
// `to` instead. Original gates read the overlaid control point's gating
// gate in place of its signal; the gating gate itself reads the signal.
func (co *COP) view(id int) (t netlist.GateType, fanin []int, from, to int) {
	if id < co.n {
		return co.c.Type(id), co.c.Fanin(id), co.cp.sig, co.n + 1
	}
	if id == co.n+1 {
		return co.cp.typ, co.cp.fanin[:], -1, -1
	}
	return netlist.Input, nil, -1, -1
}

// forward recomputes the signal probabilities of every gate from
// topological position start on, and of the gating gate when its
// signal lies in that range.
func (co *COP) forward(start int) {
	order := co.c.TopoOrder()
	for _, id := range order[start:] {
		if t, fanin, from, to := co.view(id); t != netlist.Input {
			co.c1[id] = gateProb(t, fanin, co.c1, from, to)
		}
		if id == co.cp.sig {
			gate := co.n + 1
			t, fanin, from, to := co.view(gate)
			co.c1[gate] = gateProb(t, fanin, co.c1, from, to)
		}
	}
}

// backward runs the observability pass over the current signal
// probabilities. The gating gate, its test input and its signal are
// visited where the signal sits in reverse topological order: after
// every consumer of the signal, which the gating gate inherits.
func (co *COP) backward() {
	c := co.c
	order := c.TopoOrder()
	for i := len(order) - 1; i >= 0; i-- {
		id := order[i]
		// Stem observability of id: direct PO observation or via branches.
		var ob float64
		if c.IsOutput(id) {
			ob = 1
		}
		if id != co.cp.sig {
			co.obs[id] = co.stemObs(id, c.Fanout(id), ob)
			continue
		}
		gate := co.n + 1
		co.obs[gate] = co.stemObs(gate, c.Fanout(id), 0)
		co.obs[co.n] = co.stemObs(co.n, co.cp.self[:], 0)
		co.obs[id] = co.stemObs(id, co.cp.self[:], ob)
	}
}

// stemObs folds the branch observabilities of signal id over its
// consumers into ob, recording each branch's observability. Consumers
// are walked in list order, duplicates included, since CombineOr is
// order-sensitive in floating point.
func (co *COP) stemObs(id int, consumers []int, ob float64) float64 {
	for _, consumer := range consumers {
		_, fanin, from, to := co.view(consumer)
		for pin, f := range fanin {
			if f == from {
				f = to
			}
			if f != id {
				continue
			}
			bo := co.pinObservability(consumer, pin) * co.obs[consumer]
			co.branchObs[co.branchOff[consumer]+pin] = bo
			switch co.combine {
			case CombineOr:
				ob = 1 - (1-ob)*(1-bo)
			default:
				if bo > ob {
					ob = bo
				}
			}
		}
	}
	return ob
}

// PinObservability returns P(other inputs of the gate are at
// non-controlling values): the local probability that a change on input
// pin `pin` of the gate propagates through the gate, excluding any
// downstream observability factor. Exact on independent inputs.
func (co *COP) PinObservability(gate, pin int) float64 {
	return co.pinObservability(gate, pin)
}

// pinObservability returns P(other inputs of the gate are at
// non-controlling values), the local propagation probability through one
// gate pin (excluding the downstream observability factor).
func (co *COP) pinObservability(gate, pin int) float64 {
	t, fanin, from, to := co.view(gate)
	switch t {
	case netlist.Buf, netlist.Not:
		return 1
	case netlist.Xor, netlist.Xnor:
		// A change on one XOR input always flips the output.
		return 1
	case netlist.And, netlist.Nand:
		p := 1.0
		for i, f := range fanin {
			if f == from {
				f = to
			}
			if i != pin {
				p *= co.c1[f]
			}
		}
		return p
	case netlist.Or, netlist.Nor:
		p := 1.0
		for i, f := range fanin {
			if f == from {
				f = to
			}
			if i != pin {
				p *= 1 - co.c1[f]
			}
		}
		return p
	}
	return 0
}

// gateProb computes P(out=1) for a gate given fanin 1-probabilities,
// assuming input independence. A fanin equal to `from` reads `to`.
func gateProb(t netlist.GateType, fanin []int, c1 []float64, from, to int) float64 {
	switch t {
	case netlist.Buf, netlist.Not:
		f := fanin[0]
		if f == from {
			f = to
		}
		if t == netlist.Not {
			return 1 - c1[f]
		}
		return c1[f]
	case netlist.And, netlist.Nand:
		p := 1.0
		for _, f := range fanin {
			if f == from {
				f = to
			}
			p *= c1[f]
		}
		if t == netlist.Nand {
			return 1 - p
		}
		return p
	case netlist.Or, netlist.Nor:
		q := 1.0
		for _, f := range fanin {
			if f == from {
				f = to
			}
			q *= 1 - c1[f]
		}
		if t == netlist.Nor {
			return q
		}
		return 1 - q
	case netlist.Xor, netlist.Xnor:
		// P(odd number of ones) folded pairwise.
		p := 0.0
		for i, f := range fanin {
			if f == from {
				f = to
			}
			q := c1[f]
			if i == 0 {
				p = q
			} else {
				p = p*(1-q) + (1-p)*q
			}
		}
		if t == netlist.Xnor {
			return 1 - p
		}
		return p
	}
	return 0
}

// Controllability returns P(signal = 1).
func (co *COP) Controllability(id int) float64 { return co.c1[id] }

// Observability returns the stem observability of the signal.
func (co *COP) Observability(id int) float64 { return co.obs[id] }

// BranchObservability returns the observability of input pin `pin` of the
// gate: the probability a change on that branch reaches a primary output.
func (co *COP) BranchObservability(gate, pin int) float64 {
	return co.branchObs[co.branchOff[gate]+pin]
}

// DetectProb estimates the detection probability of a stuck-at fault
// under one random pattern: P(excite) x P(propagate).
func (co *COP) DetectProb(f fault.Fault) float64 {
	if f.IsStem() {
		exc := co.c1[f.Gate]
		if f.Stuck {
			exc = 1 - exc
		}
		return exc * co.obs[f.Gate]
	}
	_, fanin, from, to := co.view(f.Gate)
	driver := fanin[f.Pin]
	if driver == from {
		driver = to
	}
	exc := co.c1[driver]
	if f.Stuck {
		exc = 1 - exc
	}
	return exc * co.branchObs[co.branchOff[f.Gate]+f.Pin]
}

// TestLength estimates the number of random patterns needed to detect a
// fault of detection probability p with the given confidence:
// N = ln(1-confidence)/ln(1-p). Returns +Inf for p <= 0.
func TestLength(p, confidence float64) float64 {
	if p <= 0 {
		return math.Inf(1)
	}
	if p >= 1 {
		return 1
	}
	return math.Log(1-confidence) / math.Log(1-p)
}
