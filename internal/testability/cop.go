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
	*shape
	// cp is the overlaid control point; cp.sig is -1 when there is none.
	cp controlPoint
}

// shape is the part of an analysis that depends on the circuit alone.
// It is built once per circuit and never written after, so an Overlay
// and its clones share one.
type shape struct {
	// branchOff[g] is the index of gate g's first pin in branchObs.
	branchOff []int32
	// branches[branchStart[s]:branchStart[s+1]] is the branch list of
	// signal s: the branchObs index of every pin that reads s, once, by
	// consumer in Fanout order and by pin within a consumer. A consumer
	// that reads s on k > 1 pins is a group: its first k-1 entries are
	// stored as -index-1. Fanout lists such a consumer k times, and a
	// scan of every consumer's fanin visits all k pins for each entry,
	// so the backward pass folds a group k times over; CombineOr is
	// order-sensitive in floating point, so the repeats stay.
	branches    []int32
	branchStart []int32
	// pos[g] is gate g's position in c.TopoOrder() (overlays only).
	pos []int32
}

// controlPoint describes the gating gate an Overlay inserts at signal
// sig: gate n+1 of type typ reads sig and test input n, and every pin of
// the circuit that reads sig reads gate n+1 instead.
type controlPoint struct {
	sig   int
	typ   netlist.GateType
	fanin [2]int // {sig, n}
	// sigPin and inputPin index the gating gate's pins 0 and 1 in
	// branchObs: the only branches of sig and of the test input.
	sigPin, inputPin [1]int32
}

// newShape lays out the pins of c plus `extra` appended gates (the
// overlay's test input and gating gate, extra 0 or 2) and lists the
// branches of every signal of c. It buckets the pins by the signal they
// read in two passes over the gates in ID order, which is the order
// Fanout lists consumers in, so it takes time and memory linear in the
// pins.
func newShape(c *netlist.Circuit, extra int) *shape {
	n := c.NumGates()
	sh := &shape{branchOff: make([]int32, n+extra+1)}
	// start[s+2] counts the pins that read signal s; after the prefix
	// sums start[s+1] is where s's list begins, and the fill advances it
	// to where it ends, leaving start[s] at the start of every list.
	start := make([]int32, n+2)
	pins := int32(0)
	for g := 0; g < n; g++ {
		sh.branchOff[g] = pins
		fanin := c.Fanin(g)
		pins += int32(len(fanin))
		for _, f := range fanin {
			start[f+2]++
		}
	}
	if extra > 0 {
		sh.branchOff[n] = pins // the test input has no pins
		sh.branchOff[n+1] = pins
		pins += 2
	}
	sh.branchOff[n+extra] = pins
	for s := 2; s < len(start); s++ {
		start[s] += start[s-1]
	}
	sh.branches = make([]int32, start[n+1])
	for g := 0; g < n; g++ {
		fanin := c.Fanin(g)
		first := sh.branchOff[g]
		for pin, f := range fanin {
			at := start[f+1]
			// When the last pin listed for f is an earlier pin of g,
			// this pin joins its group, and that one is marked as not
			// the group's last.
			if at > 0 {
				if q := sh.branches[at-1] - first; q >= 0 && q < int32(pin) && fanin[q] == f {
					sh.branches[at-1] = -sh.branches[at-1] - 1
				}
			}
			sh.branches[at] = first + int32(pin)
			start[f+1]++
		}
	}
	sh.branchStart = start[:n+1]
	return sh
}

// newCOP allocates the measures of c over sh, which has room for
// `extra` appended gates (the overlay's test input and gating gate),
// and sets the primary input probabilities; extra is 0 or 2.
func newCOP(c *netlist.Circuit, opts COPOptions, sh *shape, extra int) COP {
	var co COP
	co.init(c, opts, sh, extra, 0)
	return co
}

// init makes co the blank analysis of c over sh, as newCOP describes,
// reusing co's measure buffers where they have room. Buffers it must
// allocate get room for `spare` more gates and pins.
func (co *COP) init(c *netlist.Circuit, opts COPOptions, sh *shape, extra, spare int) {
	n := c.NumGates()
	co.c, co.n, co.combine, co.shape = c, n, opts.Combine, sh
	co.c1 = blank(co.c1, n+extra, spare)
	co.obs = blank(co.obs, n+extra, spare)
	co.branchObs = blank(co.branchObs, int(sh.branchOff[n+extra]), spare)
	co.cp = controlPoint{sig: -1}
	for i, in := range c.Inputs() {
		co.c1[in] = inputProb(opts, i)
	}
}

// blank returns n zeros in buf's array when it has room for them, and
// otherwise in a new array with room for `spare` more.
func blank(buf []float64, n, spare int) []float64 {
	if cap(buf) < n {
		return make([]float64, n, n+spare)
	}
	buf = buf[:n]
	clear(buf)
	return buf
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
	co := newCOP(c, opts, newShape(c, 0), 0)
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
	co := newCOP(c, opts, newShape(c, 0), 0)
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
	opts COPOptions
	// from is the first topological position whose signal probabilities
	// the current control point may have changed (len(order) when none
	// is set).
	from int
}

// overlaySpare is how many more gates and pins an overlay's measure
// buffers are allocated with: room for Reset to move to a circuit with
// eight more control points, each of which adds two gates and two pins.
const overlaySpare = 16

// NewOverlay analyzes the circuit with no control point set, as NewCOP
// does. Test inputs draw their probability from opts.InputProb like any
// other input: entry c.NumInputs() applies to the overlay's test input.
func NewOverlay(c *netlist.Circuit, opts COPOptions) *Overlay {
	o := &Overlay{opts: opts}
	o.Reset(c)
	return o
}

// Reset makes o the analysis of circuit c with no control point set,
// exactly as NewOverlay(c, opts) with o's options would, and reuses o's
// measure buffers where they have room. Clones of o keep the analysis
// they had.
func (o *Overlay) Reset(c *netlist.Circuit) {
	order := c.TopoOrder()
	sh := newShape(c, 2)
	sh.pos = make([]int32, len(order))
	for i, id := range order {
		sh.pos[id] = int32(i)
	}
	o.init(c, o.opts, sh, 2, overlaySpare)
	o.from = len(order)
	o.c1[o.n] = inputProb(o.opts, c.NumInputs())
	o.forward(0)
	o.backward()
}

// Clone returns an overlay in the same state as o that shares o's
// circuit layout but none of its measures, so the two can score control
// points on different goroutines. A non-nil into is overwritten and
// returned, its measure buffers reused where they have room.
func (o *Overlay) Clone(into *Overlay) *Overlay {
	if into == nil {
		into = &Overlay{}
	}
	c1, obs, branchObs := into.c1, into.obs, into.branchObs
	*into = *o
	into.c1 = fill(c1, o.c1)
	into.obs = fill(obs, o.obs)
	into.branchObs = fill(branchObs, o.branchObs)
	return into
}

// fill returns a copy of src in dst's array when it has room, and
// otherwise in a new array with room for overlaySpare more.
func fill(dst, src []float64) []float64 {
	if cap(dst) < len(src) {
		dst = make([]float64, len(src), len(src)+overlaySpare)
	}
	dst = dst[:len(src)]
	copy(dst, src)
	return dst
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
	pin0 := o.branchOff[o.n+1]
	o.cp = controlPoint{sig: s, typ: typ, fanin: [2]int{s, o.n}, sigPin: [1]int32{pin0}, inputPin: [1]int32{pin0 + 1}}
	start := min(o.from, int(o.pos[s]))
	o.from = int(o.pos[s])
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
// probabilities, in reverse topological order. A gate's stem
// observability folds those of its branches, which its consumers, seen
// before it, have set; it then sets the observabilities of its own
// pins. The gating gate, its test input and its signal are visited
// where the signal sits: after every consumer of the signal, which the
// gating gate inherits along with the signal's branches.
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
		branches := co.branches[co.branchStart[id]:co.branchStart[id+1]]
		if id == co.cp.sig {
			gate := co.n + 1
			co.obs[gate] = co.stemObs(branches, 0)
			co.setPinObs(gate)
			co.obs[co.n] = co.stemObs(co.cp.inputPin[:], 0)
			branches = co.cp.sigPin[:]
		}
		co.obs[id] = co.stemObs(branches, ob)
		co.setPinObs(id)
	}
}

// stemObs folds the observabilities of one signal's branches, given as
// a branch list (see shape), into ob in list order, each group once per
// pin in it.
func (co *COP) stemObs(branches []int32, ob float64) float64 {
	for i := 0; i < len(branches); i++ {
		if b := branches[i]; b >= 0 {
			ob = co.fold(ob, co.branchObs[b])
			continue
		}
		j := i
		for branches[j] < 0 {
			j++
		}
		group := branches[i : j+1]
		for range group {
			for _, b := range group {
				if b < 0 {
					b = -b - 1
				}
				ob = co.fold(ob, co.branchObs[b])
			}
		}
		i = j
	}
	return ob
}

// fold merges one branch observability bo into the stem observability
// ob under the analysis' stem rule.
func (co *COP) fold(ob, bo float64) float64 {
	if co.combine == CombineOr {
		return 1 - (1-ob)*(1-bo)
	}
	if bo > ob {
		return bo
	}
	return ob
}

// setPinObs sets the observability of every fanin branch of gate id:
// the probability that a change on the pin passes the gate, times the
// gate's stem observability.
func (co *COP) setPinObs(id int) {
	t, fanin, from, to := co.view(id)
	pins := co.branchObs[co.branchOff[id]:][:len(fanin)]
	for pin := range pins {
		pins[pin] = localObs(t, fanin, co.c1, from, to, pin) * co.obs[id]
	}
}

// PinObservability returns P(other inputs of the gate are at
// non-controlling values): the local probability that a change on input
// pin `pin` of the gate propagates through the gate, excluding any
// downstream observability factor. Exact on independent inputs.
func (co *COP) PinObservability(gate, pin int) float64 {
	t, fanin, from, to := co.view(gate)
	return localObs(t, fanin, co.c1, from, to, pin)
}

// localObs is PinObservability for a gate of type t with the given
// fanin, whose pins reading `from` read `to`, under the signal
// probabilities c1.
func localObs(t netlist.GateType, fanin []int, c1 []float64, from, to, pin int) float64 {
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
				p *= c1[f]
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
				p *= 1 - c1[f]
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
	return co.branchObs[int(co.branchOff[gate])+pin]
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
	return exc * co.branchObs[int(co.branchOff[f.Gate])+f.Pin]
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
