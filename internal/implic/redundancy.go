package implic

import (
	"context"
	"fmt"
	"sync/atomic"

	"repro/internal/fault"
	"repro/internal/netlist"
	"repro/internal/par"
)

// The static redundancy pass proves single stuck-at faults untestable by
// combining the three kinds of engine knowledge. A fault is redundant
// when any sound necessary condition for detection fails:
//
//  1. observability: the fault site has no structural path to a primary
//     output;
//  2. excitation: the faulted line is proven constant at the stuck
//     value, so no input vector ever creates a good/faulty difference;
//  3. propagation: exciting the fault implies (in the fault-free
//     circuit) that a side input of some dominator of the site holds
//     its controlling value. Every sensitized path must pass through
//     every dominator, and a side input outside the fault's fanout cone
//     carries the same value in both circuit copies, so a controlling
//     side value fixes the dominator output identically in both copies
//     and the fault effect dies there.
//
// Every proof here is conservative: the pass can miss redundant faults,
// but a fault it reports is genuinely untestable, which the tests
// cross-check against exhaustive PODEM runs.

// RedundantFault pairs a proven-untestable fault with the reason the
// proof found.
type RedundantFault struct {
	F      fault.Fault
	Reason string
}

// Redundant returns the statically-proven-untestable faults of the full
// uncollapsed universe, in universe order. Computed once and cached.
func (e *Engine) Redundant() []RedundantFault {
	if e.redundant == nil {
		e.redundant, _ = e.computeRedundant(nil)
	}
	return e.redundant
}

// RedundantContext is Redundant with cancellation: the pass polls ctx
// once per fault and, once it is done, returns ctx.Err() and caches
// nothing.
func (e *Engine) RedundantContext(ctx context.Context) ([]RedundantFault, error) {
	if e.redundant == nil {
		red, ok := e.computeRedundant(ctx.Done())
		if !ok {
			return nil, ctx.Err()
		}
		e.redundant = red
	}
	return e.redundant, nil
}

// RedundantFaults returns just the faults of Redundant.
func (e *Engine) RedundantFaults() []fault.Fault {
	det := e.Redundant()
	out := make([]fault.Fault, len(det))
	for i, r := range det {
		out[i] = r.F
	}
	return out
}

// RedundantSet returns the redundant faults as a membership set.
func (e *Engine) RedundantSet() map[fault.Fault]bool {
	out := make(map[fault.Fault]bool)
	for _, r := range e.Redundant() {
		out[r.F] = true
	}
	return out
}

// RedundantAmongContext reports for each of the given faults whether
// the pass proves it untestable: out[i] is true exactly when faults[i]
// is in RedundantSet. Only the given faults are proven, so a caller
// that targets part of the universe (a collapsed list, say) pays for
// that part. A fault outside fault.Universe is never proven. The pass
// polls ctx once per fault and returns ctx.Err() once it is done.
func (e *Engine) RedundantAmongContext(ctx context.Context, faults []fault.Fault) ([]bool, error) {
	out := make([]bool, len(faults))
	ok := e.proveEach(ctx.Done(), faults, func(i int, f fault.Fault, p proof) {
		out[i] = p.kind != unproven
	})
	if !ok {
		return nil, ctx.Err()
	}
	return out, nil
}

// inUniverse reports whether f is a member of fault.Universe: a stem
// fault on any gate, or a branch fault on a pin whose driver fans out.
func (e *Engine) inUniverse(f fault.Fault) bool {
	c := e.c
	if f.Gate < 0 || f.Gate >= c.NumGates() {
		return false
	}
	if f.Pin == -1 {
		return true
	}
	fanin := c.Fanin(f.Gate)
	return f.Pin >= 0 && f.Pin < len(fanin) && c.FanoutCount(fanin[f.Pin]) > 1
}

// computeRedundant runs the pass, polling done once per fault; it
// returns ok=false when done fires first. A nil done never fires.
func (e *Engine) computeRedundant(done <-chan struct{}) (out []RedundantFault, ok bool) {
	universe := fault.Universe(e.c)
	reasons := make([]string, len(universe))
	if !e.proveEach(done, universe, func(i int, f fault.Fault, p proof) {
		if p.kind != unproven {
			reasons[i] = p.reason(e.c, f)
		}
	}) {
		return nil, false
	}
	out = []RedundantFault{}
	for i, r := range reasons {
		if r != "" {
			out = append(out, RedundantFault{F: universe[i], Reason: r})
		}
	}
	return out, true
}

// proofGrain is how many consecutive faults a proof worker takes at a
// time: enough to keep the hand-out rare, few enough to balance the
// workers.
const proofGrain = 16

// proveEach proves every fault of the universe among faults on every
// core and calls found(i, faults[i], p) with each proof, from the
// worker that made it; a fault outside the universe is unproven. Each
// worker propagates on its own state over the shared database, the
// engine's worker states (workerStates), all at the base before any
// worker starts. Every proof starts and ends at the base, so a proof
// does not depend on the worker that made it. A worker polls done
// before each fault, and proveEach returns false when one found it
// closed.
func (e *Engine) proveEach(done <-chan struct{}, faults []fault.Fault, found func(i int, f fault.Fault, p proof)) bool {
	states := e.workerStates(len(faults))
	var stopped atomic.Bool
	par.For(len(states), len(faults), proofGrain, func(w, i int) {
		if stopped.Load() {
			return
		}
		select {
		case <-done:
			stopped.Store(true)
			return
		default:
		}
		f := faults[i]
		p := proof{}
		if e.inUniverse(f) {
			p = states[w].prove(f)
		}
		found(i, f, p)
	})
	return !stopped.Load()
}

// proofKind names the detection condition a redundancy proof refutes.
type proofKind uint8

const (
	unproven     proofKind = iota
	unobservable           // no structural path to a primary output
	constant               // the site is constant at the stuck value
	infeasible             // the excitation literal is infeasible
	conflicting            // excitation plus side pins conflict
	blocked                // a dominator side input is forced controlling
)

// proof is the outcome of the checks for one fault. site is the line
// the excitation assigns; dom and side name the blocking dominator and
// its controlling side input. The reason text is formatted only on
// demand, by reason.
type proof struct {
	kind      proofKind
	site      int
	dom, side int
}

// reason renders the proof as the human-readable text of
// RedundantFault.Reason.
func (p proof) reason(c *netlist.Circuit, f fault.Fault) string {
	switch p.kind {
	case unobservable:
		return "no structural path from the fault site to a primary output"
	case constant:
		cv := 0
		if f.Stuck {
			cv = 1
		}
		return fmt.Sprintf("line %s is proven constant %d, matching the stuck value", c.GateName(p.site), cv)
	case infeasible:
		return fmt.Sprintf("excitation %s=%v is infeasible", c.GateName(p.site), !f.Stuck)
	case conflicting:
		return fmt.Sprintf("the conditions for detecting %s (excitation plus non-controlling side pins) conflict", f.Name(c))
	case blocked:
		return fmt.Sprintf("blocked at dominator %s: side input %s is implied to its controlling value by the excitation",
			c.GateName(p.dom), c.GateName(p.side))
	}
	return ""
}

// prove checks the three conditions for one fault of the universe on
// state s, which it leaves at the base.
func (s *state) prove(f fault.Fault) proof {
	e := s.e
	c := e.c
	// site: the signal whose good value must oppose the stuck value.
	site := f.Gate
	if !f.IsStem() {
		site = c.Fanin(f.Gate)[f.Pin]
	}

	// 1. Observability: the corrupted values live in the fanout cone of
	// f.Gate (the stem itself, or the branch's consuming gate).
	if !e.Observable(f.Gate) {
		return proof{kind: unobservable}
	}

	// 2. Excitation: a line constant at the stuck value never diverges.
	if cv := e.consts[site]; cv >= 0 && (cv == 1) == f.Stuck {
		return proof{kind: constant, site: site}
	}
	want := MkLit(site, !f.Stuck)
	if !e.feas[want] {
		// Only reachable if the constant table lags the feasibility
		// table; semantically the same proof as above.
		return proof{kind: infeasible, site: site}
	}

	// 3. Propagation through dominators under the conditions every
	// detecting vector must satisfy: the excitation, and — for a branch
	// fault — every side pin of the consuming gate at its
	// non-controlling value (a controlling side value kills the effect
	// before it leaves the gate). Side pins are fanins of the consuming
	// gate, so acyclicity keeps them outside the fault's fanout cone and
	// the conditions refer to fault-free values only. The excitation's
	// closure is resumed from the build, and the side pins propagate on
	// top of it.
	defer s.reset()
	conflict, _ := s.resume(want)
	if !conflict && !f.IsStem() {
		if cvb, hasCtl := c.Type(f.Gate).ControllingValue(); hasCtl {
			ncv := int8(1)
			if cvb {
				ncv = 0
			}
			for pin, w := range c.Fanin(f.Gate) {
				if pin != f.Pin {
					s.assign(w, ncv)
				}
			}
			conflict = s.propagate()
		}
	}
	if conflict {
		return proof{kind: conflicting}
	}

	// Mark the fanout cone of the corrupted signals.
	s.marked = append(s.marked[:0], int32(f.Gate))
	s.cone[f.Gate] = true
	for i := 0; i < len(s.marked); i++ {
		for _, g := range c.Fanout(int(s.marked[i])) {
			if !s.cone[g] {
				s.cone[g] = true
				s.marked = append(s.marked, int32(g))
			}
		}
	}
	defer func() {
		for _, g := range s.marked {
			s.cone[g] = false
		}
	}()

	// For a branch fault the effect first crosses the consuming gate,
	// whose other pins always carry fault-free values; then the
	// dominator chain of that gate. For a stem fault the chain alone.
	if !f.IsStem() {
		if w := s.blockingSide(f.Gate, f.Pin); w >= 0 {
			return proof{kind: blocked, dom: f.Gate, side: w}
		}
	}
	for d := e.idom[f.Gate]; d >= 0 && d != e.sink; d = e.idom[d] {
		if w := s.blockingSide(d, -1); w >= 0 {
			return proof{kind: blocked, dom: d, side: w}
		}
	}
	return proof{}
}

// blockingSide returns the side input of gate d (other than pin
// skipPin) outside the marked fanout cone that s holds at d's
// controlling value, or -1.
func (s *state) blockingSide(d int, skipPin int) int {
	c := s.e.c
	cvb, hasCtl := c.Type(d).ControllingValue()
	if !hasCtl {
		return -1 // XOR-likes and BUF/NOT never block
	}
	cv := int8(0)
	if cvb {
		cv = 1
	}
	for pin, w := range c.Fanin(d) {
		if pin == skipPin || s.cone[w] {
			continue
		}
		if s.val[w] == cv {
			return w
		}
	}
	return -1
}

// Collapse returns the engine-backed collapsed fault list: structural
// equivalence plus dominance collapsing (internal/fault) with every
// class containing a statically redundant fault removed, and dominance
// drops restricted to witnesses whose detection is still guaranteed.
func (e *Engine) Collapse() []fault.Fault {
	return fault.CollapseExcluding(e.c, e.RedundantFaults())
}
