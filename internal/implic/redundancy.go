package implic

import (
	"context"
	"fmt"

	"repro/internal/fault"
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

// computeRedundant runs the pass, polling done once per fault; it
// returns ok=false when done fires first. A nil done never fires.
func (e *Engine) computeRedundant(done <-chan struct{}) (out []RedundantFault, ok bool) {
	out = []RedundantFault{}
	cone := make([]bool, e.c.NumGates())
	var marked []int
	for _, f := range fault.Universe(e.c) {
		select {
		case <-done:
			return nil, false
		default:
		}
		if reason, ok := e.redundantReason(f, cone, &marked); ok {
			out = append(out, RedundantFault{F: f, Reason: reason})
		}
	}
	return out, true
}

// redundantReason checks the three conditions for one fault. cone and
// marked are caller-owned scratch for the fanout-cone marking.
func (e *Engine) redundantReason(f fault.Fault, cone []bool, marked *[]int) (string, bool) {
	c := e.c
	// site: the signal whose good value must oppose the stuck value.
	site := f.Gate
	if !f.IsStem() {
		site = c.Fanin(f.Gate)[f.Pin]
	}

	// 1. Observability: the corrupted values live in the fanout cone of
	// f.Gate (the stem itself, or the branch's consuming gate).
	if !e.Observable(f.Gate) {
		return "no structural path from the fault site to a primary output", true
	}

	// 2. Excitation: a line constant at the stuck value never diverges.
	if cv := e.consts[site]; cv >= 0 && (cv == 1) == f.Stuck {
		return fmt.Sprintf("line %s is proven constant %d, matching the stuck value", c.GateName(site), cv), true
	}
	want := MkLit(site, !f.Stuck)
	if !e.feas[want] {
		// Only reachable if the constant table lags the feasibility
		// table; semantically the same proof as above.
		return fmt.Sprintf("excitation %s=%v is infeasible", c.GateName(site), !f.Stuck), true
	}

	// 3. Propagation through dominators under the conditions every
	// detecting vector must satisfy: the excitation, and — for a branch
	// fault — every side pin of the consuming gate at its
	// non-controlling value (a controlling side value kills the effect
	// before it leaves the gate). Side pins are fanins of the consuming
	// gate, so acyclicity keeps them outside the fault's fanout cone and
	// the conditions refer to fault-free values only.
	seeds := []Lit{want}
	if !f.IsStem() {
		if cvb, hasCtl := c.Type(f.Gate).ControllingValue(); hasCtl {
			for pin, w := range c.Fanin(f.Gate) {
				if pin != f.Pin {
					seeds = append(seeds, MkLit(w, !cvb))
				}
			}
		}
	}
	if e.run(seeds...) {
		defer e.reset()
		return fmt.Sprintf("the conditions for detecting %s (excitation plus non-controlling side pins) conflict", f.Name(c)), true
	}
	defer e.reset()

	// Mark the fanout cone of the corrupted signals.
	*marked = (*marked)[:0]
	mark := func(s int) {
		if !cone[s] {
			cone[s] = true
			*marked = append(*marked, s)
		}
	}
	mark(f.Gate)
	for i := 0; i < len(*marked); i++ {
		for _, g := range c.Fanout((*marked)[i]) {
			mark(g)
		}
	}
	defer func() {
		for _, s := range *marked {
			cone[s] = false
		}
	}()

	// For a branch fault the effect first crosses the consuming gate,
	// whose other pins always carry fault-free values; then the
	// dominator chain of that gate. For a stem fault the chain alone.
	check := func(d int, skipPin int) (string, bool) {
		t := c.Type(d)
		cvb, hasCtl := t.ControllingValue()
		if !hasCtl {
			return "", false // XOR-likes and BUF/NOT never block
		}
		cv := int8(0)
		if cvb {
			cv = 1
		}
		for pin, w := range c.Fanin(d) {
			if pin == skipPin || cone[w] {
				continue
			}
			if e.val[w] == cv {
				return fmt.Sprintf("blocked at dominator %s: side input %s is implied to its controlling value by the excitation",
					c.GateName(d), c.GateName(w)), true
			}
		}
		return "", false
	}
	if !f.IsStem() {
		if reason, ok := check(f.Gate, f.Pin); ok {
			return reason, true
		}
	}
	for _, d := range e.Dominators(f.Gate) {
		if reason, ok := check(d, -1); ok {
			return reason, true
		}
	}
	return "", false
}

// Collapse returns the engine-backed collapsed fault list: structural
// equivalence plus dominance collapsing (internal/fault) with every
// class containing a statically redundant fault removed, and dominance
// drops restricted to witnesses whose detection is still guaranteed.
func (e *Engine) Collapse() []fault.Fault {
	return fault.CollapseExcluding(e.c, e.RedundantFaults())
}
