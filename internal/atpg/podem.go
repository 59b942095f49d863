// Package atpg implements a PODEM automatic test pattern generator over
// five-valued logic (0, 1, X, D, D̄). It serves three roles in the
// reproduction: generating deterministic test sets whose sizes validate
// the Hayes–Friedman counts (E1), proving faults redundant, and producing
// top-up vectors for faults that random patterns miss.
package atpg

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/fault"
	"repro/internal/implic"
	"repro/internal/netlist"
	"repro/internal/progress"
)

// Value is a three-valued logic level for one circuit copy (good or
// faulty).
type Value uint8

// Three-valued levels. The five-valued composite (0,1,X,D,D̄) is the pair
// (good, faulty): D = (One, Zero), D̄ = (Zero, One).
const (
	X Value = iota
	Zero
	One
)

// String returns "0", "1" or "X".
func (v Value) String() string {
	switch v {
	case Zero:
		return "0"
	case One:
		return "1"
	}
	return "X"
}

func (v Value) invert() Value {
	switch v {
	case Zero:
		return One
	case One:
		return Zero
	}
	return X
}

// Status classifies the outcome of a PODEM run for one fault.
type Status uint8

// PODEM outcomes.
const (
	// Detected means a test vector was found.
	Detected Status = iota
	// Redundant means the search space was exhausted; no test exists.
	Redundant
	// Aborted means the backtrack limit was hit before a conclusion.
	Aborted
)

// String names the status.
func (s Status) String() string {
	switch s {
	case Detected:
		return "detected"
	case Redundant:
		return "redundant"
	case Aborted:
		return "aborted"
	}
	return fmt.Sprintf("Status(%d)", uint8(s))
}

// Options configures the generator.
type Options struct {
	// BacktrackLimit bounds the search per fault (0 = 20000).
	BacktrackLimit int
	// Learn optionally supplies a static implication engine built on the
	// same circuit (internal/implic). When set, the search prunes
	// decision subtrees in which the learned implications prove that the
	// fault can no longer be excited or its effect can no longer reach
	// an output. Pruning only cuts subtrees that contain no test, so the
	// result status never changes and the backtrack count never exceeds
	// the unassisted search.
	Learn *implic.Engine
}

// Result reports one PODEM run.
type Result struct {
	Status Status
	// Vector is the generated test (one bool per primary input, don't
	// cares filled with false) when Status == Detected.
	Vector []bool
	// Backtracks counts decisions undone during the search.
	Backtracks int
}

// engine holds the per-run state.
type engine struct {
	c      *netlist.Circuit
	f      fault.Fault
	good   []Value
	bad    []Value
	assign []Value // PI decisions, indexed by input position
	limit  int
	backs  int

	// Learned-implication pruning state (nil/empty without Options.Learn).
	learn      *implic.Engine
	cone       []bool  // fanout cone of f.Gate: signals that may carry the fault effect
	implied    []Value // fault-free values forced by the current assignment
	impTouched []int   // signals set in implied, for O(touched) reset

	// Fan-in scratch reused across imply calls: imply runs once per
	// search decision and backtrack, so per-call allocation here is what
	// the allocs/op tests in alloc_test.go forbid.
	inG, inB []Value

	// done aborts the search when it becomes readable (nil = never);
	// ctxErr records ctx.Err() when that happened.
	ctx    context.Context
	done   <-chan struct{}
	ctxErr error
}

// Generate runs PODEM for a single stuck-at fault.
func Generate(c *netlist.Circuit, f fault.Fault, opts Options) (*Result, error) {
	return GenerateContext(context.Background(), c, f, opts)
}

// GenerateContext is Generate with cancellation: the context is polled
// once per decision of the search loop, so an expired or cancelled
// context stops the search within one imply/backtrace step. It returns
// nil and ctx.Err() when cancelled mid-search.
func GenerateContext(ctx context.Context, c *netlist.Circuit, f fault.Fault, opts Options) (*Result, error) {
	if f.Gate < 0 || f.Gate >= c.NumGates() {
		return nil, fmt.Errorf("atpg: fault %v: gate out of range", f)
	}
	if !f.IsStem() && f.Pin >= len(c.Fanin(f.Gate)) {
		return nil, fmt.Errorf("atpg: fault %v: pin out of range", f)
	}
	limit := opts.BacktrackLimit
	if limit <= 0 {
		limit = 20000
	}
	e := &engine{
		c:      c,
		f:      f,
		good:   make([]Value, c.NumGates()),
		bad:    make([]Value, c.NumGates()),
		assign: make([]Value, c.NumInputs()),
		limit:  limit,
		inG:    make([]Value, 0, 8),
		inB:    make([]Value, 0, 8),
		ctx:    ctx,
		done:   ctx.Done(),
	}
	if opts.Learn != nil && opts.Learn.Circuit() == c {
		e.learn = opts.Learn
		e.implied = make([]Value, c.NumGates())
		e.cone = make([]bool, c.NumGates())
		e.cone[f.Gate] = true
		for _, id := range c.TopoOrder() {
			if e.cone[id] {
				for _, g := range c.Fanout(id) {
					e.cone[g] = true
				}
			}
		}
	}
	ok, aborted := e.search()
	if e.ctxErr != nil {
		return nil, e.ctxErr
	}
	res := &Result{Backtracks: e.backs}
	switch {
	case ok:
		res.Status = Detected
		res.Vector = make([]bool, c.NumInputs())
		for i, v := range e.assign {
			res.Vector[i] = v == One
		}
	case aborted:
		res.Status = Aborted
	default:
		res.Status = Redundant
	}
	return res, nil
}

// imply re-simulates both circuit copies under the current PI assignment.
func (e *engine) imply() {
	c := e.c
	for i, in := range c.Inputs() {
		e.good[in] = e.assign[i]
		e.bad[in] = e.assign[i]
	}
	inG, inB := e.inG[:0], e.inB[:0]
	for _, id := range c.TopoOrder() {
		g := c.Gate(id)
		if g.Type != netlist.Input {
			inG = inG[:0]
			inB = inB[:0]
			for pin, fin := range g.Fanin {
				gv, bv := e.good[fin], e.bad[fin]
				if !e.f.IsStem() && e.f.Gate == id && e.f.Pin == pin {
					bv = stuckValue(e.f.Stuck)
				}
				inG = append(inG, gv)
				inB = append(inB, bv)
			}
			e.good[id] = eval3(g.Type, inG)
			e.bad[id] = eval3(g.Type, inB)
		}
		if e.f.IsStem() && e.f.Gate == id {
			e.bad[id] = stuckValue(e.f.Stuck)
		}
	}
	// Keep any growth, so the backing arrays are warm for the next call.
	e.inG, e.inB = inG, inB
}

func stuckValue(s bool) Value {
	if s {
		return One
	}
	return Zero
}

// eval3 evaluates a gate over three-valued inputs.
func eval3(t netlist.GateType, in []Value) Value {
	switch t {
	case netlist.Buf:
		return in[0]
	case netlist.Not:
		return in[0].invert()
	case netlist.And, netlist.Nand:
		v := One
		for _, x := range in {
			if x == Zero {
				v = Zero
				break
			}
			if x == X {
				v = X
			}
		}
		if t == netlist.Nand {
			return v.invert()
		}
		return v
	case netlist.Or, netlist.Nor:
		v := Zero
		for _, x := range in {
			if x == One {
				v = One
				break
			}
			if x == X {
				v = X
			}
		}
		if t == netlist.Nor {
			return v.invert()
		}
		return v
	case netlist.Xor, netlist.Xnor:
		v := Zero
		for _, x := range in {
			if x == X {
				return X
			}
			if x == One {
				v = v.invert()
			}
		}
		if t == netlist.Xnor {
			return v.invert()
		}
		return v
	}
	return X
}

// detected reports whether a D/D̄ has reached a primary output.
func (e *engine) detected() bool {
	for _, o := range e.c.Outputs() {
		if e.good[o] != X && e.bad[o] != X && e.good[o] != e.bad[o] {
			return true
		}
	}
	return false
}

// faultSite returns the signal whose good value excites the fault: the
// driver line for a branch fault, the gate output for a stem fault.
func (e *engine) faultSite() int {
	if e.f.IsStem() {
		return e.f.Gate
	}
	return e.c.Fanin(e.f.Gate)[e.f.Pin]
}

// objective returns the next (signal, value) goal: excite the fault if
// not yet excited, otherwise advance the D-frontier.
func (e *engine) objective() (int, Value, bool) {
	site := e.faultSite()
	want := stuckValue(e.f.Stuck).invert()
	if e.good[site] == X {
		return site, want, true
	}
	// Fault must actually be excited: good value opposite the stuck value
	// at the site (for branch faults the divergence is inside the
	// consuming gate, checked via its inputs during imply).
	if e.good[site] != want {
		return 0, X, false
	}
	// D-frontier: gates whose output is still undetermined in at least
	// one copy (so the divergence can still surface) and whose inputs
	// carry a definite good/bad divergence.
	for _, id := range e.c.TopoOrder() {
		g := e.c.Gate(id)
		if g.Type == netlist.Input {
			continue
		}
		if e.good[id] != X && e.bad[id] != X {
			continue
		}
		diverges := false
		for pin, fin := range g.Fanin {
			gv, bv := e.good[fin], e.bad[fin]
			if !e.f.IsStem() && e.f.Gate == id && e.f.Pin == pin {
				bv = stuckValue(e.f.Stuck)
			}
			if gv != X && bv != X && gv != bv {
				diverges = true
				break
			}
		}
		if !diverges {
			continue
		}
		// Objective: set an X input to the non-controlling value.
		cv, hasCtrl := g.Type.ControllingValue()
		for _, fin := range g.Fanin {
			if e.good[fin] == X {
				if hasCtrl {
					if cv {
						return fin, Zero, true
					}
					return fin, One, true
				}
				// XOR-likes propagate for any value; pick 0.
				return fin, Zero, true
			}
		}
	}
	return 0, X, false
}

// pruned consults the static implication engine and reports whether the
// current partial assignment provably admits no test, so the whole
// decision subtree can be abandoned without exploring it. Two sound
// cuts, both over fault-free (good-circuit) knowledge:
//
//   - excitation: the fault site is still X but every completion of the
//     assignment forces it to the stuck value;
//   - propagation: the fault is excited, the D-frontier is non-empty,
//     and every frontier gate has a fault-free side input (outside the
//     fault's fanout cone, so its value is identical in both circuit
//     copies) forced to the gate's controlling value, which fixes the
//     gate output identically in both copies. New frontier gates only
//     appear downstream of current ones, so killing the whole frontier
//     kills the subtree.
//
// An empty D-frontier is left to objective(), which already fails then.
func (e *engine) pruned() bool {
	if e.learn == nil {
		return false
	}
	// Close the definite good values under the implication database.
	for _, s := range e.impTouched {
		e.implied[s] = X
	}
	e.impTouched = e.impTouched[:0]
	for s := 0; s < e.c.NumGates(); s++ {
		if e.good[s] == X {
			continue
		}
		for _, l := range e.learn.Implied(implic.MkLit(s, e.good[s] == One)) {
			t := l.Signal()
			if e.implied[t] == X {
				e.implied[t] = stuckValue(l.Val())
				e.impTouched = append(e.impTouched, t)
			}
		}
	}

	site := e.faultSite()
	want := stuckValue(e.f.Stuck).invert()
	if e.good[site] == X {
		// Every completion drives the site to the stuck value: the fault
		// can never be excited under this assignment.
		return e.implied[site] == stuckValue(e.f.Stuck)
	}
	if e.good[site] != want {
		return false
	}

	frontier := 0
	for _, id := range e.c.TopoOrder() {
		g := e.c.Gate(id)
		if g.Type == netlist.Input {
			continue
		}
		if e.good[id] != X && e.bad[id] != X {
			continue
		}
		diverges := false
		for pin, fin := range g.Fanin {
			gv, bv := e.good[fin], e.bad[fin]
			if !e.f.IsStem() && e.f.Gate == id && e.f.Pin == pin {
				bv = stuckValue(e.f.Stuck)
			}
			if gv != X && bv != X && gv != bv {
				diverges = true
				break
			}
		}
		if !diverges {
			continue
		}
		frontier++
		cvb, hasCtl := g.Type.ControllingValue()
		if !hasCtl {
			return false // XOR-likes and BUF/NOT always propagate
		}
		cv := stuckValue(cvb)
		dead := false
		for pin, fin := range g.Fanin {
			if !e.f.IsStem() && e.f.Gate == id && e.f.Pin == pin {
				continue
			}
			if e.good[fin] != X || e.cone[fin] {
				continue
			}
			if e.implied[fin] == cv {
				dead = true
				break
			}
		}
		if !dead {
			return false
		}
	}
	return frontier > 0
}

// backtrace maps an objective to a primary input assignment along a path
// of X-valued signals.
func (e *engine) backtrace(sig int, val Value) (int, Value) {
	c := e.c
	for c.Type(sig) != netlist.Input {
		g := c.Gate(sig)
		if g.Type.Inverting() {
			val = val.invert()
		}
		// Choose an X-valued input; prefer the first (simple heuristic).
		next := -1
		for _, fin := range g.Fanin {
			if e.good[fin] == X {
				next = fin
				break
			}
		}
		if next < 0 {
			next = g.Fanin[0]
		}
		sig = next
		// XOR objectives are value-agnostic for propagation; keep val.
	}
	// Translate signal to input position.
	for i, in := range c.Inputs() {
		if in == sig {
			return i, val
		}
	}
	return -1, X
}

// search is the PODEM decision loop.
func (e *engine) search() (found, aborted bool) {
	type decision struct {
		input   int
		value   Value
		flipped bool
	}
	var stack []decision
	e.imply()
	for {
		select {
		case <-e.done:
			e.ctxErr = e.ctx.Err()
			return false, true
		default:
		}
		if e.detected() {
			return true, false
		}
		if !e.pruned() {
			sig, val, ok := e.objective()
			if ok {
				in, v := e.backtrace(sig, val)
				if in >= 0 && e.assign[in] == X {
					stack = append(stack, decision{input: in, value: v})
					e.assign[in] = v
					e.imply()
					continue
				}
				// Backtrace landed on an assigned input: treat as conflict.
			}
		}
		// Conflict or no objective: backtrack.
		for {
			if len(stack) == 0 {
				return false, false
			}
			top := &stack[len(stack)-1]
			if !top.flipped {
				e.backs++
				if e.backs > e.limit {
					return false, true
				}
				top.flipped = true
				top.value = top.value.invert()
				e.assign[top.input] = top.value
				e.imply()
				break
			}
			e.assign[top.input] = X
			stack = stack[:len(stack)-1]
		}
	}
}

// TestSet is the outcome of whole-circuit test generation.
type TestSet struct {
	Vectors   [][]bool
	Detected  []fault.Fault
	Redundant []fault.Fault
	Aborted   []fault.Fault
}

// ErrNoFaults is returned when the fault list is empty.
var ErrNoFaults = errors.New("atpg: empty fault list")

// GenerateTests produces a compacted deterministic test set for the fault
// list: faults are targeted in order, and each new vector is fault-
// simulated against the remaining faults so that incidentally-detected
// faults are dropped without their own PODEM run.
func GenerateTests(c *netlist.Circuit, faults []fault.Fault, opts Options) (*TestSet, error) {
	return GenerateTestsContext(context.Background(), c, faults, opts)
}

// GenerateTestsContext is GenerateTests with cancellation: the context is
// checked between per-fault PODEM runs, inside each run's decision loop,
// and once per fault while a new vector's detections are dropped. On
// cancellation the partial TestSet built so far (every vector in it is
// a complete, valid test) is returned alongside ctx.Err(). When
// ctx carries a progress.Func, one "faults" sample is emitted before
// each PODEM run, counting faults already resolved.
func GenerateTestsContext(ctx context.Context, c *netlist.Circuit, faults []fault.Fault, opts Options) (*TestSet, error) {
	if len(faults) == 0 {
		return nil, ErrNoFaults
	}
	ts := &TestSet{}
	report := progress.FromContext(ctx)
	done := ctx.Done()
	remaining := append([]fault.Fault(nil), faults...)
	for len(remaining) > 0 {
		if report != nil {
			report("faults", int64(len(faults)-len(remaining)), int64(len(faults)))
		}
		target := remaining[0]
		res, err := GenerateContext(ctx, c, target, opts)
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			return ts, err
		}
		if err != nil {
			return nil, err
		}
		switch res.Status {
		case Redundant:
			ts.Redundant = append(ts.Redundant, target)
			remaining = remaining[1:]
		case Aborted:
			ts.Aborted = append(ts.Aborted, target)
			remaining = remaining[1:]
		case Detected:
			ts.Vectors = append(ts.Vectors, res.Vector)
			// Drop everything this vector detects. Each check simulates
			// the whole circuit twice, so on a large fault list the loop
			// runs for seconds and polls ctx once per fault.
			kept := remaining[:0]
			for _, f := range remaining {
				select {
				case <-done:
					return ts, ctx.Err()
				default:
				}
				if vectorDetects(c, f, res.Vector) {
					ts.Detected = append(ts.Detected, f)
				} else {
					kept = append(kept, f)
				}
			}
			if len(kept) == len(remaining) {
				// The vector must detect at least its target; guard
				// against an engine bug rather than looping forever.
				return nil, fmt.Errorf("atpg: generated vector fails to detect its target %v", target)
			}
			remaining = kept
		}
	}
	return ts, nil
}

// vectorDetects checks by two-copy simulation whether the vector detects
// the fault.
func vectorDetects(c *netlist.Circuit, f fault.Fault, vec []bool) bool {
	good := make([]Value, c.NumGates())
	bad := make([]Value, c.NumGates())
	for i, in := range c.Inputs() {
		v := Zero
		if vec[i] {
			v = One
		}
		good[in] = v
		bad[in] = v
	}
	inG := make([]Value, 0, 8)
	inB := make([]Value, 0, 8)
	for _, id := range c.TopoOrder() {
		g := c.Gate(id)
		if g.Type != netlist.Input {
			inG = inG[:0]
			inB = inB[:0]
			for pin, fin := range g.Fanin {
				gv, bv := good[fin], bad[fin]
				if !f.IsStem() && f.Gate == id && f.Pin == pin {
					bv = stuckValue(f.Stuck)
				}
				inG = append(inG, gv)
				inB = append(inB, bv)
			}
			good[id] = eval3(g.Type, inG)
			bad[id] = eval3(g.Type, inB)
		}
		if f.IsStem() && f.Gate == id {
			bad[id] = stuckValue(f.Stuck)
		}
	}
	for _, o := range c.Outputs() {
		if good[o] != bad[o] {
			return true
		}
	}
	return false
}
