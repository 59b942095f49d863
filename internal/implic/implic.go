// Package implic is the static implication engine over a gate-level
// netlist: the reasoning layer between the purely structural lint passes
// and the search-based tools (PODEM, the TPI planners).
//
// The engine computes three kinds of static knowledge, none of which
// applies a single simulation pattern:
//
//   - direct implications: assigning a line to 0 or 1 and propagating
//     gate semantics forward (controlling values) and backward
//     (justification) to a fixpoint;
//   - indirect implications, learned SOCRATES-style: whenever
//     propagating a => b, the contrapositive !b => !a is recorded and
//     replayed in later propagations, which discovers implications that
//     no single forward/backward pass can see (e.g. z=1 => a=1 for
//     z = OR(AND(a,b), AND(a,c)));
//   - structural dominators: for every line, the gates that every path
//     to a primary output must pass through (computed over the fanout
//     graph against a virtual sink fed by all primary outputs).
//
// On top of those, redundancy.go proves stuck-at faults untestable
// without invoking ATPG, and Collapse folds that proof plus
// equivalence/dominance collapsing into a reduced fault universe.
//
// A propagation that conflicts proves the seed infeasible, so the line
// is constant at the opposite value. The closure of the proven constants
// (the base) stays assigned between propagations, so every later
// propagation starts from it and constant knowledge compounds across
// learning rounds without being re-derived per literal. Each stored
// closure is resumed rather than re-derived: later sweeps and the
// redundancy proofs start a literal from its implied list and propagate
// only what changed since that list was stored.
package implic

import (
	"context"
	"slices"

	"repro/internal/netlist"
)

// Lit encodes one (signal, value) assignment as 2*signal+value.
type Lit int32

// MkLit builds the literal for signal sig carrying value val.
func MkLit(sig int, val bool) Lit {
	l := Lit(sig) << 1
	if val {
		l |= 1
	}
	return l
}

// Signal returns the literal's signal ID.
func (l Lit) Signal() int { return int(l >> 1) }

// Val returns the literal's value.
func (l Lit) Val() bool { return l&1 == 1 }

// Neg returns the literal with the value complemented.
func (l Lit) Neg() Lit { return l ^ 1 }

// Options configures the engine build.
type Options struct {
	// LearnRounds bounds the SOCRATES contrapositive learning
	// iterations (0 = default 2, negative = direct implications only).
	// Each round re-propagates every literal with the implications
	// learned so far, so later rounds can only add knowledge.
	LearnRounds int
}

// Engine holds the implication database, the proven constants and the
// dominator tree of one circuit. Build it once with New; all queries
// are read-only afterwards except the lazily-computed redundancy pass.
type Engine struct {
	c       *netlist.Circuit
	imp     [][]Lit // imp[l]: literals implied by l (sorted, l excluded)
	learned [][]Lit // contrapositive edges replayed during propagation
	nLearn  int
	consts  []int8 // proven constant value per signal (-1 = none)
	feas    []bool // per literal: assigning it does not conflict

	// dominators (dominator.go); sink == NumGates() is the virtual sink
	idom []int
	rpo  []int // reverse-postorder number per node, -1 = dead
	sink int

	// lazily computed redundancy pass (redundancy.go)
	redundant []RedundantFault

	// Propagation state. Between runs val holds the base, the closure
	// of the proven constants, and base lists its literals in ascending
	// order. A run assigns on top of it: touched records the signals it
	// assigned, pending the literals whose learned edges are not yet
	// replayed, gq (with inq) the gates left to evaluate.
	val      []int8
	base     []Lit
	spare    []Lit // the previous base's array, reused by commit
	touched  []int32
	pending  []Lit
	gq       []int32
	inq      []bool
	conflict bool

	// What resume needs to bring a stored closure up to date: joined
	// lists the signals in the order they entered the base (they never
	// leave it), seen[l] is len(joined) when imp[l] was stored, and
	// mark[l] is len(learned[l]) as of the last sweep.
	joined []int32
	seen   []int32
	mark   []int32

	// build-time cancellation (context.go); cleared before build returns
	// so post-build queries never observe a dead request context.
	buildCtx  context.Context
	buildDone <-chan struct{}
}

// New builds the engine: dominators, then LearnRounds+1 implication
// sweeps over every literal with contrapositive learning in between.
// Use NewContext to bound the build by a request deadline.
func New(c *netlist.Circuit, opts Options) *Engine {
	e, err := NewContext(context.Background(), c, opts)
	if err != nil {
		panic(err) // unreachable: the background context is never done
	}
	return e
}

// build is the engine constructor body shared by New and NewContext.
func build(ctx context.Context, c *netlist.Circuit, opts Options) *Engine {
	n := c.NumGates()
	e := &Engine{
		c:       c,
		imp:     make([][]Lit, 2*n),
		learned: make([][]Lit, 2*n),
		consts:  make([]int8, n),
		feas:    make([]bool, 2*n),
		val:     make([]int8, n),
		inq:     make([]bool, n),
		seen:    make([]int32, 2*n),
		mark:    make([]int32, 2*n),
	}
	for i := range e.consts {
		e.consts[i] = -1
	}
	for i := range e.val {
		e.val[i] = -1
	}
	e.buildCtx = ctx
	e.buildDone = ctx.Done()
	defer func() {
		e.buildCtx = nil
		e.buildDone = nil
	}()
	e.computeDominators()

	rounds := opts.LearnRounds
	if rounds == 0 {
		rounds = 2
	}
	if rounds < 0 {
		rounds = 0
	}
	for iter := 0; ; iter++ {
		e.pollBuild()
		newConst := e.sweep()
		if iter >= rounds {
			break
		}
		if !e.learn() && !newConst {
			break
		}
	}
	return e
}

// Circuit returns the analyzed circuit.
func (e *Engine) Circuit() *netlist.Circuit { return e.c }

// NumLearned returns how many contrapositive implications were learned.
func (e *Engine) NumLearned() int { return e.nLearn }

// NumImplications returns the total size of the implication database
// (implied literals summed over all feasible seed literals).
func (e *Engine) NumImplications() int {
	n := 0
	for _, l := range e.imp {
		n += len(l)
	}
	return n
}

// ConstValue reports whether the signal is proven constant and at which
// value.
func (e *Engine) ConstValue(sig int) (val, ok bool) {
	if v := e.consts[sig]; v >= 0 {
		return v == 1, true
	}
	return false, false
}

// Constants returns the proven-constant signal IDs in ascending order.
func (e *Engine) Constants() []int {
	var out []int
	for sig, v := range e.consts {
		if v >= 0 {
			out = append(out, sig)
		}
	}
	return out
}

// Feasible reports whether assigning the literal is consistent with the
// circuit (false exactly when the signal is constant at the opposite
// value).
func (e *Engine) Feasible(l Lit) bool { return e.feas[l] }

// Implied returns the literals implied by l, sorted by literal value.
// The slice is nil when l is infeasible and must not be modified.
func (e *Engine) Implied(l Lit) []Lit { return e.imp[l] }

// Implies reports whether assigning `from` implies `to`.
func (e *Engine) Implies(from, to Lit) bool {
	_, ok := slices.BinarySearch(e.imp[from], to)
	return ok
}

// sweep recomputes the implied set of every literal under the current
// learned database and constants, and reports whether a new constant was
// proven. A constant proven mid-sweep joins the base at once, so the
// literals after it see it. A literal feasible in the previous sweep
// resumes its stored closure; the first sweep has none and runs each
// literal from the base.
func (e *Engine) sweep() (newConst bool) {
	e.rebuildBase()
	n := e.c.NumGates()
	for sig := 0; sig < n; sig++ {
		for v := int8(0); v <= 1; v++ {
			l := MkLit(sig, v == 1)
			if cv := e.consts[sig]; cv >= 0 && cv != v {
				e.feas[l] = false
				e.imp[l] = nil
				continue
			}
			conflict, same := false, false
			if e.feas[l] {
				conflict, same = e.resume(l)
			} else {
				conflict = e.run(l)
			}
			if conflict {
				e.reset()
				e.feas[l] = false
				e.imp[l] = nil
				if e.consts[sig] < 0 {
					e.consts[sig] = 1 - v
					newConst = true
					e.run(l.Neg())
					e.commit()
				}
				continue
			}
			e.feas[l] = true
			if !same {
				e.imp[l] = e.assigned(e.imp[l][:0], sig)
			}
			e.seen[l] = int32(len(e.joined))
			e.reset()
		}
	}
	for l, list := range e.learned {
		e.mark[l] = int32(len(list))
	}
	return newConst
}

// rebuildBase extends the base to the closure of the proven constants
// under the learned database, which grows between sweeps. Every
// constant is already in the base, and the base is a fixpoint under the
// database of the last sweep, so replaying the edges learned since
// reaches the closure a propagation from scratch would. Sound constants
// never conflict.
func (e *Engine) rebuildBase() {
	for _, y := range e.base {
		e.replayLearned(y)
	}
	e.propagate()
	e.commit()
}

// commit folds the last run's assignments into the base. The merge
// cannot write into the base it reads, so the new base is built in the
// previous one's array.
func (e *Engine) commit() {
	e.joined = append(e.joined, e.touched...)
	e.spare = e.assigned(e.spare[:0], -1)
	e.base, e.spare = e.spare, e.base
	e.touched = e.touched[:0]
}

// assigned appends to dst every literal assigned after the last run,
// the base included, in ascending order and leaving out signal skip (-1
// keeps all). The base is kept sorted and the run's own assignments are
// sorted here, so one merge builds the list. dst is grown once, to hold
// every literal, before the merge.
func (e *Engine) assigned(dst []Lit, skip int) []Lit {
	dst = slices.Grow(dst, len(e.base)+len(e.touched))
	slices.Sort(e.touched)
	b, t := e.base, e.touched
	for len(b) > 0 || len(t) > 0 {
		var l Lit
		if len(t) == 0 || (len(b) > 0 && b[0].Signal() < int(t[0])) {
			l, b = b[0], b[1:]
		} else {
			l, t = MkLit(int(t[0]), e.val[t[0]] == 1), t[1:]
		}
		if l.Signal() != skip {
			dst = append(dst, l)
		}
	}
	return dst
}

// learn records the contrapositive of every implication not already in
// the database: a => b yields !b => !a. Reports whether anything new was
// learned.
func (e *Engine) learn() bool {
	added := false
	for li, list := range e.imp {
		a := Lit(li)
		if !e.feas[a] {
			continue
		}
		for _, b := range list {
			nb, na := b.Neg(), a.Neg()
			if !e.feas[nb] || e.Implies(nb, na) {
				continue
			}
			dup := false
			for _, x := range e.learned[nb] {
				if x == na {
					dup = true
					break
				}
			}
			if dup {
				continue
			}
			e.learned[nb] = append(e.learned[nb], na)
			e.nLearn++
			added = true
		}
	}
	return added
}

// run propagates the seed literal on top of the base to a fixpoint,
// leaving the assignment in e.val (-1 = unassigned), and reports whether
// a conflict arose. Propagation reaches the same fixpoint, or the same
// conflict, in any order, so starting from the base gives what
// propagating every constant along with the seed would. Callers must
// call reset (or commit) afterwards.
func (e *Engine) run(seed Lit) (conflict bool) {
	e.assign(seed.Signal(), litVal(seed))
	return e.propagate()
}

// resume is run(l) for a literal whose closure imp[l] is stored: it
// reaches the same fixpoint, or the same conflict, without re-deriving
// that closure. The learned database and the base have only grown since
// imp[l] was stored, so the stored closure is part of the new one and
// was a fixpoint under the old state. resume therefore loads it without
// queueing anything, replays the edges learned since for the literals
// it loaded, and re-evaluates the gates next to the signals that joined
// the base since. same reports that the fixpoint is exactly the stored
// closure on the same base, so imp[l] needs no update. Callers must
// call reset afterwards.
func (e *Engine) resume(l Lit) (conflict, same bool) {
	e.load(l)
	for _, y := range e.imp[l] {
		e.load(y)
	}
	if e.conflict {
		return true, false
	}
	loaded := e.touched
	for _, s := range loaded {
		e.replayLearned(MkLit(int(s), e.val[s] == 1))
	}
	delta := e.joined[e.seen[l]:]
	for _, s := range delta {
		e.enqueue(int(s))
		for _, g := range e.c.Fanout(int(s)) {
			e.enqueue(g)
		}
	}
	if e.propagate() {
		return true, false
	}
	return false, len(delta) == 0 && len(e.touched) == len(loaded)
}

// replayLearned assigns what y implies by the edges learned since the
// last sweep.
func (e *Engine) replayLearned(y Lit) {
	for _, t := range e.learned[y][e.mark[y]:] {
		e.assign(t.Signal(), litVal(t))
	}
}

// load assigns the literal of a stored closure. Unlike assign it queues
// neither gates nor learned edges, since the closure was a fixpoint; a
// literal contradicting the base records a conflict.
func (e *Engine) load(y Lit) {
	sig, v := y.Signal(), litVal(y)
	switch e.val[sig] {
	case v:
	case -1:
		e.val[sig] = v
		e.touched = append(e.touched, int32(sig))
	default:
		e.conflict = true
	}
}

// litVal returns the literal's value as a propagation value.
func litVal(l Lit) int8 { return int8(l & 1) }

// assign sets sig to v and queues its learned edges, the gate itself and
// its fanout gates; assigning the opposite of a known value records a
// conflict.
func (e *Engine) assign(sig int, v int8) {
	switch e.val[sig] {
	case v:
		return
	case -1:
		e.val[sig] = v
		e.touched = append(e.touched, int32(sig))
		e.pending = append(e.pending, MkLit(sig, v == 1))
		e.enqueue(sig)
		for _, g := range e.c.Fanout(sig) {
			e.enqueue(g)
		}
	default:
		e.conflict = true
	}
}

func (e *Engine) enqueue(g int) {
	if !e.inq[g] {
		e.inq[g] = true
		e.gq = append(e.gq, int32(g))
	}
}

// propagate drains the worklists until a fixpoint or a conflict and
// reports whether a conflict arose.
func (e *Engine) propagate() bool {
	// Poll the build context every 1024 worklist steps: propagation is
	// the hot inner loop of the sweeps, so the select is amortized the
	// same way fsim amortizes its per-block poll.
	steps := 0
	for !e.conflict && (len(e.pending) > 0 || len(e.gq) > 0) {
		if steps++; steps&1023 == 0 {
			e.pollBuild()
		}
		if n := len(e.pending); n > 0 {
			l := e.pending[n-1]
			e.pending = e.pending[:n-1]
			for _, t := range e.learned[l] {
				e.assign(t.Signal(), litVal(t))
			}
			continue
		}
		g := int(e.gq[len(e.gq)-1])
		e.gq = e.gq[:len(e.gq)-1]
		e.inq[g] = false
		e.evalGate(g)
	}
	return e.conflict
}

// reset undoes the last run, restoring the base.
func (e *Engine) reset() {
	for _, t := range e.touched {
		e.val[t] = -1
	}
	e.touched = e.touched[:0]
	e.pending = e.pending[:0]
	for _, g := range e.gq {
		e.inq[g] = false
	}
	e.gq = e.gq[:0]
	e.conflict = false
}

// evalGate applies the bidirectional gate rules of gate id under the
// current partial assignment:
//
//   - forward: a controlling input (or all inputs known) fixes the
//     output;
//   - backward: the uncontrolled output value fixes every input to the
//     non-controlling value; the controlled output value with exactly
//     one unknown input and no controlling input justifies that input;
//   - XOR/XNOR: all-but-one known pins determine the last, in either
//     direction.
func (e *Engine) evalGate(id int) {
	t, fanin := e.c.Type(id), e.c.Fanin(id)
	switch t {
	case netlist.Input:
	case netlist.Buf:
		in := fanin[0]
		if v := e.val[in]; v >= 0 {
			e.assign(id, v)
		}
		if v := e.val[id]; v >= 0 {
			e.assign(in, v)
		}
	case netlist.Not:
		in := fanin[0]
		if v := e.val[in]; v >= 0 {
			e.assign(id, 1-v)
		}
		if v := e.val[id]; v >= 0 {
			e.assign(in, 1-v)
		}
	case netlist.And, netlist.Nand, netlist.Or, netlist.Nor:
		cv := int8(0) // controlling input value
		if t == netlist.Or || t == netlist.Nor {
			cv = 1
		}
		ov := cv // controlled output value
		if t.Inverting() {
			ov = 1 - ov
		}
		unknown, last := 0, -1
		anyCtl := false
		for _, in := range fanin {
			switch e.val[in] {
			case -1:
				unknown++
				last = in
			case cv:
				anyCtl = true
			}
		}
		if anyCtl {
			e.assign(id, ov)
		} else if unknown == 0 {
			e.assign(id, 1-ov)
		}
		switch e.val[id] {
		case 1 - ov:
			for _, in := range fanin {
				e.assign(in, 1-cv)
			}
		case ov:
			if !anyCtl && unknown == 1 {
				e.assign(last, cv)
			}
		}
	case netlist.Xor, netlist.Xnor:
		unknown, last := 0, -1
		acc := int8(0)
		for _, in := range fanin {
			switch e.val[in] {
			case -1:
				unknown++
				last = in
			case 1:
				acc ^= 1
			}
		}
		inv := int8(0)
		if t == netlist.Xnor {
			inv = 1
		}
		if unknown == 0 {
			e.assign(id, acc^inv)
		} else if unknown == 1 {
			if v := e.val[id]; v >= 0 {
				e.assign(last, v^inv^acc)
			}
		}
	}
}

// Stats summarises the engine for reporting.
type Stats struct {
	Gates        int // circuit size
	Learned      int // contrapositive implications learned
	Implications int // total implied literals stored
	Constants    int // lines proven constant
	Dead         int // lines with no structural path to an output
	Redundant    int // stuck-at faults proven untestable
}

// Stats computes the summary (forcing the redundancy pass).
func (e *Engine) Stats() Stats {
	s := Stats{
		Gates:        e.c.NumGates(),
		Learned:      e.nLearn,
		Implications: e.NumImplications(),
		Constants:    len(e.Constants()),
		Redundant:    len(e.Redundant()),
	}
	for sig := 0; sig < e.c.NumGates(); sig++ {
		if !e.Observable(sig) {
			s.Dead++
		}
	}
	return s
}
