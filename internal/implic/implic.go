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
	"math/bits"
	"slices"

	"repro/internal/netlist"
	"repro/internal/par"
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
	c *netlist.Circuit
	// The circuit's gate types and fanins in flat arrays, for evalGate:
	// gate g reads fanins[faninStart[g]:faninStart[g+1]].
	types      []netlist.GateType
	faninStart []int32
	fanins     []int32

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

	// The engine's own propagation state: the build's sweeps run on it,
	// and so does the first worker of each parallel loop. Between runs
	// its val holds the base, the closure of the proven constants, and
	// base lists the base's literals in ascending order.
	state
	base  []Lit
	spare []Lit // the previous base's array, reused by commit

	// The parallel loops' worker states (workerStates): states[0] is the
	// engine's own state, the others are clones kept for the engine's
	// life.
	states []*state
	// outcome[l] is the outcome of literal l's step in the parallel phase
	// of a resumed sweep (resumeLit), for sweepResumed to settle.
	outcome []uint8
	// learnSpan is how many target literals one block of learn takes.
	learnSpan int
	// e.resumeLit and e.learnBlock as func values, made once, so that
	// handing them to par.For allocates nothing.
	resumeFn, learnFn func(w, i int)

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

// state is one propagation over the engine's database. A run assigns
// on top of the base held in val: touched records the signals it
// assigned, pending the literals whose learned edges are not yet
// replayed, gq (with inq) the gates left to evaluate. runBits marks the
// signals of the last run while assigned merges them into the base; it
// is all zero between calls. cone and marked are a redundancy proof's
// fanout-cone scratch. While the parallel loops run, the database, the
// base and the resume records are only read, so states cloned from the
// engine's own can propagate on different goroutines.
type state struct {
	e        *Engine
	val      []int8
	touched  []int32
	pending  []Lit
	gq       []int32
	inq      []bool
	conflict bool
	runBits  []uint64
	cone     []bool
	marked   []int32
}

// clone returns a state at the base that shares nothing with s. s must
// be at the base too: between runs, with nothing touched. The clone's
// worklists start as large as s's have grown, so they seldom grow.
func (s *state) clone() *state {
	return &state{
		e:       s.e,
		val:     slices.Clone(s.val),
		touched: make([]int32, 0, cap(s.touched)),
		pending: make([]Lit, 0, cap(s.pending)),
		gq:      make([]int32, 0, cap(s.gq)),
		inq:     make([]bool, len(s.inq)),
		runBits: make([]uint64, len(s.runBits)),
		cone:    make([]bool, len(s.cone)),
		marked:  make([]int32, 0, cap(s.marked)),
	}
}

// workerStates returns the par.Workers(n) states a parallel loop of n
// items runs on, one per worker, all at the base; the loop must be
// handed exactly that many workers. The first is the engine's own. The
// others are cloned from it the first time a loop needs that many, and
// kept; each call copies the base into them, since it may have grown
// since their last loop. The engine's own state must be at the base:
// between runs, with nothing touched.
func (e *Engine) workerStates(n int) []*state {
	if e.states == nil {
		e.states = []*state{&e.state}
	}
	for len(e.states) < par.Workers(n) {
		e.states = append(e.states, e.state.clone())
	}
	states := e.states[:par.Workers(n)]
	for _, s := range states[1:] {
		copy(s.val, e.val)
	}
	return states
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
		c:          c,
		types:      make([]netlist.GateType, n),
		faninStart: make([]int32, n+1),
		imp:        make([][]Lit, 2*n),
		learned:    make([][]Lit, 2*n),
		consts:     make([]int8, n),
		feas:       make([]bool, 2*n),
		seen:       make([]int32, 2*n),
		mark:       make([]int32, 2*n),
		outcome:    make([]uint8, 2*n),
	}
	e.state = state{e: e, val: make([]int8, n), inq: make([]bool, n), runBits: make([]uint64, (n+63)/64), cone: make([]bool, n)}
	e.resumeFn, e.learnFn = e.resumeLit, e.learnBlock
	pins := 0
	for id := 0; id < n; id++ {
		pins += len(c.Fanin(id))
	}
	e.fanins = make([]int32, 0, pins)
	for id := 0; id < n; id++ {
		e.types[id] = c.Type(id)
		e.faninStart[id] = int32(len(e.fanins))
		for _, f := range c.Fanin(id) {
			e.fanins = append(e.fanins, int32(f))
		}
	}
	e.faninStart[n] = int32(len(e.fanins))
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
		newConst := e.sweep(iter > 0)
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
// literals after it see it. The first sweep has no stored closures and
// runs each literal from the base, in literal order on the engine's own
// state: it proves most of the constants, and each one changes the base
// for every later literal. A resumed sweep, any after the first,
// resumes every literal feasible in the previous one from its stored
// closure, on every core (sweepResumed), and goes on in literal order
// from the first literal that proves a new constant.
func (e *Engine) sweep(resumed bool) (newConst bool) {
	e.rebuildBase()
	from := 0
	if resumed {
		newConst, from = e.sweepResumed()
	}
	for i := from; i < len(e.feas); i++ {
		l := Lit(i)
		if e.settle(l, e.state.step(l)) {
			newConst = true
		}
	}
	for l, list := range e.learned {
		e.mark[l] = int32(len(list))
	}
	return newConst
}

// The outcomes of one literal's step in a sweep.
const (
	skipped    uint8 = iota // constant at the opposite value
	resumed                 // feasible; imp[l] holds its closure
	conflicted              // conflicts on the base
)

// step resumes l from its stored closure on s, or runs it from the base
// if it has none, stores l's implied list if it changed, and returns s
// to the base. It writes only imp[l]; settle commits the outcome.
func (s *state) step(l Lit) uint8 {
	e, sig := s.e, l.Signal()
	if cv := e.consts[sig]; cv >= 0 && cv != litVal(l) {
		return skipped
	}
	conflict, same := false, false
	if e.feas[l] {
		conflict, same = s.resume(l)
	} else {
		conflict = s.run(l)
	}
	o := resumed
	switch {
	case conflict:
		o = conflicted
	case !same:
		e.imp[l] = s.assigned(e.imp[l][:0], sig)
	}
	s.reset()
	return o
}

// settle commits the outcome of l's step, in literal order: l's
// feasibility and, for a feasible l, how much of the base its closure
// has seen. A conflict on a signal not yet constant proves it constant
// at the opposite value; settle then commits that constant's closure to
// the base and reports true.
func (e *Engine) settle(l Lit, o uint8) (newConst bool) {
	if o == resumed {
		e.feas[l] = true
		e.seen[l] = int32(len(e.joined))
		return false
	}
	e.feas[l] = false
	e.imp[l] = nil
	if sig := l.Signal(); o == conflicted && e.consts[sig] < 0 {
		e.consts[sig] = 1 - litVal(l)
		e.run(l.Neg())
		e.commit()
		return true
	}
	return false
}

// resumeGrain is how many consecutive literals a resumed sweep's worker
// takes at a time.
const resumeGrain = 16

// forkLits is how many literals each worker of a resumed sweep or of
// learn must have before the loop forks, so that small circuits do not
// pay for starting and joining workers: on a 136-signal DAG forking onto
// two workers gained nothing measurable, and on the 316-signal DAGs of
// the hybrid class it cuts the build by about a fifth (BenchmarkBuild).
const forkLits = 256

// sweepResumed is the parallel phase of a sweep after the first. Every
// literal steps on a worker's state at the base as of the sweep's start
// (resumeLit). A serial pass then settles the outcomes in literal order
// up to the first conflict that proves a new constant, and returns the
// literal after it, from which sweep goes on in order: the literals
// after it hold closures that are fixpoints under the old base, and
// their seen predates the constant, so resume brings them up to the
// grown base.
func (e *Engine) sweepResumed() (newConst bool, next int) {
	states := e.workerStates(len(e.feas) / forkLits)
	par.For(len(states), len(e.feas), resumeGrain, e.resumeFn)
	for i, o := range e.outcome {
		if e.settle(Lit(i), o) {
			return true, i + 1
		}
	}
	return false, len(e.feas)
}

// resumeLit is the step of literal i on worker w's state, with its
// outcome kept for sweepResumed to settle.
func (e *Engine) resumeLit(w, i int) { e.outcome[i] = e.states[w].step(Lit(i)) }

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
// keeps all). The base is kept sorted; the run's signals are marked in
// runBits and read back in ascending order, word by word over the span
// they cover, as the merge goes. dst is grown once, to hold every
// literal, before the merge.
func (s *state) assigned(dst []Lit, skip int) []Lit {
	dst = slices.Grow(dst, len(s.e.base)+len(s.touched))
	lo, hi := len(s.runBits), -1
	for _, t := range s.touched {
		w := int(t >> 6)
		s.runBits[w] |= 1 << (t & 63)
		lo, hi = min(lo, w), max(hi, w)
	}
	b := s.e.base
	for w := lo; w <= hi; w++ {
		for word := s.runBits[w]; word != 0; word &= word - 1 {
			sig := w<<6 | bits.TrailingZeros64(word)
			for len(b) > 0 && b[0].Signal() < sig {
				if b[0].Signal() != skip {
					dst = append(dst, b[0])
				}
				b = b[1:]
			}
			if sig != skip {
				dst = append(dst, MkLit(sig, s.val[sig] == 1))
			}
		}
		s.runBits[w] = 0
	}
	for _, l := range b {
		if l.Signal() != skip {
			dst = append(dst, l)
		}
	}
	return dst
}

// learn records the contrapositive of every implication not already in
// the database: a => b yields !b => !a. Reports whether anything new was
// learned. The target literals !b are split into one block per worker
// (learnBlock): every block walks every source, so more blocks than
// workers cost more than the balance they buy. Each learned[!b] is
// written only by the worker that holds its block, which appends to it
// in ascending source order, as one loop over the sources would.
func (e *Engine) learn() bool {
	workers := par.Workers(len(e.feas) / forkLits)
	// An even span keeps a literal and its negation in one block.
	e.learnSpan = max(2, ((len(e.feas)+workers-1)/workers+1)&^1)
	par.For(workers, (len(e.feas)+e.learnSpan-1)/e.learnSpan, 1, e.learnFn)
	total := 0
	for _, list := range e.learned {
		total += len(list)
	}
	added := total > e.nLearn
	e.nLearn = total
	return added
}

// learnBlock records the new contrapositives whose premise !b lies in
// block b of target literals: for every source a in ascending order, it
// walks the implied literals whose negation lies in the block. It reads
// the implied lists and writes only the learned lists of its block.
func (e *Engine) learnBlock(_, b int) {
	lo := Lit(b * e.learnSpan)
	hi := Lit(min((b+1)*e.learnSpan, len(e.feas)))
	for li, list := range e.imp {
		if !e.feas[li] {
			continue
		}
		if lo > 0 {
			i, _ := slices.BinarySearch(list, lo)
			list = list[i:]
		}
		na := Lit(li).Neg()
		for _, y := range list {
			if y >= hi {
				break
			}
			nb := y.Neg()
			if !e.feas[nb] || e.Implies(nb, na) || slices.Contains(e.learned[nb], na) {
				continue
			}
			e.learned[nb] = append(e.learned[nb], na)
		}
	}
}

// run propagates the seed literal on top of the base to a fixpoint,
// leaving the assignment in s.val (-1 = unassigned), and reports
// whether a conflict arose. Propagation reaches the same fixpoint, or
// the same conflict, in any order, so starting from the base gives what
// propagating every constant along with the seed would. Callers must
// call reset (or, on the engine's own state, commit) afterwards.
func (s *state) run(seed Lit) (conflict bool) {
	s.assign(seed.Signal(), litVal(seed))
	return s.propagate()
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
func (s *state) resume(l Lit) (conflict, same bool) {
	e := s.e
	s.load(l)
	for _, y := range e.imp[l] {
		s.load(y)
	}
	if s.conflict {
		return true, false
	}
	loaded := s.touched
	for _, t := range loaded {
		s.replayLearned(MkLit(int(t), s.val[t] == 1))
	}
	delta := e.joined[e.seen[l]:]
	for _, t := range delta {
		s.enqueue(int(t))
		for _, g := range e.c.Fanout(int(t)) {
			s.enqueue(g)
		}
	}
	if s.propagate() {
		return true, false
	}
	return false, len(delta) == 0 && len(s.touched) == len(loaded)
}

// replayLearned assigns what y implies by the edges learned since the
// last sweep.
func (s *state) replayLearned(y Lit) {
	for _, t := range s.e.learned[y][s.e.mark[y]:] {
		s.assign(t.Signal(), litVal(t))
	}
}

// load assigns the literal of a stored closure. Unlike assign it queues
// neither gates nor learned edges, since the closure was a fixpoint; a
// literal contradicting the base records a conflict.
func (s *state) load(y Lit) {
	sig, v := y.Signal(), litVal(y)
	switch s.val[sig] {
	case v:
	case -1:
		s.val[sig] = v
		s.touched = append(s.touched, int32(sig))
	default:
		s.conflict = true
	}
}

// litVal returns the literal's value as a propagation value.
func litVal(l Lit) int8 { return int8(l & 1) }

// assign sets sig to v and queues its learned edges, the gate itself and
// its fanout gates, but not the gate under evaluation, which propagate
// keeps marked queued; assigning the opposite of a known value records
// a conflict.
func (s *state) assign(sig int, v int8) {
	switch s.val[sig] {
	case v:
		return
	case -1:
		s.val[sig] = v
		s.touched = append(s.touched, int32(sig))
		s.pending = append(s.pending, MkLit(sig, v == 1))
		s.enqueue(sig)
		for _, g := range s.e.c.Fanout(sig) {
			s.enqueue(g)
		}
	default:
		s.conflict = true
	}
}

func (s *state) enqueue(g int) {
	if !s.inq[g] {
		s.inq[g] = true
		s.gq = append(s.gq, int32(g))
	}
}

// propagate drains the worklists until a fixpoint or a conflict and
// reports whether a conflict arose.
func (s *state) propagate() bool {
	// Poll the build context every 1024 worklist steps: propagation is
	// the hot inner loop of the sweeps, so the select is amortized the
	// same way fsim amortizes its per-block poll.
	steps := 0
	for !s.conflict && (len(s.pending) > 0 || len(s.gq) > 0) {
		if steps++; steps&1023 == 0 {
			s.e.pollBuild()
		}
		if n := len(s.pending); n > 0 {
			l := s.pending[n-1]
			s.pending = s.pending[:n-1]
			for _, t := range s.e.learned[l] {
				s.assign(t.Signal(), litVal(t))
			}
			continue
		}
		// The gate stays marked queued while it is evaluated, so its own
		// assignments do not queue it again: one evaluation reaches its
		// local fixpoint, and a second would assign nothing.
		g := s.gq[len(s.gq)-1]
		s.gq = s.gq[:len(s.gq)-1]
		s.evalGate(int(g))
		s.inq[g] = false
	}
	return s.conflict
}

// reset undoes the last run, restoring the base.
func (s *state) reset() {
	for _, t := range s.touched {
		s.val[t] = -1
	}
	s.touched = s.touched[:0]
	s.pending = s.pending[:0]
	for _, g := range s.gq {
		s.inq[g] = false
	}
	s.gq = s.gq[:0]
	s.conflict = false
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
func (s *state) evalGate(id int) {
	e := s.e
	t, fanin := e.types[id], e.fanins[e.faninStart[id]:e.faninStart[id+1]]
	switch t {
	case netlist.Input:
	case netlist.Buf:
		in := int(fanin[0])
		if v := s.val[in]; v >= 0 {
			s.assign(id, v)
		}
		if v := s.val[id]; v >= 0 {
			s.assign(in, v)
		}
	case netlist.Not:
		in := int(fanin[0])
		if v := s.val[in]; v >= 0 {
			s.assign(id, 1-v)
		}
		if v := s.val[id]; v >= 0 {
			s.assign(in, 1-v)
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
			switch s.val[in] {
			case -1:
				unknown++
				last = int(in)
			case cv:
				anyCtl = true
			}
		}
		if anyCtl {
			s.assign(id, ov)
		} else if unknown == 0 {
			s.assign(id, 1-ov)
		}
		switch s.val[id] {
		case 1 - ov:
			for _, in := range fanin {
				s.assign(int(in), 1-cv)
			}
		case ov:
			if !anyCtl && unknown == 1 {
				s.assign(last, cv)
			}
		}
	case netlist.Xor, netlist.Xnor:
		unknown, last := 0, -1
		acc := int8(0)
		for _, in := range fanin {
			switch s.val[in] {
			case -1:
				unknown++
				last = int(in)
			case 1:
				acc ^= 1
			}
		}
		inv := int8(0)
		if t == netlist.Xnor {
			inv = 1
		}
		if unknown == 0 {
			s.assign(id, acc^inv)
		} else if unknown == 1 {
			if v := s.val[id]; v >= 0 {
				s.assign(last, v^inv^acc)
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
