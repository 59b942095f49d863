// Package tpi implements the paper's contribution: budget-constrained
// test point insertion by dynamic programming.
//
// Two planners are provided, matching the two problems DESIGN.md
// reconstructs from the 1987 paper:
//
//   - P1 (PlanCutsDP and friends): insert at most K full test points
//     (cuts) into a fanout-free circuit to minimise the minimax segment
//     test count under the Hayes–Friedman theory (internal/testcount).
//     The DP is exact; greedy, random, and exhaustive baselines accompany
//     it.
//
//   - P2 (PlanObservationPoints and friends): insert at most K observation
//     points to maximise the number of faults whose random-pattern
//     detection probability reaches a threshold. Exact on fanout-free
//     circuits by a tree DP; on general circuits the same DP runs per
//     fanout-free region with a knapsack allocation across regions (the
//     problem itself is NP-complete there, see internal/npc).
package tpi

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"

	"repro/internal/netlist"
	"repro/internal/testcount"
)

// CutPlan is the result of a P1 planning run.
type CutPlan struct {
	// Cuts lists the signals receiving full test points.
	Cuts []int
	// MaxCost is the resulting minimax segment test count.
	MaxCost int
	// BaseCost is the test count of the unmodified circuit.
	BaseCost int
	// StatesVisited counts DP states (or configurations, for the
	// exhaustive planner) examined, the work measure used by E6. For the
	// DP it sums the states of every probe's feasibility DP, whether a
	// probe recomputed a node or reused it from an earlier probe: the
	// paper's measure, no longer the work done.
	StatesVisited int64
}

// TestPoints renders the plan as netlist rewrites.
func (p *CutPlan) TestPoints() []netlist.TestPoint {
	pts := make([]netlist.TestPoint, len(p.Cuts))
	for i, s := range p.Cuts {
		pts[i] = netlist.TestPoint{Signal: s, Kind: netlist.FullCut}
	}
	return pts
}

// ErrBudgetNegative is returned for a negative test point budget.
var ErrBudgetNegative = errors.New("tpi: negative test point budget")

// CostFunc assigns an insertion cost to a signal (in integer cost
// units). UnitCost charges 1 per test point, reducing the weighted
// problem to the plain budget-of-K form.
type CostFunc func(signal int) int

// UnitCost charges one unit per test point.
func UnitCost(int) int { return 1 }

// PlanCutsDP computes an optimal placement of at most k full test points
// in a fanout-free unate circuit, minimising the resulting minimax segment
// test count. It binary-searches the feasibility threshold T and, for
// each T, runs an exact Pareto-set dynamic program over the forest that
// computes the minimum number of cuts keeping every segment's test count
// at or below T.
func PlanCutsDP(c *netlist.Circuit, k int) (*CutPlan, error) {
	return PlanCutsDPWithCost(c, k, UnitCost)
}

// PlanCutsDPWithCost is PlanCutsDP under a per-signal cost model: the
// plan's total insertion cost (sum of cost(signal) over cuts) may not
// exceed the budget. The DP's cut dimension simply carries cost instead
// of count, so optimality is preserved. Costs must be positive.
func PlanCutsDPWithCost(c *netlist.Circuit, budget int, cost CostFunc) (*CutPlan, error) {
	return planCutsDPWithCost(context.Background(), c, budget, cost)
}

func planCutsDPWithCost(ctx context.Context, c *netlist.Circuit, budget int, cost CostFunc) (*CutPlan, error) {
	k := budget
	if k < 0 {
		return nil, ErrBudgetNegative
	}
	// The DP keeps cut costs in 32 bits: a state's cost sums distinct
	// signals' costs, so it never exceeds their total.
	costs := make([]int32, c.NumGates())
	total := 0
	for id := range costs {
		w := cost(id)
		if w <= 0 {
			return nil, fmt.Errorf("tpi: cost of signal %d is %d; costs must be positive", id, w)
		}
		if total += w; total > math.MaxInt32 {
			return nil, fmt.Errorf("tpi: signal costs sum past %d", math.MaxInt32)
		}
		costs[id] = int32(w)
	}
	base, err := testcount.Compute(c)
	if err != nil {
		return nil, err
	}
	plan := &CutPlan{BaseCost: base.CircuitTests()}
	if k == 0 {
		plan.MaxCost = plan.BaseCost
		return plan, nil
	}
	dp := newCutDP(ctx, c, costs)
	plan.MaxCost, plan.Cuts = dp.search(plan.BaseCost, k)
	plan.StatesVisited = dp.states
	sort.Ints(plan.Cuts)
	// MaxCost == BaseCost is achieved with zero cuts.
	if plan.MaxCost == plan.BaseCost {
		plan.Cuts = nil
	}
	return plan, nil
}

// cutState is one Pareto point of the DP: using k cuts strictly below the
// current position, the open segment so far needs t0/t1 zero- and
// one-tests. prev/choice thread the reconstruction chain: prev indexes
// the partial state before this node's latest child was merged (relative
// to the node's chain start), choice indexes the chosen export of that
// child. Every field fits 32 bits: k is at most the summed costs, which
// planCutsDPWithCost bounds, and t0 and t1 at most T, which is at most
// the base test count of a fanout-free circuit, two per gate.
type cutState struct {
	k, t0, t1    int32
	prev, choice int32
}

// export is one way a child subtree presents itself to its parent: either
// uncut (contributing its open-segment counts) or cut (contributing a
// fresh leaf and one more cut). Export i < len(finals) is final state i
// uncut; the one after them is the cut option.
type export struct {
	k, t0, t1 int32
}

// unsettled is the need of a node whose result depends on T.
const unsettled = math.MaxInt32

// cutNode locates one node's states: its chain (the partial states
// created while merging its children, starting at chain; prev indices
// are relative to it) followed by its final Pareto set
// [fin, fin+finLen). best indexes the first final state with the fewest
// cuts, -1 when the set is empty. states counts the states its merges
// kept.
//
// T enters a node's result only through the filter on candidates whose
// t0+t1 exceeds it. A node computed over settled children without
// filtering any candidate is settled, and need is the largest candidate
// t0+t1 formed anywhere in its subtree: for every T >= need a recompute
// would give the same chain, final set and best. A settled node's
// offsets index cutDP.store; any other node's index cutDP.arena, and its
// need is unsettled.
type cutNode struct {
	chain, fin, finLen, best int32
	states                   int32
	need                     int32
}

// cutDP carries the feasibility DP of one plan. solve reruns it for each
// threshold T of the binary search: settled nodes with need <= T are
// reused from the store, kept for the plan, and every other node (in
// practice the spine near the roots) is recomputed into the per-probe
// arena. Every buffer is reused across probes.
type cutDP struct {
	c      *netlist.Circuit
	T      int32
	cost   []int32 // insertion cost per signal
	states int64
	// computed counts the nodes computeNode ran on, over all probes.
	computed int64
	ctx      context.Context
	done     <-chan struct{}
	nodes    []cutNode
	// store holds settled nodes' blocks, each appended once when the node
	// settles; arena holds the rest and is emptied by every probe.
	store, arena []cutState
	// Scratch reused by every merge: the child's exports, the candidate
	// states, and the Pareto filter's survivors.
	exports []export
	cand    []cutState
	kept    []cutState
}

func newCutDP(ctx context.Context, c *netlist.Circuit, cost []int32) *cutDP {
	n := c.NumGates()
	nodes := make([]cutNode, n)
	for i := range nodes {
		nodes[i].need = unsettled
	}
	return &cutDP{
		c:     c,
		cost:  cost,
		ctx:   ctx,
		done:  ctx.Done(),
		nodes: nodes,
		// A node keeps about four states at small k (its identity partial,
		// one per merge, and the final copies), and most settle once: sized
		// so the store rarely grows.
		store: make([]cutState, 0, 4*n),
	}
}

// search binary-searches the smallest threshold T in [2, base] that a
// cut set of at most k cost units meets, and returns T with the cut set
// found for it, or base and nil when no probe is feasible.
func (dp *cutDP) search(base, k int) (bestT int, bestCuts []int) {
	lo, hi := 2, base // minimax cost can never drop below 2
	bestT = hi
	for lo <= hi {
		mid := (lo + hi) / 2
		cuts, ok := dp.solve(mid, k)
		if ok {
			bestT = mid
			bestCuts = cuts
			hi = mid - 1
		} else {
			lo = mid + 1
		}
	}
	return bestT, bestCuts
}

// pollStride is how many nodes a probe visits between polls of its
// context: a poll costs a select, and most nodes are reused for a load.
const pollStride = 64

// solve returns a cut set achieving every segment cost <= T using at most
// k cuts, or ok=false if none exists.
func (dp *cutDP) solve(T, k int) (cuts []int, ok bool) {
	c := dp.c
	dp.T = int32(T)
	dp.arena = dp.arena[:0]
	for i, id := range c.TopoOrder() {
		if i%pollStride == 0 {
			pollDone(dp.ctx, dp.done)
		}
		if nd := &dp.nodes[id]; nd.need <= dp.T {
			dp.states += int64(nd.states)
			continue
		}
		dp.computeNode(id)
	}
	// The forest is feasible iff the summed per-root minima fit in k.
	total := 0
	for _, o := range c.Outputs() {
		nd := &dp.nodes[o]
		if nd.best < 0 {
			return nil, false // root segment cannot meet T at all
		}
		total += int(dp.block(o)[nd.fin+nd.best].k)
	}
	if total > k {
		return nil, false
	}
	for _, o := range c.Outputs() {
		dp.reconstruct(o, int(dp.nodes[o].best), &cuts)
	}
	return cuts, true
}

// block returns the buffer node id's offsets index.
func (dp *cutDP) block(id int) []cutState {
	if dp.nodes[id].need != unsettled {
		return dp.store
	}
	return dp.arena
}

// computeNode appends node id's chain and final state set to the arena,
// and moves them to the store if the node settles.
func (dp *cutDP) computeNode(id int) {
	dp.computed++
	g := dp.c.Gate(id)
	nd := &dp.nodes[id]
	base := int32(len(dp.arena))
	nd.chain, nd.states = base, 0
	if g.Type == netlist.Input {
		dp.arena = append(dp.arena, cutState{k: 0, t0: 1, t1: 1, prev: -1, choice: -1})
		nd.fin, nd.finLen, nd.best, nd.states, nd.need = base, 1, 0, 1, 0
		dp.states++
		dp.settle(nd, base)
		return
	}
	// The node can settle only over settled children, and needs what
	// they need.
	need := int32(0)
	for _, child := range g.Fanin {
		need = max(need, dp.nodes[child].need)
	}
	// Aggregation semantics per gate type: which child count sums and
	// which maxes, and whether the output swaps t0/t1.
	sumZero, swap := aggRules(g.Type)
	// Identity partial: nothing merged yet. The current partials are
	// always the chain's last segment, arena[pOff : pOff+pLen].
	dp.arena = append(dp.arena, cutState{k: 0, t0: 0, t1: 0, prev: -1, choice: -1})
	pOff, pLen := base, int32(1)
	for _, child := range g.Fanin {
		dp.exportsOf(child)
		cand := dp.cand[:0]
		for pi := int32(0); pi < pLen; pi++ {
			p := dp.arena[pOff+pi]
			for ei, e := range dp.exports {
				// Sums are formed in int: the filter below keeps t0+t1
				// within T, but a rejected sum may pass 32 bits.
				var t0, t1 int
				if sumZero {
					t0 = int(p.t0) + int(e.t0)
					t1 = int(max(p.t1, e.t1))
				} else {
					t0 = int(max(p.t0, e.t0))
					t1 = int(p.t1) + int(e.t1)
				}
				if t0+t1 > int(dp.T) {
					need = unsettled
					continue // monotone upward: never feasible later
				}
				need = max(need, int32(t0+t1))
				cand = append(cand, cutState{
					k: p.k + e.k, t0: int32(t0), t1: int32(t1),
					prev:   pOff - base + pi,
					choice: int32(ei),
				})
			}
		}
		dp.cand = cand
		dp.kept = paretoPrune(cand, dp.kept[:0])
		nd.states += int32(len(dp.kept))
		pOff, pLen = int32(len(dp.arena)), int32(len(dp.kept))
		dp.arena = append(dp.arena, dp.kept...)
		if pLen == 0 {
			break
		}
	}
	// The final set copies the last partials. The output transform for
	// inverting gates exchanges the roles of 0- and 1-tests; the chain
	// indices stay valid because only t values change. NOT/BUF
	// single-child pass-through is handled by aggRules giving sum-zero
	// semantics over one child with no swap (BUF) or swap (NOT): sum of
	// one = the child value, max of one = the child value.
	fin := int32(len(dp.arena))
	dp.arena = append(dp.arena, dp.arena[pOff:pOff+pLen]...)
	nd.fin, nd.finLen, nd.best = fin, pLen, -1
	for i := fin; i < int32(len(dp.arena)); i++ {
		st := &dp.arena[i]
		if swap {
			st.t0, st.t1 = st.t1, st.t0
		}
		if nd.best < 0 || st.k < dp.arena[fin+nd.best].k {
			nd.best = i - fin
		}
	}
	dp.states += int64(nd.states)
	if nd.need = need; need != unsettled {
		dp.settle(nd, base)
	}
}

// settle moves node nd's block, arena[base:], to the store.
func (dp *cutDP) settle(nd *cutNode, base int32) {
	shift := int32(len(dp.store)) - base
	dp.store = append(dp.store, dp.arena[base:]...)
	dp.arena = dp.arena[:base]
	nd.chain += shift
	nd.fin += shift
}

// exportsOf fills dp.exports with the ways child `child` can contribute:
// all of its final states uncut, plus (if any state exists) the single
// best cut option.
func (dp *cutDP) exportsOf(child int) {
	ex := dp.exports[:0]
	nd := &dp.nodes[child]
	for _, st := range dp.block(child)[nd.fin : nd.fin+nd.finLen] {
		ex = append(ex, export{k: st.k, t0: st.t0, t1: st.t1})
	}
	if nd.best >= 0 {
		ex = append(ex, export{k: ex[nd.best].k + dp.cost[child], t0: 1, t1: 1})
	}
	dp.exports = ex
}

// reconstruct walks the chain of node `id` from final state `idx`,
// emitting cut decisions into *cuts and recursing into children. Costs
// are positive, so no cut lies below a state with k == 0: the walk stops
// there, which skips the inputs and every cut-free subtree.
func (dp *cutDP) reconstruct(id, idx int, cuts *[]int) {
	nd := &dp.nodes[id]
	blk := dp.block(id)
	fanin := dp.c.Fanin(id)
	// The final state at position idx carries the same (k, prev, choice)
	// fields as the chain entry it copies; walk prev pointers, one child
	// per hop, last child first. A choice past the child's final states
	// is its cut export, which continues from the child's best state.
	st := blk[int(nd.fin)+idx]
	childIdx := len(fanin) - 1
	for st.k > 0 {
		child := fanin[childIdx]
		next := st.choice
		if cn := &dp.nodes[child]; next == cn.finLen {
			*cuts = append(*cuts, child)
			next = cn.best
		}
		dp.reconstruct(child, int(next), cuts)
		st = blk[nd.chain+st.prev]
		childIdx--
	}
}

// aggRules returns the aggregation orientation for a gate type: sumZero
// means 0-tests sum and 1-tests max (AND-like); swap means the output
// exchanges t0/t1 (inverting gates).
func aggRules(t netlist.GateType) (sumZero, swap bool) {
	switch t {
	case netlist.And:
		return true, false
	case netlist.Nand:
		return true, true
	case netlist.Or:
		return false, false
	case netlist.Nor:
		return false, true
	case netlist.Buf:
		return true, false // single child: sum == max == identity
	case netlist.Not:
		return true, true
	}
	return true, false
}

// paretoPrune appends the non-dominated states to kept and returns it:
// state a dominates b when a.k <= b.k, a.t0 <= b.t0, a.t1 <= b.t1 (with
// at least one strict or equal-on-all, keeping one representative).
// states is sorted in place.
func paretoPrune(states, kept []cutState) []cutState {
	slices.SortFunc(states, compareCutStates)
	for _, s := range states {
		dominated := false
		for _, q := range kept {
			if q.k <= s.k && q.t0 <= s.t0 && q.t1 <= s.t1 {
				dominated = true
				break
			}
		}
		if !dominated {
			kept = append(kept, s)
		}
	}
	return kept
}

// compareCutStates orders states by (k, t0, t1). Equal triples keep the
// order the sort leaves them in: no tiebreak on (prev, choice), which
// would change which of several equal-cost cut sets a plan reports.
func compareCutStates(a, b cutState) int {
	if a.k != b.k {
		return cmp.Compare(a.k, b.k)
	}
	if a.t0 != b.t0 {
		return cmp.Compare(a.t0, b.t0)
	}
	return cmp.Compare(a.t1, b.t1)
}

// PlanCutsGreedy places up to k cuts one at a time, each time choosing
// the single signal whose cut most reduces the current minimax segment
// cost (ties to the lower signal ID). It stops early when no single cut
// improves the cost. Suboptimal in general — the E2/E8 comparisons
// quantify the gap against the DP.
func PlanCutsGreedy(c *netlist.Circuit, k int) (*CutPlan, error) {
	if k < 0 {
		return nil, ErrBudgetNegative
	}
	base, err := testcount.Compute(c)
	if err != nil {
		return nil, err
	}
	plan := &CutPlan{BaseCost: base.CircuitTests()}
	cur := plan.BaseCost
	var cuts []int
	for len(cuts) < k {
		bestCost, bestSig := cur, -1
		for id := 0; id < c.NumGates(); id++ {
			if c.Type(id) == netlist.Input || c.IsOutput(id) || containsInt(cuts, id) {
				continue
			}
			an, err := testcount.AnalyzeCuts(c, append(cuts[:len(cuts):len(cuts)], id))
			if err != nil {
				return nil, err
			}
			plan.StatesVisited++
			if an.MaxCost < bestCost {
				bestCost, bestSig = an.MaxCost, id
			}
		}
		if bestSig < 0 {
			break
		}
		cuts = append(cuts, bestSig)
		cur = bestCost
	}
	sort.Ints(cuts)
	plan.Cuts = cuts
	plan.MaxCost = cur
	return plan, nil
}

// PlanCutsExhaustive tries every subset of up to k cut signals and keeps
// the best. Exponential; the ground truth for small circuits (E2) and
// for property-testing the DP.
func PlanCutsExhaustive(c *netlist.Circuit, k int) (*CutPlan, error) {
	return PlanCutsExhaustiveWithCost(c, k, UnitCost)
}

// PlanCutsExhaustiveWithCost is the weighted ground truth: every subset
// whose summed cost fits the budget is evaluated.
func PlanCutsExhaustiveWithCost(c *netlist.Circuit, k int, cost CostFunc) (*CutPlan, error) {
	if k < 0 {
		return nil, ErrBudgetNegative
	}
	base, err := testcount.Compute(c)
	if err != nil {
		return nil, err
	}
	plan := &CutPlan{BaseCost: base.CircuitTests(), MaxCost: base.CircuitTests()}
	var candidates []int
	for id := 0; id < c.NumGates(); id++ {
		if c.Type(id) != netlist.Input && !c.IsOutput(id) {
			candidates = append(candidates, id)
		}
	}
	cur := make([]int, 0, k)
	var rec func(start, spent int)
	rec = func(start, spent int) {
		if len(cur) > 0 {
			an, err := testcount.AnalyzeCuts(c, cur)
			if err == nil {
				plan.StatesVisited++
				if an.MaxCost < plan.MaxCost {
					plan.MaxCost = an.MaxCost
					plan.Cuts = append(plan.Cuts[:0], cur...)
				}
			}
		}
		for i := start; i < len(candidates); i++ {
			cc := cost(candidates[i])
			if spent+cc > k {
				continue
			}
			cur = append(cur, candidates[i])
			rec(i+1, spent+cc)
			cur = cur[:len(cur)-1]
		}
	}
	rec(0, 0)
	sort.Ints(plan.Cuts)
	return plan, nil
}

// PlanCutsRandom places k cuts uniformly at random over internal signals,
// the null-hypothesis baseline.
func PlanCutsRandom(c *netlist.Circuit, k int, seed int64) (*CutPlan, error) {
	if k < 0 {
		return nil, ErrBudgetNegative
	}
	base, err := testcount.Compute(c)
	if err != nil {
		return nil, err
	}
	plan := &CutPlan{BaseCost: base.CircuitTests()}
	var candidates []int
	for id := 0; id < c.NumGates(); id++ {
		if c.Type(id) != netlist.Input && !c.IsOutput(id) {
			candidates = append(candidates, id)
		}
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(candidates), func(i, j int) { candidates[i], candidates[j] = candidates[j], candidates[i] })
	if k > len(candidates) {
		k = len(candidates)
	}
	plan.Cuts = append(plan.Cuts, candidates[:k]...)
	sort.Ints(plan.Cuts)
	an, err := testcount.AnalyzeCuts(c, plan.Cuts)
	if err != nil {
		return nil, err
	}
	plan.MaxCost = an.MaxCost
	return plan, nil
}

func containsInt(xs []int, v int) bool {
	for _, x := range xs {
		if x == v {
			return true
		}
	}
	return false
}

// VerifyCutPlan recomputes the minimax cost of a plan's cut set directly
// from the test-count recurrences, guarding against planner bugs.
func VerifyCutPlan(c *netlist.Circuit, plan *CutPlan) error {
	an, err := testcount.AnalyzeCuts(c, plan.Cuts)
	if err != nil {
		return err
	}
	if an.MaxCost != plan.MaxCost {
		return fmt.Errorf("tpi: plan claims max cost %d but cuts yield %d", plan.MaxCost, an.MaxCost)
	}
	return nil
}
