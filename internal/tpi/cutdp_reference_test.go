package tpi

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/netlist"
	"repro/internal/testcount"
)

// The P1 cut DP as it stood before settled nodes were reused across the
// threshold search, kept verbatim (with its type renamed) as the
// reference the differential tests hold planCutsDPWithCost to: every
// probe recomputes every node into one arena.

// referencePlanCutsDPWithCost is planCutsDPWithCost over referenceCutDP.
func referencePlanCutsDPWithCost(ctx context.Context, c *netlist.Circuit, budget int, cost CostFunc) (*CutPlan, error) {
	k := budget
	if k < 0 {
		return nil, ErrBudgetNegative
	}
	costs := make([]int, c.NumGates())
	for id := range costs {
		if costs[id] = cost(id); costs[id] <= 0 {
			return nil, fmt.Errorf("tpi: cost of signal %d is %d; costs must be positive", id, costs[id])
		}
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
	lo, hi := 2, plan.BaseCost // minimax cost can never drop below 2
	var bestCuts []int
	bestT := hi
	dp := newReferenceCutDP(ctx, c, costs)
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
	plan.StatesVisited = dp.states
	plan.MaxCost = bestT
	plan.Cuts = bestCuts
	sort.Ints(plan.Cuts)
	// bestT == BaseCost is achieved with zero cuts.
	if plan.MaxCost == plan.BaseCost {
		plan.Cuts = nil
	}
	return plan, nil
}

// referenceCutDP carries the feasibility DP of one plan. solve reruns it
// for each threshold T of the binary search, reusing every buffer: the
// state arena, the per-node offsets into it, and the merge scratch.
type referenceCutDP struct {
	c      *netlist.Circuit
	T      int
	cost   []int // insertion cost per signal
	states int64
	ctx    context.Context
	done   <-chan struct{}
	// arena holds, per node in topological order, the partial states
	// created while merging the node's children (its chain, starting at
	// chainOff[n]; prev indices are relative to it) followed by its final
	// Pareto set: arena[finOff[n] : finOff[n]+finLen[n]]. best[n] indexes
	// the first final state with the fewest cuts, -1 when the set is
	// empty.
	arena                          []cutState
	chainOff, finOff, finLen, best []int
	// Scratch reused by every merge: the child's exports, the candidate
	// states, and the Pareto filter's survivors.
	exports []export
	cand    []cutState
	kept    []cutState
}

func newReferenceCutDP(ctx context.Context, c *netlist.Circuit, cost []int) *referenceCutDP {
	n := c.NumGates()
	return &referenceCutDP{
		c:    c,
		cost: cost,
		ctx:  ctx,
		done: ctx.Done(),
		// A node keeps about four states at small k (its identity partial,
		// one per merge, and the final copies): sized so the arena rarely
		// grows.
		arena:    make([]cutState, 0, 4*n),
		chainOff: make([]int, n),
		finOff:   make([]int, n),
		finLen:   make([]int, n),
		best:     make([]int, n),
	}
}

// solve returns a cut set achieving every segment cost <= T using at most
// k cuts, or ok=false if none exists.
func (dp *referenceCutDP) solve(T, k int) (cuts []int, ok bool) {
	c := dp.c
	dp.T = T
	dp.arena = dp.arena[:0]
	for _, id := range c.TopoOrder() {
		dp.computeNode(id)
	}
	// The forest is feasible iff the summed per-root minima fit in k.
	need := 0
	for _, o := range c.Outputs() {
		if dp.best[o] < 0 {
			return nil, false // root segment cannot meet T at all
		}
		need += dp.arena[dp.finOff[o]+dp.best[o]].k
	}
	if need > k {
		return nil, false
	}
	for _, o := range c.Outputs() {
		dp.reconstruct(o, dp.best[o], &cuts)
	}
	return cuts, true
}

// computeNode appends node id's chain and final state set to the arena.
func (dp *referenceCutDP) computeNode(id int) {
	pollDone(dp.ctx, dp.done)
	c := dp.c
	g := c.Gate(id)
	base := len(dp.arena)
	dp.chainOff[id] = base
	if g.Type == netlist.Input {
		dp.arena = append(dp.arena, cutState{k: 0, t0: 1, t1: 1, prev: -1, choice: -1})
		dp.finOff[id], dp.finLen[id], dp.best[id] = base, 1, 0
		dp.states++
		return
	}
	// Aggregation semantics per gate type: which child count sums and
	// which maxes, and whether the output swaps t0/t1.
	sumZero, swap := aggRules(g.Type)
	// Identity partial: nothing merged yet. The current partials are
	// always the chain's last segment, arena[pOff : pOff+pLen].
	dp.arena = append(dp.arena, cutState{k: 0, t0: 0, t1: 0, prev: -1, choice: -1})
	pOff, pLen := base, 1
	for _, child := range g.Fanin {
		dp.exportsOf(child)
		cand := dp.cand[:0]
		for pi := 0; pi < pLen; pi++ {
			p := dp.arena[pOff+pi]
			for ei, e := range dp.exports {
				var t0, t1 int
				if sumZero {
					t0 = p.t0 + e.t0
					t1 = maxInt(p.t1, e.t1)
				} else {
					t0 = maxInt(p.t0, e.t0)
					t1 = p.t1 + e.t1
				}
				if t0+t1 > dp.T {
					continue // monotone upward: never feasible later
				}
				cand = append(cand, cutState{
					k: p.k + e.k, t0: t0, t1: t1,
					prev:   int32(pOff - base + pi),
					choice: int32(ei),
				})
			}
		}
		dp.cand = cand
		dp.kept = paretoPrune(cand, dp.kept[:0])
		dp.states += int64(len(dp.kept))
		pOff, pLen = len(dp.arena), len(dp.kept)
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
	fin := len(dp.arena)
	dp.arena = append(dp.arena, dp.arena[pOff:pOff+pLen]...)
	dp.finOff[id], dp.finLen[id], dp.best[id] = fin, pLen, -1
	for i := fin; i < len(dp.arena); i++ {
		st := &dp.arena[i]
		if swap {
			st.t0, st.t1 = st.t1, st.t0
		}
		if dp.best[id] < 0 || st.k < dp.arena[fin+dp.best[id]].k {
			dp.best[id] = i - fin
		}
	}
}

// exportsOf fills dp.exports with the ways child `child` can contribute:
// all of its final states uncut, plus (if any state exists) the single
// best cut option.
func (dp *referenceCutDP) exportsOf(child int) {
	ex := dp.exports[:0]
	off := dp.finOff[child]
	for _, st := range dp.arena[off : off+dp.finLen[child]] {
		ex = append(ex, export{k: st.k, t0: st.t0, t1: st.t1})
	}
	if b := dp.best[child]; b >= 0 {
		ex = append(ex, export{k: dp.arena[off+b].k + dp.cost[child], t0: 1, t1: 1})
	}
	dp.exports = ex
}

// reconstruct walks the chain of node `id` from final state `idx`,
// emitting cut decisions into *cuts and recursing into children.
func (dp *referenceCutDP) reconstruct(id, idx int, cuts *[]int) {
	g := dp.c.Gate(id)
	if g.Type == netlist.Input {
		return
	}
	// The final state at position idx carries the same (k, prev, choice)
	// fields as the chain entry it copies; walk prev pointers, one child
	// per hop, last child first. A choice past the child's final states
	// is its cut export, which continues from the child's best state.
	st := dp.arena[dp.finOff[id]+idx]
	childIdx := len(g.Fanin) - 1
	for st.prev >= 0 {
		child := g.Fanin[childIdx]
		next := int(st.choice)
		if next == dp.finLen[child] {
			*cuts = append(*cuts, child)
			next = dp.best[child]
		}
		dp.reconstruct(child, next, cuts)
		st = dp.arena[dp.chainOff[id]+int(st.prev)]
		childIdx--
	}
}
