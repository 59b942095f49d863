package tpi

import (
	"context"
	"math/rand"
	"slices"
	"sort"

	"repro/internal/fault"
	"repro/internal/netlist"
	"repro/internal/progress"
	"repro/internal/testability"
)

// OPPlan is the result of a P2 (observation point) planning run.
type OPPlan struct {
	// Points lists the signals receiving observation points.
	Points []int
	// CoveredBefore/CoveredAfter count faults whose estimated detection
	// probability meets the threshold without/with the plan, under the
	// analytic coverage model (exact on fanout-free circuits).
	CoveredBefore, CoveredAfter int
	// TotalFaults is the size of the targeted fault list.
	TotalFaults int
	// StatesVisited counts DP states or candidate evaluations.
	StatesVisited int64
}

// TestPoints renders the plan as netlist rewrites.
func (p *OPPlan) TestPoints() []netlist.TestPoint {
	pts := make([]netlist.TestPoint, len(p.Points))
	for i, s := range p.Points {
		pts[i] = netlist.TestPoint{Signal: s, Kind: netlist.Observe}
	}
	return pts
}

// OPOptions configures observation point planning.
type OPOptions struct {
	// COP configures the underlying probability analysis.
	COP testability.COPOptions
}

// opModel is the shared coverage model: the circuit decomposed into
// fanout-free regions, each fault mapped to a region node with a local
// probability, path observabilities along region trees, and the external
// observability of each stem.
type opModel struct {
	c      *netlist.Circuit
	co     *testability.COP
	region []int // gate -> region stem
	// parent[n] = unique in-region consumer of n (-1 for stems);
	// parentObs[n] = pin observability through that consumer.
	parent    []int
	parentObs []float64
	// nodeFaults[n] = local probabilities of the faults sited at node n
	// (stem faults: excitation; branch faults: excitation x pin
	// observability into the consuming gate).
	nodeFaults [][]float64
	// stemExt[s] = probability the stem's value change reaches a primary
	// output through the rest of the circuit (1 if s is a PO).
	stemExt map[int]float64
	// regionNodes[s] = the gates of region s.
	regionNodes map[int][]int
	// regionChildren[n] = in-region fanins of n.
	regionChildren [][]int
	// ctx and done are the plan's context, polled by coveredCount; done
	// is nil for the planners that take no context.
	ctx  context.Context
	done <-chan struct{}
}

func newOPModel(c *netlist.Circuit, faults []fault.Fault, opts OPOptions) *opModel {
	co := testability.NewCOP(c, opts.COP)
	m := &opModel{
		c:              c,
		co:             co,
		region:         c.RegionOf(),
		parent:         make([]int, c.NumGates()),
		parentObs:      make([]float64, c.NumGates()),
		nodeFaults:     make([][]float64, c.NumGates()),
		stemExt:        make(map[int]float64),
		regionNodes:    make(map[int][]int),
		regionChildren: make([][]int, c.NumGates()),
	}
	for id := 0; id < c.NumGates(); id++ {
		m.parent[id] = -1
		m.parentObs[id] = 1
	}
	for id := 0; id < c.NumGates(); id++ {
		stem := m.region[id]
		m.regionNodes[stem] = append(m.regionNodes[stem], id)
		if id != stem {
			// Non-stem: unique consumer, in the same region by
			// construction of fanout-free regions.
			consumer := c.Fanout(id)[0]
			m.parent[id] = consumer
			for pin, f := range c.Fanin(consumer) {
				if f == id {
					m.parentObs[id] = co.PinObservability(consumer, pin)
					break
				}
			}
			m.regionChildren[consumer] = append(m.regionChildren[consumer], id)
		}
	}
	for stem := range m.regionNodes {
		m.stemExt[stem] = co.Observability(stem)
	}
	for _, f := range faults {
		var node int
		var p float64
		if f.IsStem() {
			node = f.Gate
			p = excitation(co, f.Gate, f.Stuck)
		} else {
			node = f.Gate
			driver := c.Fanin(f.Gate)[f.Pin]
			p = excitation(co, driver, f.Stuck) * co.PinObservability(f.Gate, f.Pin)
		}
		m.nodeFaults[node] = append(m.nodeFaults[node], p)
	}
	return m
}

func excitation(co *testability.COP, signal int, stuck bool) float64 {
	if stuck {
		return 1 - co.Controllability(signal)
	}
	return co.Controllability(signal)
}

// pathObs returns the product of pin observabilities from node n's output
// up to (but not through) ancestor a within n's region tree. a must be n
// or an ancestor of n.
func (m *opModel) pathObs(n, a int) float64 {
	p := 1.0
	for n != a {
		p *= m.parentObs[n]
		n = m.parent[n]
	}
	return p
}

// coveredAt counts the faults sited at node n that meet the threshold
// when the effective observability from n's output is phi.
func (m *opModel) coveredAt(n int, phi, dth float64) int {
	cnt := 0
	for _, p := range m.nodeFaults[n] {
		if p*phi >= dth {
			cnt++
		}
	}
	return cnt
}

// coveredCount evaluates a concrete OP placement under the model: each
// fault is covered if its local probability times the observability to
// its best observer (nearest OP on the in-region path, or the stem's
// external observability) meets the threshold. The walk costs
// O(gates × depth), so it polls the plan's context every 1024 steps.
func (m *opModel) coveredCount(ops []int, dth float64) int {
	isOP := make(map[int]bool, len(ops))
	for _, s := range ops {
		isOP[s] = true
	}
	total, steps := 0, 0
	for n := 0; n < m.c.NumGates(); n++ {
		if len(m.nodeFaults[n]) == 0 {
			continue
		}
		// Best observability from n: walk up to the stem, tracking OPs.
		best := 0.0
		phi := 1.0
		cur := n
		for {
			if steps++; steps%1024 == 0 {
				pollDone(m.ctx, m.done)
			}
			if isOP[cur] && phi > best {
				best = phi
			}
			if m.parent[cur] < 0 {
				break
			}
			phi *= m.parentObs[cur]
			cur = m.parent[cur]
		}
		// cur is the stem; external observation continues downstream.
		if ext := phi * m.stemExt[cur]; ext > best {
			best = ext
		}
		total += m.coveredAt(n, best, dth)
	}
	return total
}

// opDP runs the exact tree DP of every scored region of one plan: for
// each region, the best number of covered faults for every OP budget
// 0..kMax, over (node, nearest observer above) states. The observer anc
// is an in-region ancestor holding an OP, or -1 for "external only"
// (the nearest real observer is the downstream logic beyond the stem).
//
// memo[n][i] holds the vector of state (n, anc), where i is 0 for
// anc == -1 and depth[anc]+1 otherwise. The per-node slot tables and
// the vectors are carved from bump arenas when a node is first visited,
// so memory follows the states visited, as the deadline bounds them. A
// knapsack computes its children's vectors before combining them, so
// its scratch vectors are never live across a dp call and two serve the
// whole plan.
type opDP struct {
	m      *opModel
	kMax   int
	dth    float64
	depth  []int32   // per gate: edges from the gate up to its stem
	memo   [][][]int // per gate: its slot table, nil until visited
	slots  [][]int   // arena of slot tables
	arena  []int     // arena of budget vectors
	acc    []int     // knapsack scratch
	optB   []int     // option B's knapsack in dp and reconstruct
	stack  []int     // splitKnapsack's prefix tables, used as a stack
	states int64
	ctx    context.Context
	done   <-chan struct{}
}

func newOPDP(ctx context.Context, m *opModel, kMax int, dth float64) *opDP {
	n := m.c.NumGates()
	d := &opDP{
		m:     m,
		kMax:  kMax,
		dth:   dth,
		depth: make([]int32, n),
		memo:  make([][][]int, n),
		acc:   make([]int, kMax+1),
		optB:  make([]int, kMax+1),
		ctx:   ctx,
		done:  ctx.Done(),
	}
	order := m.c.TopoOrder()
	for i := len(order) - 1; i >= 0; i-- {
		if id := order[i]; m.parent[id] >= 0 {
			d.depth[id] = d.depth[m.parent[id]] + 1
		}
	}
	return d
}

// vec returns a zeroed budget vector from the arena. The arena grows by
// whole new chunks, each at least double the last, so the vectors handed
// out before stay valid.
func (d *opDP) vec() []int {
	w := d.kMax + 1
	if len(d.arena)+w > cap(d.arena) {
		d.arena = make([]int, 0, max(2*cap(d.arena), w, 4096))
	}
	n := len(d.arena)
	d.arena = d.arena[:n+w]
	return d.arena[n : n+w : n+w]
}

// slotTable returns node n's slot table, carving it from the slot arena
// the way vec carves vectors.
func (d *opDP) slotTable(n int) [][]int {
	if t := d.memo[n]; t != nil {
		return t
	}
	size := int(d.depth[n]) + 1
	if len(d.slots)+size > cap(d.slots) {
		d.slots = make([][]int, 0, max(2*cap(d.slots), size, 1024))
	}
	k := len(d.slots)
	d.slots = d.slots[:k+size]
	d.memo[n] = d.slots[k : k+size : k+size]
	return d.memo[n]
}

// phiFor returns the observability factor from node n's output to the
// nearest observer: ancestor `anc` (an in-region node holding an OP), or
// the external path when anc == -1.
func (d *opDP) phiFor(n, anc int) float64 {
	if anc >= 0 {
		return d.m.pathObs(n, anc)
	}
	stem := d.m.region[n]
	return d.m.pathObs(n, stem) * d.m.stemExt[stem]
}

// dp returns the budget-indexed best-coverage vector for the subtree
// rooted at n given the nearest observer at or above n's parent: best[k]
// is the most faults covered with at most k OPs placed in the subtree.
func (d *opDP) dp(n, anc int) []int {
	table, slot := d.slotTable(n), 0
	if anc >= 0 {
		slot = int(d.depth[anc]) + 1
	}
	if v := table[slot]; v != nil {
		return v
	}
	pollDone(d.ctx, d.done)
	children := d.m.regionChildren[n]
	// Option A: no OP at n — faults here see the inherited observer.
	hereA := d.m.coveredAt(n, d.phiFor(n, anc), d.dth)
	result := d.knapsack(d.vec(), children, anc, d.kMax)
	for k := 0; k <= d.kMax; k++ {
		result[k] += hereA
	}
	// Option B: OP at n — faults here observed directly; children inherit
	// observer n; budget shifted by one.
	if d.kMax >= 1 {
		hereB := d.m.coveredAt(n, 1, d.dth)
		optB := d.knapsack(d.optB, children, n, d.kMax-1)
		for k := 1; k <= d.kMax; k++ {
			if v := optB[k-1] + hereB; v > result[k] {
				result[k] = v
			}
		}
	}
	// Enforce monotonicity in budget (spending less is always allowed).
	for k := 1; k <= d.kMax; k++ {
		if result[k] < result[k-1] {
			result[k] = result[k-1]
		}
	}
	d.states += int64(len(result))
	table[slot] = result
	return result
}

// knapsack combines the children's dp vectors under observer anc into
// dst, a budget-indexed sum up to budget limit (entries above limit are
// filled from limit), and returns dst, which has kMax+1 entries. The
// children's vectors are computed first, so the combining loop makes no
// dp call and dst may be shared scratch.
func (d *opDP) knapsack(dst []int, children []int, anc, limit int) []int {
	if limit < 0 {
		clear(dst)
		return dst
	}
	for _, ch := range children {
		d.dp(ch, anc)
	}
	clear(dst)
	acc, next := dst, d.acc
	for _, ch := range children {
		chv := d.dp(ch, anc)
		for k := 0; k <= limit; k++ {
			best := 0
			for j := 0; j <= k; j++ {
				if v := acc[k-j] + chv[j]; v > best {
					best = v
				}
			}
			next[k] = best
		}
		for k := limit + 1; k <= d.kMax; k++ {
			next[k] = next[limit]
		}
		acc, next = next, acc
	}
	for k := limit + 1; k <= d.kMax; k++ {
		acc[k] = acc[limit]
	}
	if len(children)%2 == 1 {
		copy(dst, acc)
	}
	return dst
}

// reconstruct re-derives an OP placement achieving dp(n, anc)[k].
func (d *opDP) reconstruct(n, anc, k int, out *[]int) {
	children := d.m.regionChildren[n]
	target := d.dp(n, anc)[k]
	// Try option B first when it meets the target (placing OPs earlier
	// tends to put them closer to the faults; either choice is optimal).
	if k >= 1 {
		hereB := d.m.coveredAt(n, 1, d.dth)
		optB := d.knapsack(d.optB, children, n, d.kMax-1)
		if optB[k-1]+hereB == target {
			*out = append(*out, n)
			d.splitKnapsack(children, n, k-1, out)
			return
		}
	}
	d.splitKnapsack(children, anc, k, out)
}

// splitKnapsack apportions budget k among children consistently with the
// knapsack optimum under observer anc.
func (d *opDP) splitKnapsack(children []int, anc, k int, out *[]int) {
	if len(children) == 0 || k < 0 {
		return
	}
	// Recompute prefix knapsacks to find a consistent split: row i of
	// the table is prefix[i*w : (i+1)*w]. The table sits on the stack
	// above the caller's, and the recursive calls below push theirs
	// above it; if that regrows the stack, this table stays in the old
	// array, which nothing writes any more.
	w := d.kMax + 1
	base, size := len(d.stack), (len(children)+1)*w
	d.stack = slices.Grow(d.stack, size)[:base+size]
	prefix := d.stack[base:]
	clear(prefix[:w])
	for i, ch := range children {
		chv := d.dp(ch, anc)
		prev, next := prefix[i*w:(i+1)*w], prefix[(i+1)*w:(i+2)*w]
		for kk := 0; kk <= d.kMax; kk++ {
			best := 0
			for j := 0; j <= kk; j++ {
				if v := prev[kk-j] + chv[j]; v > best {
					best = v
				}
			}
			next[kk] = best
		}
	}
	remaining := k
	for i := len(children) - 1; i >= 0; i-- {
		ch := children[i]
		chv := d.dp(ch, anc)
		for j := 0; j <= remaining; j++ {
			if prefix[i*w+remaining-j]+chv[j] == prefix[(i+1)*w+remaining] {
				d.reconstruct(ch, anc, j, out)
				remaining -= j
				break
			}
		}
	}
	d.stack = d.stack[:base]
}

// PlanObservationPointsDP selects at most k observation points maximising
// the number of faults whose modelled detection probability reaches dth.
// Exact per fanout-free region (tree DP) with an exact knapsack
// allocation of the budget across regions; on fully fanout-free circuits
// this is the globally optimal placement under the COP model.
func PlanObservationPointsDP(c *netlist.Circuit, faults []fault.Fault, k int, dth float64, opts OPOptions) (*OPPlan, error) {
	return planObservationPointsDP(context.Background(), c, faults, k, dth, opts)
}

func planObservationPointsDP(ctx context.Context, c *netlist.Circuit, faults []fault.Fault, k int, dth float64, opts OPOptions) (*OPPlan, error) {
	if k < 0 {
		return nil, ErrBudgetNegative
	}
	// A plan holds at most one OP per signal, so budget beyond the gate
	// count buys nothing: clamping is exact, and it keeps every knapsack
	// (O(k²) work between polls) sized by the circuit, not the request.
	if n := c.NumGates(); k > n {
		k = n
	}
	m := newOPModel(c, faults, opts)
	m.ctx, m.done = ctx, ctx.Done()
	plan := &OPPlan{
		TotalFaults:   len(faults),
		CoveredBefore: m.coveredCount(nil, dth),
	}
	if k == 0 {
		plan.CoveredAfter = plan.CoveredBefore
		return plan, nil
	}
	// Per-region DP gain tables. Regions holding no fault can never gain
	// coverage from an observation point, so their trees are not scored
	// at all (an exact skip: the cross-region knapsack would assign them
	// zero budget anyway).
	stems := make([]int, 0, len(m.regionNodes))
	for s, nodes := range m.regionNodes {
		for _, n := range nodes {
			if len(m.nodeFaults[n]) > 0 {
				stems = append(stems, s)
				break
			}
		}
	}
	sort.Ints(stems)
	report := progress.FromContext(ctx)
	done := ctx.Done()
	d := newOPDP(ctx, m, k, dth)
	tables := make([][]int, len(stems))
	for i, s := range stems {
		if report != nil {
			report("op-regions", int64(i), int64(len(stems)))
		}
		tables[i] = d.dp(s, -1)
	}
	plan.StatesVisited = d.states
	// Knapsack across regions. choice[i*(k+1)+kk] is the budget given to
	// region i when regions 0..i share budget kk; it grows by a row per
	// region, so a plan its deadline cuts short never holds the rest.
	acc := make([]int, k+1)
	var choice []int
	prev := make([]int, k+1)
	for i := range stems {
		row := len(choice)
		choice = slices.Grow(choice, k+1)[:row+k+1]
		copy(prev, acc)
		for kk := 0; kk <= k; kk++ {
			pollDone(ctx, done)
			best, bestJ := 0, 0
			for j := 0; j <= kk; j++ {
				if v := prev[kk-j] + tables[i][j]; v > best {
					best, bestJ = v, j
				}
			}
			acc[kk] = best
			choice[row+kk] = bestJ
		}
	}
	plan.CoveredAfter = acc[k]
	// Reconstruct: walk regions backwards apportioning the budget.
	remaining := k
	for i := len(stems) - 1; i >= 0; i-- {
		pollDone(ctx, done)
		j := choice[i*(k+1)+remaining]
		if j > 0 {
			d.reconstruct(stems[i], -1, j, &plan.Points)
		}
		remaining -= j
	}
	sort.Ints(plan.Points)
	// Model self-check: the reconstruction must achieve the DP value.
	if got := m.coveredCount(plan.Points, dth); got != plan.CoveredAfter {
		// Never expected; fall back to the evaluated value to stay honest.
		plan.CoveredAfter = got
	}
	return plan, nil
}

// PlanObservationPointsGreedy selects OPs one at a time, each time adding
// the signal covering the most still-uncovered faults under the same
// model. The E4/E8 comparisons quantify its gap against the DP.
func PlanObservationPointsGreedy(c *netlist.Circuit, faults []fault.Fault, k int, dth float64, opts OPOptions) (*OPPlan, error) {
	if k < 0 {
		return nil, ErrBudgetNegative
	}
	m := newOPModel(c, faults, opts)
	plan := &OPPlan{
		TotalFaults:   len(faults),
		CoveredBefore: m.coveredCount(nil, dth),
	}
	covered := plan.CoveredBefore
	var ops []int
	for len(ops) < k {
		bestGain, bestSig := 0, -1
		for id := 0; id < c.NumGates(); id++ {
			if containsInt(ops, id) {
				continue
			}
			plan.StatesVisited++
			if v := m.coveredCount(append(ops[:len(ops):len(ops)], id), dth); v-covered > bestGain {
				bestGain, bestSig = v-covered, id
			}
		}
		if bestSig < 0 {
			break
		}
		ops = append(ops, bestSig)
		covered += bestGain
	}
	sort.Ints(ops)
	plan.Points = ops
	plan.CoveredAfter = m.coveredCount(ops, dth)
	return plan, nil
}

// PlanObservationPointsExhaustive tries every subset of at most k signals
// under the same model. Ground truth for small circuits.
func PlanObservationPointsExhaustive(c *netlist.Circuit, faults []fault.Fault, k int, dth float64, opts OPOptions) (*OPPlan, error) {
	if k < 0 {
		return nil, ErrBudgetNegative
	}
	m := newOPModel(c, faults, opts)
	plan := &OPPlan{
		TotalFaults:   len(faults),
		CoveredBefore: m.coveredCount(nil, dth),
	}
	plan.CoveredAfter = plan.CoveredBefore
	n := c.NumGates()
	cur := make([]int, 0, k)
	var rec func(start int)
	rec = func(start int) {
		if len(cur) > 0 {
			plan.StatesVisited++
			if v := m.coveredCount(cur, dth); v > plan.CoveredAfter {
				plan.CoveredAfter = v
				plan.Points = append(plan.Points[:0], cur...)
			}
		}
		if len(cur) == k {
			return
		}
		for i := start; i < n; i++ {
			cur = append(cur, i)
			rec(i + 1)
			cur = cur[:len(cur)-1]
		}
	}
	rec(0)
	sort.Ints(plan.Points)
	return plan, nil
}

// PlanObservationPointsRandom places k OPs uniformly at random.
func PlanObservationPointsRandom(c *netlist.Circuit, faults []fault.Fault, k int, dth float64, seed int64, opts OPOptions) (*OPPlan, error) {
	if k < 0 {
		return nil, ErrBudgetNegative
	}
	m := newOPModel(c, faults, opts)
	plan := &OPPlan{
		TotalFaults:   len(faults),
		CoveredBefore: m.coveredCount(nil, dth),
	}
	perm := rand.New(rand.NewSource(seed)).Perm(c.NumGates())
	if k > len(perm) {
		k = len(perm)
	}
	plan.Points = append(plan.Points, perm[:k]...)
	sort.Ints(plan.Points)
	plan.CoveredAfter = m.coveredCount(plan.Points, dth)
	return plan, nil
}

// ModelCoveredCount exposes the analytic coverage model for external
// evaluation: the number of faults meeting dth when observation points
// sit at the given signals.
func ModelCoveredCount(c *netlist.Circuit, faults []fault.Fault, ops []int, dth float64, opts OPOptions) int {
	m := newOPModel(c, faults, opts)
	return m.coveredCount(ops, dth)
}
