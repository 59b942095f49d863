package tpi

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/fsim"
	"repro/internal/gen"
	"repro/internal/netlist"
	"repro/internal/pattern"
)

func TestOPDPMatchesExhaustiveOnTrees(t *testing.T) {
	// On fanout-free circuits the per-region tree DP plus knapsack is a
	// globally optimal placement under the coverage model.
	for seed := int64(0); seed < 8; seed++ {
		c := gen.RandomTree(seed, 9, gen.TreeOptions{})
		faults := fault.CollapsedUniverse(c)
		for _, k := range []int{1, 2} {
			for _, dth := range []float64{0.05, 0.15, 0.3} {
				dp, err := PlanObservationPointsDP(c, faults, k, dth, OPOptions{})
				if err != nil {
					t.Fatal(err)
				}
				ex, err := PlanObservationPointsExhaustive(c, faults, k, dth, OPOptions{})
				if err != nil {
					t.Fatal(err)
				}
				if dp.CoveredAfter != ex.CoveredAfter {
					t.Errorf("seed %d k %d dth %.2f: DP covers %d, exhaustive %d (DP %v, EX %v)",
						seed, k, dth, dp.CoveredAfter, ex.CoveredAfter, dp.Points, ex.Points)
				}
				if len(dp.Points) > k {
					t.Errorf("budget exceeded: %v", dp.Points)
				}
			}
		}
	}
}

// TestOPDPOptimalForExactObjectiveOnTrees: on fanout-free circuits the
// coverage model is exact, with or without observation points, so the
// DP's plan is optimal for the true objective and not only for the
// model. A fault counts if at least dth·2^n of the 2^n input patterns
// detect it in the circuit with the points inserted; the DP's plan must
// reach its own CoveredAfter under that count and match the best count
// over every placement of at most k points on any signal.
func TestOPDPOptimalForExactObjectiveOnTrees(t *testing.T) {
	dths := []float64{1.0 / 64, 1.0 / 4096, 0.1}
	for _, leaves := range []int{8, 12} {
		if leaves > 8 && testing.Short() {
			continue
		}
		for seed := int64(1); seed <= 10; seed++ {
			c := gen.RandomTree(seed, leaves, gen.TreeOptions{})
			faults := fault.CollapsedUniverse(c)
			placements := [][]int{nil}
			for a := range c.NumGates() {
				placements = append(placements, []int{a})
				for b := a + 1; b < c.NumGates(); b++ {
					placements = append(placements, []int{a, b})
				}
			}
			// best[k][i] is the most faults a placement of at most k
			// points covers at dths[i].
			var best [3][3]int
			for _, points := range placements {
				counts := exactDetectCounts(t, c, faults, points)
				for k := len(points); k <= 2; k++ {
					for i, dth := range dths {
						best[k][i] = max(best[k][i], exactCovered(c, counts, dth))
					}
				}
			}
			for k := 1; k <= 2; k++ {
				for i, dth := range dths {
					dp, err := PlanObservationPointsDP(c, faults, k, dth, OPOptions{})
					if err != nil {
						t.Fatal(err)
					}
					got := exactCovered(c, exactDetectCounts(t, c, faults, dp.Points), dth)
					if got != dp.CoveredAfter || got != best[k][i] {
						t.Errorf("%s k %d dth %g: DP plan %v covers %d exactly, %d modelled; the best placement covers %d",
							c.Name(), k, dth, dp.Points, got, dp.CoveredAfter, best[k][i])
					}
				}
			}
		}
	}
}

// exactDetectCounts returns, per fault, how many of the 2^n input
// patterns detect it once observation points are inserted at points.
func exactDetectCounts(t *testing.T, c *netlist.Circuit, faults []fault.Fault, points []int) []int {
	t.Helper()
	plan := OPPlan{Points: points}
	mod, err := c.InsertTestPoints(plan.TestPoints())
	if err != nil {
		t.Fatal(err)
	}
	n := c.NumInputs()
	res, err := fsim.Run(mod, faults, pattern.NewCounter(n), fsim.Options{MaxPatterns: 1 << n, CountDetections: true})
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, len(faults))
	for i, f := range faults {
		counts[i] = res.DetectCount[f]
	}
	return counts
}

// exactCovered counts the faults that at least dth·2^n patterns detect.
func exactCovered(c *netlist.Circuit, counts []int, dth float64) int {
	covered := 0
	for _, n := range counts {
		if float64(n) >= dth*float64(int(1)<<c.NumInputs()) {
			covered++
		}
	}
	return covered
}

func TestOPDPMatchesExhaustiveOnReconvergent(t *testing.T) {
	// The DP optimises the same in-region coverage model the exhaustive
	// planner evaluates, so they must agree on general circuits too.
	for seed := int64(0); seed < 4; seed++ {
		c := gen.RandomDAG(seed, 6, 14, gen.DAGOptions{})
		faults := fault.CollapsedUniverse(c)
		for _, dth := range []float64{0.05, 0.2} {
			dp, err := PlanObservationPointsDP(c, faults, 2, dth, OPOptions{})
			if err != nil {
				t.Fatal(err)
			}
			ex, err := PlanObservationPointsExhaustive(c, faults, 2, dth, OPOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if dp.CoveredAfter != ex.CoveredAfter {
				t.Errorf("seed %d dth %.2f: DP %d != exhaustive %d", seed, dth, dp.CoveredAfter, ex.CoveredAfter)
			}
		}
	}
}

func TestOPDPNeverWorseThanGreedyOrRandom(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		c := gen.RandomDAG(seed, 10, 60, gen.DAGOptions{})
		faults := fault.CollapsedUniverse(c)
		const k, dth = 4, 0.1
		dp, err := PlanObservationPointsDP(c, faults, k, dth, OPOptions{})
		if err != nil {
			t.Fatal(err)
		}
		gr, err := PlanObservationPointsGreedy(c, faults, k, dth, OPOptions{})
		if err != nil {
			t.Fatal(err)
		}
		rnd, err := PlanObservationPointsRandom(c, faults, k, dth, seed, OPOptions{})
		if err != nil {
			t.Fatal(err)
		}
		// The random baseline draws from its seed alone: 4 of 70 gates
		// drawn from any other source would not repeat.
		if again, err := PlanObservationPointsRandom(c, faults, k, dth, seed, OPOptions{}); err != nil || !reflect.DeepEqual(again.Points, rnd.Points) {
			t.Errorf("seed %d: random points %v, then %v (err %v)", seed, rnd.Points, again.Points, err)
		}
		if dp.CoveredAfter < gr.CoveredAfter {
			t.Errorf("seed %d: DP %d worse than greedy %d", seed, dp.CoveredAfter, gr.CoveredAfter)
		}
		if dp.CoveredAfter < rnd.CoveredAfter {
			t.Errorf("seed %d: DP %d worse than random %d", seed, dp.CoveredAfter, rnd.CoveredAfter)
		}
		if gr.CoveredBefore != dp.CoveredBefore || rnd.CoveredBefore != dp.CoveredBefore {
			t.Errorf("planners disagree on baseline coverage")
		}
	}
}

func TestOPDPReconstructionConsistent(t *testing.T) {
	// The reconstructed placement must achieve exactly the DP value when
	// re-evaluated by the independent model evaluator.
	for seed := int64(0); seed < 6; seed++ {
		c := gen.RandomTree(seed, 20, gen.TreeOptions{})
		faults := fault.CollapsedUniverse(c)
		dp, err := PlanObservationPointsDP(c, faults, 3, 0.1, OPOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if got := newOPModel(c, faults, OPOptions{}).coveredCount(dp.Points, 0.1, nil); got != dp.CoveredAfter {
			t.Errorf("seed %d: reconstruction covers %d, plan claims %d", seed, got, dp.CoveredAfter)
		}
	}
}

func TestOPDPZeroBudgetEqualsBaseline(t *testing.T) {
	c := gen.C17()
	faults := fault.CollapsedUniverse(c)
	dp, err := PlanObservationPointsDP(c, faults, 0, 0.1, OPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if dp.CoveredAfter != dp.CoveredBefore || len(dp.Points) != 0 {
		t.Errorf("zero budget: %+v", dp)
	}
}

func TestOPHelpsPropagationLimitedFault(t *testing.T) {
	// Circuit: an easy-to-excite signal buried behind a blocking AND cone:
	// x = OR(a,b); out = AND(x, c, d, e, f). Faults on x propagate with
	// probability 2^-4 = 0.0625. An OP at x lifts them to excitation-only.
	b := netlist.NewBuilder("blocked")
	a := b.Input("a")
	x0 := b.Input("b")
	cc := b.Input("c")
	d := b.Input("d")
	e := b.Input("e")
	f := b.Input("f")
	x := b.OrGate("x", a, x0)
	out := b.AndGate("out", x, cc, d, e, f)
	b.MarkOutput(out)
	c := b.MustBuild()
	faults := fault.CollapsedUniverse(c)
	const dth = 0.2
	dp, err := PlanObservationPointsDP(c, faults, 1, dth, OPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if dp.CoveredAfter <= dp.CoveredBefore {
		t.Errorf("OP did not improve coverage: before %d after %d", dp.CoveredBefore, dp.CoveredAfter)
	}
	// The chosen point must be on the blocked side (x or upstream of x),
	// not on the easy AND inputs.
	if len(dp.Points) != 1 {
		t.Fatalf("points = %v", dp.Points)
	}
	xid, _ := c.GateByName("x")
	p := dp.Points[0]
	inXCone := false
	for _, g := range c.FaninCone(xid) {
		if g == p {
			inXCone = true
		}
	}
	if p != xid && !inXCone {
		t.Errorf("OP placed at %s, expected at/under x", c.GateName(p))
	}
}

func TestOPPlanImprovesRealFaultCoverage(t *testing.T) {
	// End-to-end: plan OPs on a propagation-limited circuit, insert them,
	// and confirm the fault simulator sees higher coverage with a short
	// pattern budget.
	c := gen.RPResistant(21, 2, 10, 40)
	faults := fault.CollapsedUniverse(c)
	dp, err := PlanObservationPointsDP(c, faults, 6, 1.0/256, OPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(dp.Points) == 0 {
		t.Skip("planner found no useful OPs on this instance")
	}
	mod, err := c.InsertTestPoints(dp.TestPoints())
	if err != nil {
		t.Fatal(err)
	}
	before, err := fsim.Run(c, faults, pattern.NewLFSR(5), fsim.Options{MaxPatterns: 2048, DropFaults: true})
	if err != nil {
		t.Fatal(err)
	}
	after, err := fsim.Run(mod, faults, pattern.NewLFSR(5), fsim.Options{MaxPatterns: 2048, DropFaults: true})
	if err != nil {
		t.Fatal(err)
	}
	if after.Coverage() < before.Coverage() {
		t.Errorf("observation points reduced real coverage: %.4f -> %.4f", before.Coverage(), after.Coverage())
	}
}

func TestOPNegativeBudget(t *testing.T) {
	c := gen.C17()
	if _, err := PlanObservationPointsDP(c, fault.CollapsedUniverse(c), -1, 0.1, OPOptions{}); err != ErrBudgetNegative {
		t.Errorf("expected ErrBudgetNegative, got %v", err)
	}
}

// TestOPDPBudgetClampedToCircuit: a plan holds at most one OP per
// signal, so a budget beyond the gate count must plan exactly as the
// gate count does, and as fast.
func TestOPDPBudgetClampedToCircuit(t *testing.T) {
	c := gen.C17()
	faults := fault.CollapsedUniverse(c)
	want, err := PlanObservationPointsDP(c, faults, c.NumGates(), 0.1, OPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	got, err := PlanObservationPointsDP(c, faults, 1_000_000, 0.1, OPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > 100*time.Millisecond {
		t.Errorf("budget 1e6 on c17 took %v", d)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("budget 1e6 plan %+v, want the budget-%d plan %+v", got, c.NumGates(), want)
	}
}

// TestOPDPHonorsDeadlineAcrossRegions pins the polls outside the region
// trees. Every gate of this ladder is its own fanout-free region, so the
// region DPs finish at once and the cross-region knapsack, O(regions ×
// k²), holds all the work. Without splitKnapsack's poll the plan still
// fails with DeadlineExceeded, from the coverage walk after the split,
// but 0.75 s or more after the start on a 2-vCPU host, against 0.20 s
// with it; the 250 ms margin, as in TestOPDPHonorsDeadlineInCoverageWalk,
// tells the two apart.
func TestOPDPHonorsDeadlineAcrossRegions(t *testing.T) {
	const n = 600
	b := netlist.NewBuilder("ladder")
	in := make([]int, n+1)
	for i := range in {
		in[i] = b.Input(fmt.Sprintf("x%d", i))
	}
	for i := 0; i < n; i++ {
		b.MarkOutput(b.AndGate(fmt.Sprintf("g%d", i), in[i], in[i+1]))
	}
	c := b.MustBuild()
	const deadline = 200 * time.Millisecond
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()
	start := time.Now()
	_, err := PlanObservationPointsDPContext(ctx, c, fault.CollapsedUniverse(c), c.NumGates(), 0.1, OPOptions{})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if d := time.Since(start); d > deadline+250*time.Millisecond {
		t.Errorf("deadline of %v honoured after %v", deadline, d)
	}
}

// TestOPDPHonorsDeadlineInCoverageWalk pins the coverage model's walk
// from each faulty node up to its stem: on a 20,000-inverter chain over
// the full fault universe (the collapsed one keeps only two faults) one
// walk costs O(gates × depth), about a second, so it must poll.
func TestOPDPHonorsDeadlineInCoverageWalk(t *testing.T) {
	const n = 20000
	b := netlist.NewBuilder("chain")
	prev := b.Input("x")
	for i := 0; i < n; i++ {
		prev = b.NotGate(fmt.Sprintf("g%d", i), prev)
	}
	b.MarkOutput(prev)
	c := b.MustBuild()
	const deadline = 300 * time.Millisecond
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()
	start := time.Now()
	_, err := PlanObservationPointsDPContext(ctx, c, fault.Universe(c), 4, 1.0/4096, OPOptions{})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if d := time.Since(start); d > deadline+250*time.Millisecond {
		t.Errorf("deadline of %v honoured after %v", deadline, d)
	}
}
