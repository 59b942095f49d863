package tpi

import (
	"bufio"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cli"
	"repro/internal/fault"
	"repro/internal/gen"
	"repro/internal/netlist"
	"repro/internal/testability"
)

// The golden plan tables pin every field of full plans from the P1 cut
// DP and from the control and hybrid planners, so a rewrite of either
// planner's internals must reproduce them exactly. The test only
// compares: a differing row is reported with the row the current
// planner produces, and an intended change of planner output is made by
// editing those rows of internal/tpi/testdata/golden_*.txt by hand.
func TestGoldenPlans(t *testing.T) {
	t.Run("cuts", func(t *testing.T) { checkGolden(t, "golden_cuts.txt", goldenCutRows(t)) })
	t.Run("control", func(t *testing.T) { checkGolden(t, "golden_control.txt", goldenControlRows(t)) })
}

// checkGolden compares rows with the named testdata file line by line.
func checkGolden(t *testing.T, name string, rows []string) {
	t.Helper()
	f, err := os.Open(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var want []string
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		want = append(want, sc.Text())
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(want) {
		t.Errorf("%s: %d rows, golden has %d", name, len(rows), len(want))
	}
	for i := 0; i < len(rows) && i < len(want); i++ {
		if rows[i] != want[i] {
			t.Errorf("%s row %d differs:\n got  %s\n want %s", name, i, rows[i], want[i])
		}
	}
}

// goldenCutRows plans the serve cuts shape (tree:leaves=2000) at three
// budgets, and small random trees at budgets 0-5 under unit and
// weighted insertion costs.
func goldenCutRows(t *testing.T) []string {
	var rows []string
	row := func(name string, p *CutPlan) {
		rows = append(rows, fmt.Sprintf("%s base=%d max=%d states=%d cuts=%s",
			name, p.BaseCost, p.MaxCost, p.StatesVisited, joinInts(p.Cuts)))
	}
	for _, seed := range []int{1, 2, 3} {
		spec := fmt.Sprintf("tree:leaves=2000,seed=%d", seed)
		c, err := cli.Generate(spec)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range []int{1, 4, 9} {
			p, err := PlanCutsDP(c, k)
			if err != nil {
				t.Fatal(err)
			}
			row(fmt.Sprintf("%s k=%d", spec, k), p)
		}
	}
	for seed := int64(0); seed < 24; seed++ {
		leaves := 8 + int(seed)*3
		c := gen.RandomTree(seed, leaves, gen.TreeOptions{MaxFanin: 2 + int(seed%3)})
		rng := rand.New(rand.NewSource(seed + 77))
		costs := make([]int, c.NumGates())
		for i := range costs {
			costs[i] = 1 + rng.Intn(3)
		}
		weighted := func(s int) int { return costs[s] }
		for k := 0; k <= 5; k++ {
			p, err := PlanCutsDP(c, k)
			if err != nil {
				t.Fatal(err)
			}
			row(fmt.Sprintf("tree seed=%d leaves=%d k=%d unit", seed, leaves, k), p)
			p, err = PlanCutsDPWithCost(c, k, weighted)
			if err != nil {
				t.Fatal(err)
			}
			row(fmt.Sprintf("tree seed=%d leaves=%d k=%d weighted", seed, leaves, k), p)
		}
	}
	return rows
}

// goldenControlRows runs the control planner and the hybrid flow over
// reconvergent circuits under the default options, the CombineOr stem
// rule, a candidate cap, and input probabilities that reach past the
// primary inputs to the inserted test inputs.
func goldenControlRows(t *testing.T) []string {
	// dth is each circuit's base threshold, high enough on the small
	// circuits that some faults are hard.
	specs := []struct {
		spec string
		dth  float64
	}{
		{"c17", 0.2},
		{"dag:gates=300,seed=1", 1.0 / 4096},
		{"dag:gates=300,seed=2", 1.0 / 4096},
		{"dag:gates=800,seed=3", 1.0 / 4096},
		{"rpr:cones=3,width=12,glue=80,seed=2", 1.0 / 4096},
		{"mul:width=5", 0.02},
	}
	const ncp, nop = 3, 4
	var rows []string
	for _, sp := range specs {
		spec := sp.spec
		c, err := cli.Generate(spec)
		if err != nil {
			t.Fatal(err)
		}
		faults := fault.CollapsedUniverse(c)
		ni := c.NumInputs()
		skewed := make([]float64, ni+ncp)
		for i := range skewed {
			if i < ni {
				skewed[i] = 0.35 + 0.3*float64(i%5)/4
			} else {
				skewed[i] = 0.8 - 0.1*float64(i-ni)
			}
		}
		variants := []struct {
			name string
			opts CPOptions
			dth  float64
		}{
			{"default", CPOptions{}, sp.dth},
			{"or", CPOptions{COP: testability.COPOptions{Combine: testability.CombineOr}}, 4 * sp.dth},
			{"cap16", CPOptions{MaxCandidates: 16}, sp.dth},
			{"inputprob", CPOptions{COP: testability.COPOptions{InputProb: skewed, Combine: testability.CombineOr}}, 2 * sp.dth},
		}
		for _, v := range variants {
			name := fmt.Sprintf("%s %s", spec, v.name)
			cp, err := PlanControlPointsGreedy(c, faults, ncp, v.dth, v.opts)
			if err != nil {
				t.Fatal(err)
			}
			rows = append(rows, fmt.Sprintf("%s control points=%s before=%d after=%d total=%d evals=%d",
				name, joinPoints(cp.Points), cp.CoveredBefore, cp.CoveredAfter, cp.TotalFaults, cp.Evaluations))
			h, err := PlanHybrid(c, faults, ncp, nop, v.dth, v.opts, OPOptions{COP: v.opts.COP})
			if err != nil {
				t.Fatal(err)
			}
			rows = append(rows, fmt.Sprintf("%s hybrid pruned=%d cp=%s cpbefore=%d cpafter=%d evals=%d op=%s opbefore=%d opafter=%d total=%d states=%d gates=%d",
				name, h.PrunedFaults, joinPoints(h.Control.Points), h.Control.CoveredBefore, h.Control.CoveredAfter,
				h.Control.Evaluations, joinInts(h.Observe.Points), h.Observe.CoveredBefore, h.Observe.CoveredAfter,
				h.Observe.TotalFaults, h.Observe.StatesVisited, h.Modified.NumGates()))
		}
	}
	return rows
}

func joinInts(xs []int) string {
	if len(xs) == 0 {
		return "-"
	}
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprint(x)
	}
	return strings.Join(parts, ",")
}

func joinPoints(pts []netlist.TestPoint) string {
	if len(pts) == 0 {
		return "-"
	}
	parts := make([]string, len(pts))
	for i, p := range pts {
		parts[i] = fmt.Sprintf("%d:%s", p.Signal, p.Kind)
	}
	return strings.Join(parts, ",")
}
