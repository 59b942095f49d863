package tpi

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/cli"
	"repro/internal/gen"
	"repro/internal/netlist"
	"repro/internal/testcount"
)

// weightedCost returns a seeded cost model charging 1-3 units per
// signal.
func weightedCost(c *netlist.Circuit, seed int64) CostFunc {
	rng := rand.New(rand.NewSource(seed))
	w := make([]int, c.NumGates())
	for i := range w {
		w[i] = 1 + rng.Intn(3)
	}
	return func(s int) int { return w[s] }
}

// matchCutsReference plans c at budget k under cost with the DP and with
// the reference, and reports any field that differs.
func matchCutsReference(t *testing.T, name string, c *netlist.Circuit, k int, cost CostFunc) {
	t.Helper()
	got, err := planCutsDPWithCost(context.Background(), c, k, cost)
	if err != nil {
		t.Fatalf("%s k=%d: %v", name, k, err)
	}
	want, err := referencePlanCutsDPWithCost(context.Background(), c, k, cost)
	if err != nil {
		t.Fatalf("%s k=%d: reference: %v", name, k, err)
	}
	if got.MaxCost != want.MaxCost || got.BaseCost != want.BaseCost ||
		got.StatesVisited != want.StatesVisited || !slices.Equal(got.Cuts, want.Cuts) {
		t.Errorf("%s k=%d:\n got  base=%d max=%d states=%d cuts=%v\n want base=%d max=%d states=%d cuts=%v",
			name, k, got.BaseCost, got.MaxCost, got.StatesVisited, got.Cuts,
			want.BaseCost, want.MaxCost, want.StatesVisited, want.Cuts)
	}
}

// copyTree copies tree's gates into b under prefix, putting a chain of
// up to chainMax NOT/BUF gates above each signal with probability
// chainPct, and returns the copy of its output.
func copyTree(b *netlist.Builder, tree *netlist.Circuit, prefix string, rng *rand.Rand, chainPct float64, chainMax int) int {
	ids := make([]int, tree.NumGates())
	for _, id := range tree.TopoOrder() {
		g := tree.Gate(id)
		fanin := make([]int, len(g.Fanin))
		for i, f := range g.Fanin {
			fanin[i] = ids[f]
		}
		ids[id] = b.Add(g.Type, prefix+g.Name, fanin...)
		if rng.Float64() < chainPct {
			for n := 1 + rng.Intn(chainMax); n > 0; n-- {
				t := netlist.Not
				if rng.Intn(2) == 0 {
					t = netlist.Buf
				}
				ids[id] = b.Add(t, "", ids[id])
			}
		}
	}
	return ids[tree.Outputs()[0]]
}

// forest builds a fanout-free circuit of trees random trees sharing one
// budget, one output each, with NOT/BUF chains above a share chainPct of
// the signals.
func forest(seed int64, trees, maxLeaves int, chainPct float64) *netlist.Circuit {
	rng := rand.New(rand.NewSource(seed))
	b := netlist.NewBuilder(fmt.Sprintf("forest_s%d", seed))
	for i := 0; i < trees; i++ {
		tree := gen.RandomTree(seed*31+int64(i), 2+rng.Intn(maxLeaves-1), gen.TreeOptions{MaxFanin: 2 + rng.Intn(5)})
		b.MarkOutput(copyTree(b, tree, fmt.Sprintf("t%d_", i), rng, chainPct, 4))
	}
	return b.MustBuild()
}

// notChain is a single input under n alternating NOT and BUF gates.
func notChain(n int) *netlist.Circuit {
	b := netlist.NewBuilder("chain")
	s := b.Input("a")
	for i := 0; i < n; i++ {
		if i%3 == 2 {
			s = b.BufGate("", s)
		} else {
			s = b.NotGate("", s)
		}
	}
	b.MarkOutput(s)
	return b.MustBuild()
}

// TestCutsDPMatchesReference holds the DP, which reuses settled nodes
// across the threshold search, to the reference that recomputes every
// node on every probe: cuts, costs and StatesVisited must all agree.
func TestCutsDPMatchesReference(t *testing.T) {
	for seed := 1; seed <= 5; seed++ {
		spec := fmt.Sprintf("tree:leaves=2000,seed=%d", seed)
		c, err := cli.Generate(spec)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range []int{1, 4, 9} {
			matchCutsReference(t, spec, c, k, UnitCost)
		}
	}
	// Random trees at every fanin bound and size up to 300 leaves, and
	// forests. Under -short each circuit gets two budgets, which over the
	// seeds still cover 0-9.
	step := int64(1)
	if testing.Short() {
		step = 5
	}
	for seed := int64(0); seed < 200; seed++ {
		maxFanin := 2 + int(seed%5)
		leaves := 2 + int(seed*37%299)
		c := gen.RandomTree(seed, leaves, gen.TreeOptions{MaxFanin: maxFanin})
		name := fmt.Sprintf("RandomTree(%d, %d, MaxFanin %d)", seed, leaves, maxFanin)
		for k := seed % step; k <= 9; k += step {
			matchCutsReference(t, name, c, int(k), UnitCost)
			matchCutsReference(t, name+" weighted", c, int(k), weightedCost(c, seed))
		}
	}
	for seed := int64(0); seed < 20; seed++ {
		c := forest(seed, 2+int(seed%4), 60, 0.2*float64(seed%3))
		for k := seed % step; k <= 9; k += step {
			matchCutsReference(t, c.Name(), c, int(k), UnitCost)
			matchCutsReference(t, c.Name()+" weighted", c, int(k), weightedCost(c, seed))
		}
	}
	for _, n := range []int{1, 2, 7, 40} {
		c := notChain(n)
		for k := 0; k <= 3; k++ {
			matchCutsReference(t, fmt.Sprintf("chain of %d", n), c, k, UnitCost)
		}
	}
}

// FuzzCutsDPMatchesReference extends TestCutsDPMatchesReference to
// fuzzed trees, budgets and cost seeds; cost seed 0 means unit costs.
func FuzzCutsDPMatchesReference(f *testing.F) {
	f.Add(int64(1), uint16(50), uint8(2), uint8(4), int64(0))
	f.Add(int64(7), uint16(400), uint8(4), uint8(12), int64(3))
	f.Add(int64(3), uint16(2), uint8(6), uint8(1), int64(9))
	f.Fuzz(func(t *testing.T, seed int64, leaves uint16, maxFanin, k uint8, costSeed int64) {
		c := gen.RandomTree(seed, 2+int(leaves%399), gen.TreeOptions{MaxFanin: 2 + int(maxFanin%5)})
		cost := UnitCost
		if costSeed != 0 {
			cost = weightedCost(c, costSeed)
		}
		matchCutsReference(t, c.Name(), c, int(k%13), cost)
	})
}

// TestCutsDPReusesSettledNodes pins the reuse: over the whole threshold
// search on the serve cuts shape, computeNode runs on barely more nodes
// than one probe has, where recomputing every probe runs it on about
// nine times as many, and the store of settled blocks stays within its
// pre-size of four states per gate.
func TestCutsDPReusesSettledNodes(t *testing.T) {
	for seed := 1; seed <= 3; seed++ {
		spec := fmt.Sprintf("tree:leaves=2000,seed=%d", seed)
		c, err := cli.Generate(spec)
		if err != nil {
			t.Fatal(err)
		}
		base, err := testcount.Compute(c)
		if err != nil {
			t.Fatal(err)
		}
		costs := make([]int, c.NumGates())
		for i := range costs {
			costs[i] = 1
		}
		dp := newCutDP(context.Background(), c, costs)
		dp.search(base.CircuitTests(), 4)
		n := c.NumGates()
		if limit := int64(n) * 6 / 5; dp.computed > limit {
			t.Errorf("%s k=4: computed %d nodes over the search, want <= %d (1.2 x %d gates)", spec, dp.computed, limit, n)
		}
		if len(dp.store) >= 4*n {
			t.Errorf("%s k=4: store holds %d states, want < %d (4 x %d gates)", spec, len(dp.store), 4*n, n)
		}
	}
}
