package exp

import (
	"context"
	"fmt"
	"time"

	"repro/internal/atpg"
	"repro/internal/fault"
	"repro/internal/gen"
	"repro/internal/netlist"
	"repro/internal/testcount"
	"repro/internal/tpi"
)

// Config scales the experiment workloads. Quick mode shrinks circuits and
// pattern budgets so the whole suite runs in CI time; the full mode is
// what EXPERIMENTS.md records.
type Config struct {
	Quick bool
}

// treeSuite returns the fanout-free benchmark circuits used by E1-E3.
func treeSuite(cfg Config) []*netlist.Circuit {
	sizes := []int{6, 20, 100, 400}
	if cfg.Quick {
		sizes = []int{6, 20}
	}
	var out []*netlist.Circuit
	for i, n := range sizes {
		out = append(out, gen.RandomTree(int64(i+1), n, gen.TreeOptions{}))
	}
	out = append(out, gen.AndCone(32))
	return out
}

// e1TestCounts regenerates Table 1: the Hayes–Friedman minimal test
// counts on fanout-free circuits, cross-checked against a compacted
// PODEM test set (an upper bound that is provably never below the DP
// count) and, for the smallest instances, the exact set-cover minimum.
func e1TestCounts(ctx context.Context, cfg Config) (*Table, error) {
	t := &Table{
		ID:      "E1",
		Title:   "Minimal complete test set sizes on fanout-free circuits (Table 1)",
		Columns: []string{"circuit", "inputs", "gates", "t0(root)", "t1(root)", "min tests (DP)", "ATPG vectors", "ATPG compacted", "ATPG redundant"},
		Notes: []string{
			"min tests (DP) is exact (Hayes-Friedman recurrences; validated against an exact cover solver in internal/testcount tests)",
			"ATPG vectors is a greedily-compacted PODEM set; ATPG compacted adds static reverse-order compaction. Both upper-bound the minimum",
		},
	}
	for _, c := range treeSuite(cfg) {
		ct, err := testcount.Compute(c)
		if err != nil {
			return nil, fmt.Errorf("E1 %s: %w", c.Name(), err)
		}
		root := c.Outputs()[0]
		ts, err := atpg.GenerateTestsContext(ctx, c, fault.Universe(c), atpg.Options{})
		if err != nil {
			return nil, fmt.Errorf("E1 %s: %w", c.Name(), err)
		}
		compacted := atpg.CompactTests(c, fault.Universe(c), ts.Vectors)
		t.AddRow(c.Name(), c.NumInputs(), c.NumGates()-c.NumInputs(),
			ct.T0[root], ct.T1[root], ct.CircuitTests(), len(ts.Vectors), len(compacted), len(ts.Redundant))
	}
	return t, nil
}

// e2Insertion regenerates Table 2: minimax test counts after inserting K
// full test points, planner by planner. The DP matches the exhaustive
// optimum; greedy and random trail it.
func e2Insertion(ctx context.Context, cfg Config) (*Table, error) {
	t := &Table{
		ID:      "E2",
		Title:   "Test count after inserting K full test points (Table 2)",
		Columns: []string{"circuit", "K", "base", "DP", "exhaustive", "greedy", "random"},
		Notes: []string{
			"exhaustive is omitted (-) where the subset space is too large",
		},
	}
	seeds := []int64{1, 2, 3}
	leaves := 12
	ks := []int{1, 2, 3, 4}
	if cfg.Quick {
		seeds = seeds[:2]
		ks = []int{1, 2}
	}
	for _, seed := range seeds {
		c := gen.RandomTree(seed, leaves, gen.TreeOptions{})
		for _, k := range ks {
			dp, err := tpi.PlanCutsDPContext(ctx, c, k)
			if err != nil {
				return nil, err
			}
			exCost := "-"
			if leaves <= 14 {
				ex, err := tpi.PlanCutsExhaustive(c, k)
				if err != nil {
					return nil, err
				}
				exCost = fmt.Sprint(ex.MaxCost)
			}
			gr, err := tpi.PlanCutsGreedy(c, k)
			if err != nil {
				return nil, err
			}
			rnd, err := tpi.PlanCutsRandom(c, k, seed+1000)
			if err != nil {
				return nil, err
			}
			t.AddRow(c.Name(), k, dp.BaseCost, dp.MaxCost, exCost, gr.MaxCost, rnd.MaxCost)
		}
	}
	return t, nil
}

// e3Sweep regenerates Figure 1: the diminishing-returns curve of optimal
// test count versus test point budget, with the greedy curve alongside.
func e3Sweep(ctx context.Context, cfg Config) (*Series, error) {
	leaves := 200
	maxK := 16
	if cfg.Quick {
		leaves = 60
		maxK = 6
	}
	c := gen.RandomTree(42, leaves, gen.TreeOptions{})
	var dpLine, grLine Line
	dpLine.Name = "DP (optimal)"
	grLine.Name = "greedy"
	for k := 0; k <= maxK; k++ {
		dp, err := tpi.PlanCutsDPContext(ctx, c, k)
		if err != nil {
			return nil, err
		}
		dpLine.Points = append(dpLine.Points, Point{X: float64(k), Y: float64(dp.MaxCost)})
		gr, err := tpi.PlanCutsGreedy(c, k)
		if err != nil {
			return nil, err
		}
		grLine.Points = append(grLine.Points, Point{X: float64(k), Y: float64(gr.MaxCost)})
	}
	return &Series{
		ID:     "E3",
		Title:  fmt.Sprintf("Test count vs test point budget, %d-leaf tree (Figure 1)", leaves),
		XLabel: "K",
		YLabel: "minimax tests",
		Lines:  []Line{dpLine, grLine},
	}, nil
}

// timeIt runs f and returns its duration.
func timeIt(f func() error) (time.Duration, error) {
	start := time.Now()
	err := f()
	return time.Since(start), err
}
