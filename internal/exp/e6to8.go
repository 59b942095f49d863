package exp

import (
	"context"
	"fmt"
	"time"

	"repro/internal/fault"
	"repro/internal/fsim"
	"repro/internal/gen"
	"repro/internal/npc"
	"repro/internal/pattern"
	"repro/internal/tpi"
)

// e6Scaling regenerates Table 4: planner work versus circuit size at a
// fixed budget, demonstrating the polynomial DP against the exponential
// exhaustive search.
func e6Scaling(ctx context.Context, cfg Config) (*Table, error) {
	t := &Table{
		ID:      "E6",
		Title:   "Planner scaling at K=4 full test points (Table 4)",
		Columns: []string{"leaves", "gates", "DP states", "DP time", "exhaustive configs", "exhaustive time", "greedy time"},
		Notes: []string{
			"exhaustive is run only while its subset space stays below ~3e5 configurations",
		},
	}
	sizes := []int{10, 20, 50, 100, 200, 500}
	if cfg.Quick {
		sizes = []int{10, 20, 50}
	}
	const k = 4
	for _, n := range sizes {
		c := gen.RandomTree(11, n, gen.TreeOptions{})
		var dp *tpi.CutPlan
		dpTime, err := timeIt(func() error {
			var e error
			dp, e = tpi.PlanCutsDPContext(ctx, c, k)
			return e
		})
		if err != nil {
			return nil, err
		}
		// Exhaustive only where its C(internal, K) subset space is small.
		exStates, exTime := "-", "-"
		if n <= 20 {
			var ex *tpi.CutPlan
			d, err := timeIt(func() error {
				var e error
				ex, e = tpi.PlanCutsExhaustive(c, k)
				return e
			})
			if err != nil {
				return nil, err
			}
			exStates = fmt.Sprint(ex.StatesVisited)
			exTime = d.Round(time.Microsecond).String()
			if ex.MaxCost != dp.MaxCost {
				return nil, fmt.Errorf("E6: DP %d != exhaustive %d at n=%d", dp.MaxCost, ex.MaxCost, n)
			}
		}
		grTime, err := timeIt(func() error {
			_, e := tpi.PlanCutsGreedy(c, k)
			return e
		})
		if err != nil {
			return nil, err
		}
		t.AddRow(n, c.NumGates()-c.NumInputs(), dp.StatesVisited,
			dpTime.Round(time.Microsecond).String(), exStates, exTime,
			grTime.Round(time.Microsecond).String())
	}
	return t, nil
}

// e7Reduction regenerates Table 5: the Set Cover reduction checked end to
// end — the brute-force TPI optimum equals the Set Cover optimum on every
// instance, and gadget sizes stay polynomial.
func e7Reduction(ctx context.Context, cfg Config) (*Table, error) {
	t := &Table{
		ID:      "E7",
		Title:   "Set Cover -> TPI reduction equivalence (Table 5)",
		Columns: []string{"instance", "elements", "sets", "gadget gates", "set cover min", "TPI min", "agree"},
		Notes: []string{
			"TPI min is found by exhaustive subset search with real fault simulation of the gadget",
		},
	}
	type inst struct {
		seed           int64
		elems, sets, m int
	}
	instances := []inst{{1, 6, 5, 3}, {2, 8, 6, 4}, {3, 10, 7, 4}, {4, 12, 8, 5}}
	if cfg.Quick {
		instances = instances[:2]
	}
	for _, in := range instances {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		sc := npc.RandomInstance(in.seed, in.elems, in.sets, in.m)
		red, err := npc.Reduce(sc)
		if err != nil {
			return nil, err
		}
		want := npc.SolveSetCoverExact(sc)
		got, _, err := red.SolveTPIBruteForce()
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprintf("sc%d", in.seed), in.elems, in.sets,
			red.Circuit.NumGates(), want, got, got == want)
	}
	return t, nil
}

// e8Ablations regenerates Table 6: the design-choice ablations DESIGN.md
// calls out.
func e8Ablations(ctx context.Context, cfg Config) (*Table, error) {
	t := &Table{
		ID:      "E8",
		Title:   "Design ablations (Table 6)",
		Columns: []string{"ablation", "configuration", "metric", "value"},
	}

	// (a) DP vs greedy on a larger tree at a generous budget.
	leaves := 300
	if cfg.Quick {
		leaves = 60
	}
	tree := gen.RandomTree(5, leaves, gen.TreeOptions{})
	dp, err := tpi.PlanCutsDPContext(ctx, tree, 8)
	if err != nil {
		return nil, err
	}
	gr, err := tpi.PlanCutsGreedy(tree, 8)
	if err != nil {
		return nil, err
	}
	t.AddRow("a: cut planner", "DP (exact)", "minimax tests", dp.MaxCost)
	t.AddRow("a: cut planner", "greedy", "minimax tests", gr.MaxCost)

	// (b) control-only vs observe-only vs hybrid on an RP-resistant
	// circuit, by real fault simulation.
	c := gen.RPResistant(3, 3, 12, 60)
	patterns := patternsFor(cfg) / 2
	dth := 4.0 / float64(patterns)
	faults := fault.CollapsedUniverse(c)
	base, err := coverageUnder(ctx, c, faults, patterns, 0xfeed)
	if err != nil {
		return nil, err
	}
	t.AddRow("b: point mix", "none", "coverage", base)
	cpOnly, err := tpi.PlanControlPointsGreedyContext(ctx, c, faults, 6, dth, tpi.CPOptions{})
	if err != nil {
		return nil, err
	}
	cpFC, err := coverageUnder(ctx, cpOnly.Modified, faults, patterns, 0xfeed)
	if err != nil {
		return nil, err
	}
	t.AddRow("b: point mix", fmt.Sprintf("control only (%d)", len(cpOnly.Points)), "coverage", cpFC)
	opOnly, err := tpi.PlanObservationPointsDPContext(ctx, c, faults, 6, dth, tpi.OPOptions{})
	if err != nil {
		return nil, err
	}
	opMod, err := c.InsertTestPoints(opOnly.TestPoints())
	if err != nil {
		return nil, err
	}
	opFC, err := coverageUnder(ctx, opMod, faults, patterns, 0xfeed)
	if err != nil {
		return nil, err
	}
	t.AddRow("b: point mix", fmt.Sprintf("observe only (%d)", len(opOnly.Points)), "coverage", opFC)
	h, err := tpi.PlanHybridContext(ctx, c, faults, 3, 3, dth, tpi.CPOptions{}, tpi.OPOptions{})
	if err != nil {
		return nil, err
	}
	hFC, err := coverageUnder(ctx, h.Modified, faults, patterns, 0xfeed)
	if err != nil {
		return nil, err
	}
	t.AddRow("b: point mix", fmt.Sprintf("hybrid (%d+%d)", len(h.Control.Points), len(h.Observe.Points)), "coverage", hFC)

	// (c) fault dropping on/off: identical detections, different time.
	dagGates := 400
	if cfg.Quick {
		dagGates = 150
	}
	dag := gen.RandomDAG(13, 16, dagGates, gen.DAGOptions{})
	dfaults := fault.CollapsedUniverse(dag)
	var detWith, detWithout int
	dWith, err := timeIt(func() error {
		r, e := fsim.RunContext(ctx, dag, dfaults, pattern.NewLFSR(3), fsim.Options{MaxPatterns: patterns, DropFaults: true})
		if e == nil {
			detWith = len(r.FirstDetect)
		}
		return e
	})
	if err != nil {
		return nil, err
	}
	dWithout, err := timeIt(func() error {
		r, e := fsim.RunContext(ctx, dag, dfaults, pattern.NewLFSR(3), fsim.Options{MaxPatterns: patterns, DropFaults: false})
		if e == nil {
			detWithout = len(r.FirstDetect)
		}
		return e
	})
	if err != nil {
		return nil, err
	}
	if detWith != detWithout {
		return nil, fmt.Errorf("E8c: dropping changed detections: %d vs %d", detWith, detWithout)
	}
	t.AddRow("c: fault dropping", "on", "sim time", dWith.Round(time.Microsecond).String())
	t.AddRow("c: fault dropping", "off", "sim time", dWithout.Round(time.Microsecond).String())
	t.AddRow("c: fault dropping", "both", "faults detected", detWith)

	// (d) collapsed vs uncollapsed universe: coverage must agree.
	full := fault.Universe(dag)
	rFull, err := fsim.RunContext(ctx, dag, full, pattern.NewLFSR(3), fsim.Options{MaxPatterns: patterns, DropFaults: true})
	if err != nil {
		return nil, err
	}
	rCol, err := fsim.RunContext(ctx, dag, dfaults, pattern.NewLFSR(3), fsim.Options{MaxPatterns: patterns, DropFaults: true})
	if err != nil {
		return nil, err
	}
	t.AddRow("d: collapsing", "uncollapsed", "faults / coverage", fmt.Sprintf("%d / %.4f", len(full), rFull.Coverage()))
	t.AddRow("d: collapsing", "collapsed", "faults / coverage", fmt.Sprintf("%d / %.4f", len(dfaults), rCol.Coverage()))
	return t, nil
}

// Experiment is one entry of the reconstructed evaluation: an ID (as
// used by DESIGN.md and `experiments -only`) plus its cancellable runner.
type Experiment struct {
	ID  string
	Run func(ctx context.Context, cfg Config) (Renderable, error)
}

// Experiments returns the evaluation in run order. Every runner threads
// its context into the engine loops it drives (PODEM, fault simulation,
// the planners), so a cancelled context stops an experiment mid-table.
func Experiments() []Experiment {
	return []Experiment{
		{"E1", func(ctx context.Context, cfg Config) (Renderable, error) { return e1TestCounts(ctx, cfg) }},
		{"E2", func(ctx context.Context, cfg Config) (Renderable, error) { return e2Insertion(ctx, cfg) }},
		{"E3", func(ctx context.Context, cfg Config) (Renderable, error) { return e3Sweep(ctx, cfg) }},
		{"E4", func(ctx context.Context, cfg Config) (Renderable, error) { return e4Coverage(ctx, cfg) }},
		{"E5", func(ctx context.Context, cfg Config) (Renderable, error) { return e5Curve(ctx, cfg) }},
		{"E6", func(ctx context.Context, cfg Config) (Renderable, error) { return e6Scaling(ctx, cfg) }},
		{"E7", func(ctx context.Context, cfg Config) (Renderable, error) { return e7Reduction(ctx, cfg) }},
		{"E8", func(ctx context.Context, cfg Config) (Renderable, error) { return e8Ablations(ctx, cfg) }},
		{"E9", func(ctx context.Context, cfg Config) (Renderable, error) { return e9ScanTestTime(ctx, cfg) }},
	}
}
