package exp

import (
	"context"
	"fmt"

	"repro/internal/atpg"
	"repro/internal/fault"
	"repro/internal/fsim"
	"repro/internal/gen"
	"repro/internal/netlist"
	"repro/internal/pattern"
	"repro/internal/tpi"
)

// testableFaults removes PODEM-proven-redundant faults from the collapsed
// universe, the standard preprocessing step before coverage experiments
// (aborted faults are conservatively kept). Every fault of the universe
// is in range, so GenerateContext fails only once ctx is done.
func testableFaults(ctx context.Context, c *netlist.Circuit) ([]fault.Fault, error) {
	var out []fault.Fault
	for _, f := range fault.CollapsedUniverse(c) {
		res, err := atpg.GenerateContext(ctx, c, f, atpg.Options{BacktrackLimit: 5000})
		if err != nil {
			return nil, err
		}
		if res.Status != atpg.Redundant {
			out = append(out, f)
		}
	}
	return out, nil
}

// rpSuite returns the random-pattern-resistant circuits for E4/E5.
func rpSuite(cfg Config) []*netlist.Circuit {
	if cfg.Quick {
		return []*netlist.Circuit{
			gen.AndCone(16),
			gen.RPResistant(7, 2, 10, 40),
		}
	}
	return []*netlist.Circuit{
		gen.AndCone(20),
		gen.Comparator(16),
		gen.RPResistant(7, 3, 14, 120),
		gen.RPResistant(8, 4, 12, 200),
		gen.Decoder(6),
	}
}

// patternsFor returns the random test length used by E4/E5.
func patternsFor(cfg Config) int {
	if cfg.Quick {
		return 4096
	}
	return 32768
}

// coverageUnder fault-simulates the circuit with an LFSR and returns
// coverage over the given fault list (sites valid in modified circuits).
func coverageUnder(ctx context.Context, c *netlist.Circuit, faults []fault.Fault, patterns int, seed uint64) (float64, error) {
	res, err := fsim.RunContext(ctx, c, faults, pattern.NewLFSR(seed), fsim.Options{MaxPatterns: patterns, DropFaults: true})
	if err != nil {
		return 0, err
	}
	return res.Coverage(), nil
}

// e4Coverage regenerates Table 3: stuck-at coverage at the standard
// random test length before and after test point insertion, planner by
// planner. Real coverage is measured by the fault simulator, not the
// analytic model.
func e4Coverage(ctx context.Context, cfg Config) (*Table, error) {
	t := &Table{
		ID:      "E4",
		Title:   fmt.Sprintf("Fault coverage with %d random patterns, before/after TPI (Table 3)", patternsFor(cfg)),
		Columns: []string{"circuit", "gates", "faults", "FC base", "FC DP hybrid", "#CP/#OP", "FC greedy OP", "FC random OP"},
		Notes: []string{
			"DP hybrid = greedy control points + DP observation points (tpi.PlanHybrid)",
			"greedy/random OP = observation points only, same budget as the hybrid's OP stage",
		},
	}
	patterns := patternsFor(cfg)
	dth := 4.0 / float64(patterns)
	nCP, nOP := 4, 6
	for _, c := range rpSuite(cfg) {
		faults, err := testableFaults(ctx, c)
		if err != nil {
			return nil, err
		}
		base, err := coverageUnder(ctx, c, faults, patterns, 0xbadc0de)
		if err != nil {
			return nil, err
		}
		h, err := tpi.PlanHybridContext(ctx, c, faults, nCP, nOP, dth, tpi.CPOptions{}, tpi.OPOptions{})
		if err != nil {
			return nil, err
		}
		hybridFC, err := coverageUnder(ctx, h.Modified, faults, patterns, 0xbadc0de)
		if err != nil {
			return nil, err
		}
		gr, err := tpi.PlanObservationPointsGreedy(c, faults, nOP, dth, tpi.OPOptions{})
		if err != nil {
			return nil, err
		}
		grMod, err := c.InsertTestPoints(gr.TestPoints())
		if err != nil {
			return nil, err
		}
		grFC, err := coverageUnder(ctx, grMod, faults, patterns, 0xbadc0de)
		if err != nil {
			return nil, err
		}
		rnd, err := tpi.PlanObservationPointsRandom(c, faults, nOP, dth, 99, tpi.OPOptions{})
		if err != nil {
			return nil, err
		}
		rndMod, err := c.InsertTestPoints(rnd.TestPoints())
		if err != nil {
			return nil, err
		}
		rndFC, err := coverageUnder(ctx, rndMod, faults, patterns, 0xbadc0de)
		if err != nil {
			return nil, err
		}
		t.AddRow(c.Name(), c.NumGates(), len(faults), base, hybridFC,
			fmt.Sprintf("%d/%d", len(h.Control.Points), len(h.Observe.Points)), grFC, rndFC)
	}
	return t, nil
}

// e5Curve regenerates Figure 2: fault coverage versus applied patterns
// for a random-pattern-resistant circuit, original versus test-point-
// modified — the curve shape that motivates test point insertion.
func e5Curve(ctx context.Context, cfg Config) (*Series, error) {
	patterns := patternsFor(cfg)
	c := gen.RPResistant(7, 3, 14, 120)
	if cfg.Quick {
		c = gen.RPResistant(7, 2, 10, 40)
	}
	faults, err := testableFaults(ctx, c)
	if err != nil {
		return nil, err
	}
	dth := 4.0 / float64(patterns)
	h, err := tpi.PlanHybridContext(ctx, c, faults, 4, 6, dth, tpi.CPOptions{}, tpi.OPOptions{})
	if err != nil {
		return nil, err
	}
	step := patterns / 16
	curve := func(ckt *netlist.Circuit) ([]Point, error) {
		res, err := fsim.RunContext(ctx, ckt, faults, pattern.NewLFSR(0xbadc0de), fsim.Options{MaxPatterns: patterns, DropFaults: true})
		if err != nil {
			return nil, err
		}
		// Sample on the shared step grid; the simulator stops early once
		// every fault is detected, so pad the tail at the final coverage
		// to keep both curves on the same x samples.
		samples := res.Curve(step)
		var pts []Point
		si := 0
		for n := step; n <= patterns; n += step {
			for si < len(samples)-1 && samples[si].Patterns < n {
				si++
			}
			pts = append(pts, Point{X: float64(n), Y: samples[si].Coverage})
		}
		return pts, nil
	}
	orig, err := curve(c)
	if err != nil {
		return nil, err
	}
	mod, err := curve(h.Modified)
	if err != nil {
		return nil, err
	}
	return &Series{
		ID:     "E5",
		Title:  fmt.Sprintf("Coverage vs patterns on %s, with/without test points (Figure 2)", c.Name()),
		XLabel: "patterns",
		YLabel: "coverage",
		Lines: []Line{
			{Name: "with TPs", Points: mod},
			{Name: "original", Points: orig},
		},
	}, nil
}
