package exp

import (
	"context"
	"fmt"

	"repro/internal/fsim"
	"repro/internal/gen"
	"repro/internal/pattern"
	"repro/internal/scan"
	"repro/internal/tpi"
)

// patternsToTarget returns the smallest multiple of 64 patterns at which
// coverage over `total` faults reaches the target, or -1.
func patternsToTarget(res *fsim.Result, total int, target float64) int {
	for n := 64; n <= res.Patterns; n += 64 {
		det := 0
		for _, idx := range res.FirstDetect {
			if idx < n {
				det++
			}
		}
		if float64(det)/float64(total) >= target {
			return n
		}
	}
	return -1
}

// e9ScanTestTime regenerates the extension table: what test point
// insertion buys in tester time under the full-scan cost model — patterns
// needed to reach a coverage target, multiplied into scan cycles by the
// chain shift cost. This is the economic argument the 1987 paper's
// budget-constrained formulation serves.
func e9ScanTestTime(ctx context.Context, cfg Config) (*Table, error) {
	t := &Table{
		ID:      "E9",
		Title:   "Scan test time to reach a coverage target, before/after TPI (extension)",
		Columns: []string{"circuit", "FFs/chains", "target", "patterns before", "patterns after", "cycles before", "cycles after", "speedup"},
		Notes: []string{
			"scan cost model: cycles(n) = n*(chainLength+1) + chainLength",
			"planner threshold DTh = 64/budget: targets must be reachable early in the session, not merely within it",
			"'-' means the target was not reached within the pattern budget",
		},
	}
	budget := patternsFor(cfg)
	targets := []float64{0.95, 0.99}
	type workload struct {
		seed               int64
		cones, width, glue int
		pseudoPins, chains int
	}
	loads := []workload{
		{seed: 7, cones: 2, width: 12, glue: 60, pseudoPins: 4, chains: 1},
		{seed: 9, cones: 3, width: 12, glue: 120, pseudoPins: 6, chains: 2},
	}
	if cfg.Quick {
		loads = loads[:1]
	}
	for _, w := range loads {
		core := gen.RPResistant(w.seed, w.cones, w.width, w.glue)
		design, err := scan.WrapCombinational(core, w.pseudoPins, w.pseudoPins, w.chains)
		if err != nil {
			return nil, err
		}
		faults, err := testableFaults(ctx, core)
		if err != nil {
			return nil, err
		}
		before, err := fsim.RunContext(ctx, core, faults, pattern.NewLFSR(0xfab), fsim.Options{MaxPatterns: budget, DropFaults: true})
		if err != nil {
			return nil, err
		}
		plan, err := tpi.PlanHybridContext(ctx, core, faults, 3, 4, 64.0/float64(budget), tpi.CPOptions{}, tpi.OPOptions{})
		if err != nil {
			return nil, err
		}
		after, err := fsim.RunContext(ctx, plan.Modified, faults, pattern.NewLFSR(0xfab), fsim.Options{MaxPatterns: budget, DropFaults: true})
		if err != nil {
			return nil, err
		}
		cell := func(n int) string {
			if n < 0 {
				return "-"
			}
			return fmt.Sprint(n)
		}
		cycles := func(n int) string {
			if n < 0 {
				return "-"
			}
			return fmt.Sprint(design.TestCycles(n))
		}
		for _, target := range targets {
			nBefore := patternsToTarget(before, len(faults), target)
			nAfter := patternsToTarget(after, len(faults), target)
			speedup := "-"
			if nBefore > 0 && nAfter > 0 {
				speedup = fmt.Sprintf("%.1fx", float64(design.TestCycles(nBefore))/float64(design.TestCycles(nAfter)))
			} else if nBefore < 0 && nAfter > 0 {
				speedup = "inf (target unreachable before)"
			}
			t.AddRow(core.Name(), fmt.Sprintf("%d/%d", design.NumFFs(), w.chains),
				fmt.Sprintf("%.0f%%", 100*target),
				cell(nBefore), cell(nAfter), cycles(nBefore), cycles(nAfter), speedup)
		}
	}
	return t, nil
}
