package perf

import (
	"context"
	"fmt"
	"strconv"

	"repro/internal/atpg"
	"repro/internal/cli"
	"repro/internal/cpt"
	"repro/internal/dsim"
	"repro/internal/exp"
	"repro/internal/fault"
	"repro/internal/fsim"
	"repro/internal/implic"
	"repro/internal/netlist"
	"repro/internal/pattern"
	"repro/internal/tpi"
)

// workload bundles the per-mode sizing knobs the engine rows are built
// from: one reconvergent DAG drives every fault simulator, PODEM and the
// DAG planners, so the numbers are comparable across engines. The exp
// rows ignore it and run at the quick scale in both modes.
type workload struct {
	spec     string // generator spec of the shared circuit
	patterns int    // fault-simulation pattern budget
	budget   int    // test point budget (k) for the planners
	dth      float64
	// The P1 cut DP needs a fanout-free circuit, so it runs on its own
	// tree at its own budget.
	cutSpec   string
	cutBudget int
}

// sizing returns the workload for the mode: the full mode runs a
// 600-gate DAG and the cuts shape of servebench's plan-miss workload (a
// 2000-leaf tree at k=4); short mode halves the circuit, trims the
// pattern budget and plans cuts on a 500-leaf tree at k=8, so the CI
// smoke run finishes in seconds.
func sizing(short bool) workload {
	if short {
		return workload{spec: "dag:gates=300,seed=7", patterns: 1024, budget: 4, dth: 1e-3,
			cutSpec: "tree:leaves=500,seed=5", cutBudget: 8}
	}
	return workload{spec: "dag:gates=600,seed=7", patterns: 8192, budget: 8, dth: 1e-3,
		cutSpec: "tree:leaves=2000,seed=1", cutBudget: 4}
}

// Suite returns the canonical benchmark registry in its fixed order:
// fsim serial, the parallel worker sweep and the deductive and
// critical-path-tracing oracles, PODEM with and without learned
// implications, the P1 cut DP, the observation planners (DP and greedy)
// with and without the static pre-prune, the hybrid flow, and the E1-E9
// experiment kernels. The order, names, and params are part of the
// report contract — CI baselines pair benchmarks by name.
func Suite(short bool) []Benchmark {
	w := sizing(short)
	var out []Benchmark
	out = append(out, fsimBenchmarks(w)...)
	out = append(out, atpgBenchmarks(w)...)
	out = append(out, tpiBenchmarks(w)...)
	out = append(out, expBenchmarks()...)
	return out
}

// circuitAndFaults builds the shared workload circuit and its
// collapsed fault universe.
func circuitAndFaults(spec string) (*netlist.Circuit, []fault.Fault, error) {
	c, err := cli.Generate(spec)
	if err != nil {
		return nil, nil, err
	}
	return c, fault.CollapsedUniverse(c), nil
}

// fsimBenchmarks covers fault simulation: PPSFP serial, the
// RunParallel goroutine fan-out at 1/2/4/8 workers, and the deductive
// and critical-path-tracing oracles. Every row grades the same circuit,
// collapsed fault list and LFSR pattern budget, so the engines' times
// compare directly. Each parallel benchmark pins GOMAXPROCS to its
// worker count, so the sweep measures real hardware scaling where the
// cores exist and the fan-out overhead where they do not.
func fsimBenchmarks(w workload) []Benchmark {
	serial := func(name, engine string, run func(*netlist.Circuit, []fault.Fault, pattern.Source) error) Benchmark {
		return Benchmark{
			Name:  "fsim/" + name,
			Group: GroupFsim,
			Info:  fmt.Sprintf("%s, %s, %d LFSR patterns, fault dropping", engine, w.spec, w.patterns),
			Params: map[string]string{
				"spec": w.spec, "patterns": strconv.Itoa(w.patterns), "workers": "0",
			},
			Setup: func() (func() error, error) {
				c, faults, err := circuitAndFaults(w.spec)
				if err != nil {
					return nil, err
				}
				return func() error { return run(c, faults, pattern.NewLFSR(1)) }, nil
			},
		}
	}
	opts := fsim.Options{MaxPatterns: w.patterns, DropFaults: true}
	out := []Benchmark{serial("serial", "PPSFP", func(c *netlist.Circuit, fs []fault.Fault, src pattern.Source) error {
		_, err := fsim.Run(c, fs, src, opts)
		return err
	})}
	for _, workers := range []int{1, 2, 4, 8} {
		out = append(out, Benchmark{
			Name:  fmt.Sprintf("fsim/parallel/w%d", workers),
			Group: GroupFsim,
			Info:  fmt.Sprintf("RunParallel, %s, %d patterns, %d workers", w.spec, w.patterns, workers),
			Params: map[string]string{
				"spec": w.spec, "patterns": strconv.Itoa(w.patterns), "workers": strconv.Itoa(workers),
			},
			GOMAXPROCS: workers,
			Setup: func() (func() error, error) {
				c, faults, err := circuitAndFaults(w.spec)
				if err != nil {
					return nil, err
				}
				src := func() pattern.Source { return pattern.NewLFSR(1) }
				return func() error {
					_, err := fsim.RunParallel(c, faults, src, workers, opts)
					return err
				}, nil
			},
		})
	}
	return append(out,
		serial("deductive", "deductive", func(c *netlist.Circuit, fs []fault.Fault, src pattern.Source) error {
			_, err := dsim.Run(c, fs, src, dsim.Options{MaxPatterns: w.patterns, DropFaults: true})
			return err
		}),
		serial("cpt", "critical path tracing", func(c *netlist.Circuit, fs []fault.Fault, src pattern.Source) error {
			_, err := cpt.Run(c, fs, src, cpt.Options{MaxPatterns: w.patterns, DropFaults: true})
			return err
		}))
}

// atpgBenchmarks covers PODEM over the collapsed universe, with and
// without the learned-implication pruning (atpg.Options.Learn). The
// implication engine is built in Setup — learning cost is a one-time
// preprocessing step, not per-fault work.
func atpgBenchmarks(w workload) []Benchmark {
	bench := func(learn bool) Benchmark {
		mode := "off"
		if learn {
			mode = "on"
		}
		return Benchmark{
			Name:   "atpg/podem/learn=" + mode,
			Group:  GroupATPG,
			Info:   fmt.Sprintf("PODEM, %s, collapsed universe, learned implications %s", w.spec, mode),
			Params: map[string]string{"spec": w.spec, "learn": mode},
			Setup: func() (func() error, error) {
				c, faults, err := circuitAndFaults(w.spec)
				if err != nil {
					return nil, err
				}
				var opts atpg.Options
				if learn {
					opts.Learn = implic.New(c, implic.Options{})
				}
				return func() error {
					_, err := atpg.GenerateTests(c, faults, opts)
					return err
				}, nil
			},
		}
	}
	return []Benchmark{bench(false), bench(true)}
}

// tpiBenchmarks covers the planners: the P1 cut DP, the observation DP
// and the greedy baseline each with and without the static pre-prune
// (tpi.PruneFaults), plus the full hybrid flow, whose internal
// pre-prune is part of the measured pipeline.
func tpiBenchmarks(w workload) []Benchmark {
	cuts := Benchmark{
		Name:  "tpi/cuts-dp",
		Group: GroupTPI,
		Info:  fmt.Sprintf("P1 exact cut DP, %s, k=%d", w.cutSpec, w.cutBudget),
		Params: map[string]string{
			"spec": w.cutSpec, "k": strconv.Itoa(w.cutBudget), "planner": "cuts-dp",
		},
		Setup: func() (func() error, error) {
			c, err := cli.Generate(w.cutSpec)
			if err != nil {
				return nil, err
			}
			return func() error {
				_, err := tpi.PlanCutsDP(c, w.cutBudget)
				return err
			}, nil
		},
	}
	planner := func(name string, plan func(*netlist.Circuit, []fault.Fault) error) func(prune bool) Benchmark {
		return func(prune bool) Benchmark {
			mode := "off"
			if prune {
				mode = "on"
			}
			return Benchmark{
				Name:  fmt.Sprintf("tpi/%s/prune=%s", name, mode),
				Group: GroupTPI,
				Info: fmt.Sprintf("%s planner, %s, k=%d, static pre-prune %s",
					name, w.spec, w.budget, mode),
				Params: map[string]string{
					"spec": w.spec, "k": strconv.Itoa(w.budget), "planner": name, "prune": mode,
				},
				Setup: func() (func() error, error) {
					c, faults, err := circuitAndFaults(w.spec)
					if err != nil {
						return nil, err
					}
					return func() error {
						target := faults
						if prune {
							target, _ = tpi.PruneFaults(c, faults)
						}
						return plan(c, target)
					}, nil
				},
			}
		}
	}
	dp := planner("observe-dp", func(c *netlist.Circuit, fs []fault.Fault) error {
		_, err := tpi.PlanObservationPointsDP(c, fs, w.budget, w.dth, tpi.OPOptions{})
		return err
	})
	greedy := planner("observe-greedy", func(c *netlist.Circuit, fs []fault.Fault) error {
		_, err := tpi.PlanObservationPointsGreedy(c, fs, w.budget, w.dth, tpi.OPOptions{})
		return err
	})
	hybrid := Benchmark{
		Name:  "tpi/hybrid",
		Group: GroupTPI,
		Info: fmt.Sprintf("hybrid control+observe flow, %s, %d+%d points (pre-prune built in)",
			w.spec, w.budget/2, w.budget),
		Params: map[string]string{
			"spec": w.spec, "cp": strconv.Itoa(w.budget / 2), "op": strconv.Itoa(w.budget),
			"planner": "hybrid",
		},
		Setup: func() (func() error, error) {
			c, faults, err := circuitAndFaults(w.spec)
			if err != nil {
				return nil, err
			}
			return func() error {
				_, err := tpi.PlanHybrid(c, faults, w.budget/2, w.budget, w.dth, tpi.CPOptions{}, tpi.OPOptions{})
				return err
			}, nil
		},
	}
	return []Benchmark{cuts, dp(false), dp(true), greedy(false), greedy(true), hybrid}
}

// expBenchmarks times each experiment of exp.Experiments end to end,
// at the quick scale in both modes: the full-scale tables take minutes
// and are cmd/experiments' job.
func expBenchmarks() []Benchmark {
	var out []Benchmark
	for _, e := range exp.Experiments() {
		out = append(out, Benchmark{
			Name:   "exp/" + e.ID,
			Group:  GroupExp,
			Info:   fmt.Sprintf("regenerates %s at the quick scale (cmd/experiments -quick -only %s)", e.ID, e.ID),
			Params: map[string]string{"experiment": e.ID, "scale": "quick"},
			Setup: func() (func() error, error) {
				return func() error {
					_, err := e.Run(context.Background(), exp.Config{Quick: true})
					return err
				}, nil
			},
		})
	}
	return out
}
