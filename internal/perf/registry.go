package perf

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"

	"repro/internal/atpg"
	"repro/internal/cli"
	"repro/internal/fault"
	"repro/internal/fsim"
	"repro/internal/implic"
	"repro/internal/netlist"
	"repro/internal/pattern"
	"repro/internal/serve"
	"repro/internal/tpi"
)

// workload bundles the per-mode sizing knobs the canonical suite is
// built from: one reconvergent DAG drives every engine so the numbers
// are comparable across groups.
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

// sizing returns the workload for the mode: the full mode matches the
// 600-gate DAG the serving benchmarks in EXPERIMENTS.md already use, and
// the cuts shape of servebench's plan-miss workload (a 2000-leaf tree at
// k=4); short mode halves the circuit, trims the pattern budget and
// plans cuts on a 500-leaf tree at k=8, so the CI smoke run finishes in
// seconds.
func sizing(short bool) workload {
	if short {
		return workload{spec: "dag:gates=300,seed=7", patterns: 1024, budget: 4, dth: 1e-3,
			cutSpec: "tree:leaves=500,seed=5", cutBudget: 8}
	}
	return workload{spec: "dag:gates=600,seed=7", patterns: 8192, budget: 8, dth: 1e-3,
		cutSpec: "tree:leaves=2000,seed=1", cutBudget: 4}
}

// Suite returns the canonical benchmark registry in its fixed order:
// fsim serial and the parallel worker sweep, PODEM with and without
// learned implications, the P1 cut DP, the observation planners (DP and
// greedy) with and without the static pre-prune, the hybrid flow, and
// the serving stack's cache hit and miss paths. The order, names, and
// params are part of the report contract — CI baselines pair benchmarks
// by name.
func Suite(short bool) []Benchmark {
	w := sizing(short)
	var out []Benchmark
	out = append(out, fsimBenchmarks(w)...)
	out = append(out, atpgBenchmarks(w)...)
	out = append(out, tpiBenchmarks(w)...)
	out = append(out, serveBenchmarks(w)...)
	out = append(out, jobsBenchmarks(w)...)
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

// fsimBenchmarks covers the PPSFP simulator: one serial run and the
// RunParallel goroutine fan-out at 1/2/4/8 workers. Each parallel
// benchmark pins GOMAXPROCS to its worker count, so the sweep measures
// real hardware scaling where the cores exist and the fan-out overhead
// where they do not.
func fsimBenchmarks(w workload) []Benchmark {
	opts := fsim.Options{MaxPatterns: w.patterns, DropFaults: true}
	out := []Benchmark{{
		Name:  "fsim/serial",
		Group: GroupFsim,
		Info:  fmt.Sprintf("PPSFP, %s, %d LFSR patterns, fault dropping", w.spec, w.patterns),
		Params: map[string]string{
			"spec": w.spec, "patterns": strconv.Itoa(w.patterns), "workers": "0",
		},
		Setup: func() (func() error, func(), error) {
			c, faults, err := circuitAndFaults(w.spec)
			if err != nil {
				return nil, nil, err
			}
			return func() error {
				_, err := fsim.Run(c, faults, pattern.NewLFSR(1), opts)
				return err
			}, nil, nil
		},
	}}
	for _, workers := range []int{1, 2, 4, 8} {
		workers := workers
		out = append(out, Benchmark{
			Name:  fmt.Sprintf("fsim/parallel/w%d", workers),
			Group: GroupFsim,
			Info:  fmt.Sprintf("RunParallel, %s, %d patterns, %d workers", w.spec, w.patterns, workers),
			Params: map[string]string{
				"spec": w.spec, "patterns": strconv.Itoa(w.patterns), "workers": strconv.Itoa(workers),
			},
			GOMAXPROCS: workers,
			Setup: func() (func() error, func(), error) {
				c, faults, err := circuitAndFaults(w.spec)
				if err != nil {
					return nil, nil, err
				}
				src := func() pattern.Source { return pattern.NewLFSR(1) }
				return func() error {
					_, err := fsim.RunParallel(c, faults, src, workers, opts)
					return err
				}, nil, nil
			},
		})
	}
	return out
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
			Setup: func() (func() error, func(), error) {
				c, faults, err := circuitAndFaults(w.spec)
				if err != nil {
					return nil, nil, err
				}
				var opts atpg.Options
				if learn {
					opts.Learn = implic.New(c, implic.Options{})
				}
				return func() error {
					_, err := atpg.GenerateTests(c, faults, opts)
					return err
				}, nil, nil
			},
		}
	}
	return []Benchmark{bench(false), bench(true)}
}

// tpiBenchmarks covers the planners: the P1 cut DP, the observation DP
// and the greedy baseline each with and without the static pre-prune
// (tpi.PruneFaults, the PruneStatic path), plus the full hybrid flow,
// whose internal pre-prune is part of the measured pipeline.
func tpiBenchmarks(w workload) []Benchmark {
	cuts := Benchmark{
		Name:  "tpi/cuts-dp",
		Group: GroupTPI,
		Info:  fmt.Sprintf("P1 exact cut DP, %s, k=%d", w.cutSpec, w.cutBudget),
		Params: map[string]string{
			"spec": w.cutSpec, "k": strconv.Itoa(w.cutBudget), "planner": "cuts-dp",
		},
		Setup: func() (func() error, func(), error) {
			c, err := cli.Generate(w.cutSpec)
			if err != nil {
				return nil, nil, err
			}
			return func() error {
				_, err := tpi.PlanCutsDP(c, w.cutBudget)
				return err
			}, nil, nil
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
				Setup: func() (func() error, func(), error) {
					c, faults, err := circuitAndFaults(w.spec)
					if err != nil {
						return nil, nil, err
					}
					return func() error {
						target := faults
						if prune {
							target, _ = tpi.PruneFaults(c, faults)
						}
						return plan(c, target)
					}, nil, nil
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
		Setup: func() (func() error, func(), error) {
			c, faults, err := circuitAndFaults(w.spec)
			if err != nil {
				return nil, nil, err
			}
			return func() error {
				_, err := tpi.PlanHybrid(c, faults, w.budget/2, w.budget, w.dth, tpi.CPOptions{}, tpi.OPOptions{})
				return err
			}, nil, nil
		},
	}
	return []Benchmark{cuts, dp(false), dp(true), greedy(false), greedy(true), hybrid}
}

// serveBenchmarks covers the HTTP serving stack end to end (httptest
// listener, JSON decode, canonicalization, cache, worker pool, engine,
// JSON encode): a warmed cache hit replayed byte-identically, and a
// cache miss that runs the observation planner on a fresh generator
// seed every iteration.
func serveBenchmarks(w workload) []Benchmark {
	post := func(url, body string) error {
		resp, err := http.Post(url, "application/json", strings.NewReader(body))
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if _, err := io.Copy(io.Discard, resp.Body); err != nil {
			return err
		}
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("serve: status %d", resp.StatusCode)
		}
		return nil
	}
	hit := Benchmark{
		Name:   "serve/plan/cache=hit",
		Group:  GroupServe,
		Info:   fmt.Sprintf("POST /v1/plan, %s, hybrid planner, warmed result cache", w.spec),
		Params: map[string]string{"spec": w.spec, "planner": "hybrid", "cache": "hit"},
		Setup: func() (func() error, func(), error) {
			s, err := serve.New(serve.Config{})
			if err != nil {
				return nil, nil, err
			}
			ts := httptest.NewServer(s.Handler())
			body := fmt.Sprintf(`{"generate":%q,"options":{"planner":"hybrid"}}`, w.spec)
			if err := post(ts.URL+"/v1/plan", body); err != nil {
				ts.Close()
				s.Close()
				return nil, nil, err
			}
			return func() error {
					return post(ts.URL+"/v1/plan", body)
				}, func() {
					ts.Close()
					s.Close()
				}, nil
		},
	}
	miss := Benchmark{
		Name:   "serve/plan/cache=miss",
		Group:  GroupServe,
		Info:   fmt.Sprintf("POST /v1/plan, %d-gate DAG with a fresh seed per request, observe planner", sizeOfSpec(w.spec)),
		Params: map[string]string{"spec": w.spec, "planner": "observe", "cache": "miss"},
		Setup: func() (func() error, func(), error) {
			gates := sizeOfSpec(w.spec)
			s, err := serve.New(serve.Config{})
			if err != nil {
				return nil, nil, err
			}
			ts := httptest.NewServer(s.Handler())
			seed := 0
			return func() error {
					seed++
					body := fmt.Sprintf(`{"generate":"dag:gates=%d,seed=%d","options":{"planner":"observe"}}`, gates, seed)
					return post(ts.URL+"/v1/plan", body)
				}, func() {
					ts.Close()
					s.Close()
				}, nil
		},
	}
	return []Benchmark{hit, miss}
}

// jobsBenchmarks covers the async job path end to end: POST with
// mode=async (202 + job id), the scheduler and journal, and the events
// stream that blocks until the terminal snapshot — no poll loop, so
// the measured time is the subsystem's, not a sleep interval's. Both
// run with a persistent job dir, putting the journal fsyncs inside the
// measured region, the way a durable deployment pays them. The hit
// variant replays one warmed body, isolating job-machinery overhead
// from engine work; the miss variant uses a fresh generator seed per
// iteration so every job runs the planner.
func jobsBenchmarks(w workload) []Benchmark {
	submit := func(url, body string) (string, error) {
		resp, err := http.Post(url, "application/json", strings.NewReader(body))
		if err != nil {
			return "", err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			_, _ = io.Copy(io.Discard, resp.Body)
			return "", fmt.Errorf("serve: async submit status %d", resp.StatusCode)
		}
		var sub struct {
			Job struct {
				ID string `json:"id"`
			} `json:"job"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
			return "", err
		}
		return sub.Job.ID, nil
	}
	await := func(url, id string) error {
		resp, err := http.Get(url + "/v1/jobs/" + id + "/events")
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		var last struct {
			State string `json:"state"`
		}
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			if err := json.Unmarshal(sc.Bytes(), &last); err != nil {
				return err
			}
		}
		if err := sc.Err(); err != nil {
			return err
		}
		if last.State != "done" {
			return fmt.Errorf("serve: job %s ended %q, want done", id, last.State)
		}
		return nil
	}
	setup := func(warm bool, bodyFor func(i int) string) func() (func() error, func(), error) {
		return func() (func() error, func(), error) {
			dir, err := os.MkdirTemp("", "perf-jobs-")
			if err != nil {
				return nil, nil, err
			}
			s, err := serve.New(serve.Config{JobDir: dir})
			if err != nil {
				_ = os.RemoveAll(dir)
				return nil, nil, err
			}
			ts := httptest.NewServer(s.Handler())
			cleanup := func() {
				ts.Close()
				s.Close()
				_ = os.RemoveAll(dir)
			}
			iter := 0
			op := func() error {
				iter++
				id, err := submit(ts.URL+"/v1/plan", bodyFor(iter))
				if err != nil {
					return err
				}
				return await(ts.URL, id)
			}
			if warm {
				// Populate the result cache so every measured iteration
				// is pure job machinery on a warmed entry.
				if err := op(); err != nil {
					cleanup()
					return nil, nil, err
				}
			}
			return op, cleanup, nil
		}
	}
	gates := sizeOfSpec(w.spec)
	hit := Benchmark{
		Name:   "serve/jobs/cache=hit",
		Group:  GroupServe,
		Info:   fmt.Sprintf("async POST /v1/plan + events stream to done, %s, warmed result cache, persistent job dir", w.spec),
		Params: map[string]string{"spec": w.spec, "planner": "hybrid", "cache": "hit", "mode": "async"},
		Setup: setup(true, func(int) string {
			return fmt.Sprintf(`{"generate":%q,"options":{"planner":"hybrid"},"mode":"async"}`, w.spec)
		}),
	}
	miss := Benchmark{
		Name:   "serve/jobs/cache=miss",
		Group:  GroupServe,
		Info:   fmt.Sprintf("async POST /v1/plan + events stream to done, %d-gate DAG with a fresh seed per job, persistent job dir", gates),
		Params: map[string]string{"spec": w.spec, "planner": "observe", "cache": "miss", "mode": "async"},
		Setup: setup(false, func(i int) string {
			return fmt.Sprintf(`{"generate":"dag:gates=%d,seed=%d","options":{"planner":"observe"},"mode":"async"}`, gates, i)
		}),
	}
	return []Benchmark{hit, miss}
}

// sizeOfSpec extracts the gates= value from a dag generator spec (the
// only spec kind the canonical suite uses), defaulting to 300.
func sizeOfSpec(spec string) int {
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimPrefix(part, "dag:")
		if v, ok := strings.CutPrefix(part, "gates="); ok {
			if n, err := strconv.Atoi(v); err == nil {
				return n
			}
		}
	}
	return 300
}
