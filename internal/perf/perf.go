// Package perf is the only benchmark harness for the engine kernels: a
// registry of canonical workloads (fault simulation serial, parallel
// and on the deductive and critical-path-tracing oracles, PODEM with
// and without learned implications, the test-point planners with and
// without the static pre-prune, and the E1-E9 experiment kernels), a
// calibrated runner (warmup, fixed-work iterations, wall-clock and
// allocation accounting, per-benchmark GOMAXPROCS), and a canonical
// JSON report schema with a tolerance-gate comparator for CI
// regression checks. End-to-end serving is timed by servebench, not
// here.
//
// The package is stdlib-only, like every engine it measures. Reports
// are written by cmd/bench as BENCH_*.json; the committed baseline
// lives in testdata/bench/ and the CI bench-smoke job fails only on
// order-of-magnitude regressions (see Compare).
//
// Wall-clock reads (time.Now/Since) are the measurement itself here,
// not state an engine result depends on.
package perf

// Group names for the canonical suite. Validate requires a report to
// span the three engine groups: a report that silently lost one is a
// harness bug, not a slow machine.
const (
	// GroupFsim covers the fault simulators.
	GroupFsim = "fsim"
	// GroupATPG covers PODEM deterministic test generation.
	GroupATPG = "atpg"
	// GroupTPI covers the test point insertion planners.
	GroupTPI = "tpi"
	// GroupExp covers the E1-E9 experiment kernels.
	GroupExp = "exp"
	// GroupServe covered the HTTP serving stack. No registered
	// benchmark carries it any more (servebench times serving), but
	// committed reports such as BENCH_6.json do, so it stays known.
	GroupServe = "serve"
)

// Benchmark is one registered workload: a named, parameterized unit of
// engine work. Setup builds the workload (circuits, fault lists)
// outside the measured region and returns the operation to time; the
// runner calls the returned op once per iteration.
type Benchmark struct {
	// Name is the canonical slash-separated identifier, unique within
	// the suite (e.g. "fsim/parallel/w4").
	Name string
	// Group is the engine family (one of the Group* constants).
	Group string
	// Info is a one-line human description of the workload.
	Info string
	// Params records the workload knobs (workers, learn, prune, ...)
	// for machine consumption; it must be identical run to run.
	Params map[string]string
	// GOMAXPROCS, when positive, is set for the duration of the
	// benchmark and restored afterwards — the parallel-engine sweep.
	GOMAXPROCS int
	// Setup builds the workload and returns the operation to measure.
	Setup func() (op func() error, err error)
}
