// Command bench runs the canonical performance suite (internal/perf)
// over the engines — fault simulation serial, parallel and on the
// deductive and critical-path-tracing oracles, PODEM with and without
// learned implications, the test point planners with and without the
// static pre-prune, and the E1-E9 experiment kernels — and emits a
// machine-readable JSON report (BENCH_*.json) plus a human-readable
// table. End-to-end serving is measured by servebench.
//
// The report follows the canonical schema (perf.Schema); -check
// validates an existing report without running anything, and -baseline
// compares a run (or a checked report) against a committed baseline
// with a generous tolerance gate so only order-of-magnitude
// regressions fail. -cpuprofile and -memprofile capture engine
// profiles of the measured run for pprof.
//
// Exit codes follow the internal/cli contract: 0 clean, 1 when the
// tolerance gate fails (or the run itself errors), 2 on bad flags or
// an output-file write failure.
//
// Examples:
//
//	bench -short -iterations 3 -o bench-smoke.json
//	bench -only exp/ -markdown
//	bench -check bench-smoke.json -baseline testdata/bench/baseline.json
//	bench -cpuprofile cpu.out -only atpg
package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"repro/internal/cli"
	"repro/internal/exp"
	"repro/internal/perf"
)

func main() {
	cfg := config{}
	flag.StringVar(&cfg.out, "o", "", "write the JSON report to this file")
	flag.BoolVar(&cfg.jsonOut, "json", false, "write the JSON report to stdout instead of the table")
	flag.IntVar(&cfg.iterations, "iterations", 0, "fixed measured iterations per benchmark (0 = calibrate against -mintime)")
	flag.IntVar(&cfg.warmup, "warmup", 1, "warmup iterations per benchmark")
	flag.DurationVar(&cfg.minTime, "mintime", time.Second, "calibration target per benchmark when -iterations is 0")
	flag.BoolVar(&cfg.short, "short", false, "scaled-down workloads (the CI smoke configuration)")
	flag.StringVar(&cfg.only, "only", "", "run only benchmarks whose name contains this substring")
	flag.BoolVar(&cfg.list, "list", false, "list registered benchmarks and exit")
	flag.BoolVar(&cfg.markdown, "markdown", false, "render the result table as markdown")
	flag.StringVar(&cfg.baseline, "baseline", "", "compare against this baseline report; violations exit 1")
	flag.Float64Var(&cfg.tolerance, "tolerance", 10, "ns/op regression factor the baseline gate tolerates")
	flag.StringVar(&cfg.check, "check", "", "validate this existing report (and compare via -baseline) instead of running")
	flag.StringVar(&cfg.cpuprofile, "cpuprofile", "", "write a CPU profile of the measured run to this file")
	flag.StringVar(&cfg.memprofile, "memprofile", "", "write a heap profile at exit to this file")
	flag.Parse()

	failed, err := run(os.Stdout, os.Stderr, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(cli.ExitCode(err))
	}
	if failed {
		os.Exit(cli.ExitFailure)
	}
}

// config gathers one invocation's settings.
type config struct {
	out        string
	jsonOut    bool
	iterations int
	warmup     int
	minTime    time.Duration
	short      bool
	only       string
	list       bool
	markdown   bool
	baseline   string
	tolerance  float64
	check      string
	cpuprofile string
	memprofile string
}

// validate rejects configurations the runner cannot honor; the errors
// carry the usage exit code (2) through cli.ExitCode.
func (c config) validate() error {
	switch {
	case c.iterations < 0:
		return cli.Usage(fmt.Errorf("-iterations must be >= 0 (got %d)", c.iterations))
	case c.warmup < 0:
		return cli.Usage(fmt.Errorf("-warmup must be >= 0 (got %d)", c.warmup))
	case c.minTime <= 0:
		return cli.Usage(fmt.Errorf("-mintime must be positive (got %v)", c.minTime))
	case c.tolerance <= 1:
		return cli.Usage(fmt.Errorf("-tolerance must be > 1 (got %v)", c.tolerance))
	case c.check != "" && (c.list || c.cpuprofile != "" || c.memprofile != ""):
		return cli.Usage(errors.New("-check validates an existing report; it cannot be combined with -list or profiling"))
	}
	return nil
}

// run executes one invocation and reports whether the tolerance gate
// failed. Usage problems and I/O failures return as errors.
func run(stdout, stderr io.Writer, cfg config) (failed bool, err error) {
	if err := cfg.validate(); err != nil {
		return false, err
	}
	if cfg.list {
		for _, b := range perf.Suite(cfg.short) {
			if cfg.only != "" && !strings.Contains(b.Name, cfg.only) {
				continue
			}
			fmt.Fprintf(stdout, "%-30s %-6s %s\n", b.Name, b.Group, b.Info)
		}
		return false, nil
	}
	if cfg.check != "" {
		return checkReport(stdout, cfg)
	}

	if cfg.memprofile != "" {
		defer func() {
			if err == nil {
				err = writeHeapProfile(cfg.memprofile)
			}
		}()
	}
	if cfg.cpuprofile != "" {
		var prof bytes.Buffer
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return false, err
		}
		defer func() {
			pprof.StopCPUProfile()
			if err == nil {
				err = writeProfile(cfg.cpuprofile, prof.Bytes())
			}
		}()
	}

	rep, err := perf.Run(perf.Suite(cfg.short), perf.Config{
		Iterations: cfg.iterations,
		Warmup:     cfg.warmup,
		MinTime:    cfg.minTime,
		Short:      cfg.short,
		Filter:     cfg.only,
		Progress:   stderr,
	})
	if err != nil {
		return false, err
	}
	if err := perf.Validate(rep); err != nil && cfg.only == "" {
		// A filtered run legitimately misses groups; a full run that
		// fails its own schema is a harness bug.
		return false, err
	}

	if cfg.out != "" {
		if err := cli.WriteFile(cfg.out, rep.Encode); err != nil {
			return false, err
		}
		fmt.Fprintf(stderr, "bench: wrote %s (%d benchmarks)\n", cfg.out, len(rep.Benchmarks))
	}
	if cfg.jsonOut {
		if err := rep.Encode(stdout); err != nil {
			return false, err
		}
	} else if err := reportTable(rep).render(cfg.markdown, stdout); err != nil {
		return false, err
	}
	if cfg.baseline != "" {
		return compareBaseline(stdout, cfg, rep)
	}
	return false, nil
}

// checkReport validates an existing report file, re-renders its table
// (so committed reports can be turned back into docs), and, when
// -baseline is given, runs the tolerance gate against it.
func checkReport(stdout io.Writer, cfg config) (bool, error) {
	rep, err := readReport(cfg.check)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(stdout, "%s: valid %s report, %d benchmarks\n", cfg.check, rep.Schema, len(rep.Benchmarks))
	if cfg.jsonOut {
		if err := rep.Encode(stdout); err != nil {
			return false, err
		}
	} else if err := reportTable(rep).render(cfg.markdown, stdout); err != nil {
		return false, err
	}
	if cfg.baseline != "" {
		return compareBaseline(stdout, cfg, rep)
	}
	return false, nil
}

// compareBaseline applies the tolerance gate and prints violations.
func compareBaseline(stdout io.Writer, cfg config, rep *perf.Report) (bool, error) {
	base, err := readReport(cfg.baseline)
	if err != nil {
		return false, err
	}
	violations := perf.Compare(base, rep, cfg.tolerance)
	for _, v := range violations {
		fmt.Fprintf(stdout, "violation: %s\n", v)
	}
	if len(violations) > 0 {
		fmt.Fprintf(stdout, "%d violation(s) against %s at %.1fx tolerance\n",
			len(violations), cfg.baseline, cfg.tolerance)
		return true, nil
	}
	fmt.Fprintf(stdout, "within %.1fx tolerance of %s\n", cfg.tolerance, cfg.baseline)
	return false, nil
}

// readReport loads and schema-validates a report file.
func readReport(path string) (*perf.Report, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	rep, err := perf.Decode(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return rep, nil
}

// benchTable adapts an exp.Table so both renderings share one builder.
type benchTable struct{ t *exp.Table }

// reportTable lays the report out as the human-readable summary: one
// row per benchmark with its knobs and the measured rates.
func reportTable(rep *perf.Report) benchTable {
	t := &exp.Table{
		ID:    "BENCH",
		Title: fmt.Sprintf("canonical performance suite (%s, GOMAXPROCS base %d)", rep.Meta.GoVersion, rep.Meta.GOMAXPROCS),
		Columns: []string{
			"benchmark", "group", "params", "iters", "ms/op", "allocs/op", "MB/op",
		},
	}
	for _, b := range rep.Benchmarks {
		t.AddRow(b.Name, b.Group, paramString(b.Params), b.Iterations,
			fmt.Sprintf("%.3f", b.NsPerOp/1e6),
			fmt.Sprintf("%.0f", b.AllocsPerOp),
			fmt.Sprintf("%.2f", b.BytesPerOp/(1<<20)))
	}
	mode := "full"
	if rep.Meta.Short {
		mode = "short"
	}
	t.Notes = append(t.Notes, fmt.Sprintf("%s workloads on %s/%s, %d CPU(s); parallel benchmarks pin GOMAXPROCS to their worker count",
		mode, rep.Meta.GOOS, rep.Meta.GOARCH, rep.Meta.NumCPU))
	return benchTable{t}
}

// render writes the table in the requested format.
func (bt benchTable) render(markdown bool, w io.Writer) error {
	if markdown {
		return bt.t.Markdown(w)
	}
	return bt.t.Write(w)
}

// paramString renders a params map deterministically as k=v pairs in
// key order.
func paramString(params map[string]string) string {
	keys := make([]string, 0, len(params))
	for k := range params {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = k + "=" + params[k]
	}
	return strings.Join(parts, " ")
}

// writeHeapProfile forces a GC for up-to-date accounting and writes
// the heap profile.
func writeHeapProfile(path string) error {
	runtime.GC()
	var prof bytes.Buffer
	if err := pprof.WriteHeapProfile(&prof); err != nil {
		return err
	}
	return writeProfile(path, prof.Bytes())
}

// writeProfile writes a profile staged in memory to path: runtime/pprof
// drops the errors of the writer it is given.
func writeProfile(path string, prof []byte) error {
	return cli.WriteFile(path, func(w io.Writer) error {
		_, err := w.Write(prof)
		return err
	})
}
