package perf

import (
	"fmt"
	"io"
	"runtime"
	"strings"
	"time"
)

// Config controls one suite run.
type Config struct {
	// Iterations fixes the measured iteration count per benchmark.
	// Zero calibrates each benchmark against MinTime instead (the
	// fixed mode is what the determinism tests and CI use).
	Iterations int
	// Warmup is the number of unmeasured iterations run first to fill
	// caches and steady-state the allocator (default 1).
	Warmup int
	// MinTime is the calibration target per benchmark when Iterations
	// is zero (default 1s).
	MinTime time.Duration
	// Short marks the scaled-down suite; recorded in Meta so baseline
	// comparisons refuse to pair short and full reports.
	Short bool
	// Filter, when non-empty, selects benchmarks whose name contains
	// the substring.
	Filter string
	// Progress, when non-nil, receives one line per benchmark as it
	// completes.
	Progress io.Writer
}

// Run executes the suite and assembles the canonical report. Benchmarks
// run sequentially in registry order; each benchmark's Setup is
// outside the measured region, and a per-benchmark GOMAXPROCS override
// is restored before the next benchmark starts.
func Run(suite []Benchmark, cfg Config) (*Report, error) {
	if cfg.Warmup <= 0 {
		cfg.Warmup = 1
	}
	if cfg.MinTime <= 0 {
		cfg.MinTime = time.Second
	}
	rep := &Report{
		Schema: Schema,
		Suite:  SuiteName,
		Meta: Meta{
			GoVersion:  runtime.Version(),
			GOOS:       runtime.GOOS,
			GOARCH:     runtime.GOARCH,
			NumCPU:     runtime.NumCPU(),
			GOMAXPROCS: runtime.GOMAXPROCS(0),
			Short:      cfg.Short,
			Iterations: cfg.Iterations,
			Warmup:     cfg.Warmup,
		},
	}
	for i := range suite {
		b := &suite[i]
		if cfg.Filter != "" && !strings.Contains(b.Name, cfg.Filter) {
			continue
		}
		res, err := runOne(b, cfg)
		if err != nil {
			return nil, fmt.Errorf("perf: %s: %w", b.Name, err)
		}
		rep.Benchmarks = append(rep.Benchmarks, res)
		if cfg.Progress != nil {
			fmt.Fprintf(cfg.Progress, "%-28s %10d iters  %12.0f ns/op  %10.0f allocs/op\n",
				res.Name, res.Iterations, res.NsPerOp, res.AllocsPerOp)
		}
	}
	if len(rep.Benchmarks) == 0 {
		return nil, fmt.Errorf("perf: no benchmarks matched filter %q", cfg.Filter)
	}
	return rep, nil
}

// runOne measures a single benchmark under the configured policy.
func runOne(b *Benchmark, cfg Config) (Result, error) {
	if b.GOMAXPROCS > 0 {
		prev := runtime.GOMAXPROCS(b.GOMAXPROCS)
		defer runtime.GOMAXPROCS(prev)
	}
	op, err := b.Setup()
	if err != nil {
		return Result{}, fmt.Errorf("setup: %w", err)
	}
	for i := 0; i < cfg.Warmup; i++ {
		if err := op(); err != nil {
			return Result{}, fmt.Errorf("warmup: %w", err)
		}
	}
	iters := cfg.Iterations
	if iters <= 0 {
		iters, err = calibrate(op, cfg.MinTime)
		if err != nil {
			return Result{}, err
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	for i := 0; i < iters; i++ {
		if err := op(); err != nil {
			return Result{}, err
		}
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	return Result{
		Name:        b.Name,
		Group:       b.Group,
		Info:        b.Info,
		Params:      b.Params,
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		Iterations:  iters,
		TotalNs:     elapsed.Nanoseconds(),
		NsPerOp:     float64(elapsed.Nanoseconds()) / float64(iters),
		AllocsPerOp: float64(after.Mallocs-before.Mallocs) / float64(iters),
		BytesPerOp:  float64(after.TotalAlloc-before.TotalAlloc) / float64(iters),
	}, nil
}

// calibrate picks an iteration count whose total runtime approaches
// minTime, doubling from one op like the testing package but capped so
// a misregistered no-op cannot spin forever.
func calibrate(op func() error, minTime time.Duration) (int, error) {
	const maxIters = 1 << 16
	iters := 1
	for {
		start := time.Now()
		for i := 0; i < iters; i++ {
			if err := op(); err != nil {
				return 0, err
			}
		}
		elapsed := time.Since(start)
		if elapsed >= minTime || iters >= maxIters {
			return iters, nil
		}
		// Predict the target count from the measured rate, growing at
		// most 4x per round to damp noisy first measurements.
		next := iters * 4
		if elapsed > 0 {
			predicted := int(float64(iters) * float64(minTime) / float64(elapsed))
			if predicted < next {
				next = predicted
			}
		}
		if next <= iters {
			next = iters + 1
		}
		if next > maxIters {
			next = maxIters
		}
		iters = next
	}
}
