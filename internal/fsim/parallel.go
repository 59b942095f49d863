package fsim

import (
	"context"
	"errors"
	"runtime"
	"sync"

	"repro/internal/fault"
	"repro/internal/netlist"
	"repro/internal/pattern"
)

// RunParallel fault-simulates the fault list across multiple goroutines:
// the fault list is partitioned, each worker owns a private simulator
// and pattern source clone, and partial results are merged. Results are
// bit-identical to Run because faults are independent under PPSFP — each
// fault's detection history depends only on the shared pattern stream,
// which every worker regenerates from the same source factory.
//
// src is a factory returning a fresh, identically-seeded pattern source
// per worker. workers <= 0 selects GOMAXPROCS.
//
// Each worker re-simulates the good circuit for every block, so the
// speedup approaches the worker count only while per-fault propagation
// dominates (large fault lists, early in a run before dropping thins
// them); tiny workloads are better served by Run.
func RunParallel(c *netlist.Circuit, faults []fault.Fault, src func() pattern.Source, workers int, opts Options) (*Result, error) {
	return RunParallelContext(context.Background(), c, faults, src, workers, opts)
}

// RunParallelContext is RunParallel with cancellation: every worker polls
// the context as RunContext does. On cancellation the workers' partial
// results are merged and returned alongside ctx.Err(); any other worker
// error discards the results as before.
func RunParallelContext(ctx context.Context, c *netlist.Circuit, faults []fault.Fault, src func() pattern.Source, workers int, opts Options) (*Result, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(faults) {
		workers = len(faults)
	}
	if workers <= 1 {
		return RunContext(ctx, c, faults, src(), opts)
	}
	// Interleaved partition keeps hard and easy faults spread evenly, so
	// workers finish together under fault dropping.
	parts := make([][]fault.Fault, workers)
	for i, f := range faults {
		parts[i%workers] = append(parts[i%workers], f)
	}
	results := make([]*Result, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			results[w], errs[w] = RunContext(ctx, c, parts[w], src(), opts)
		}(w)
	}
	wg.Wait()
	var ctxErr error
	for _, err := range errs {
		switch {
		case err == nil:
		case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
			ctxErr = err
		default:
			return nil, err
		}
	}
	merged := &Result{
		Faults:      faults,
		FirstDetect: make(map[fault.Fault]int),
	}
	if opts.CountDetections {
		merged.DetectCount = make(map[fault.Fault]int)
	}
	for _, r := range results {
		if r == nil {
			continue
		}
		if r.Patterns > merged.Patterns {
			merged.Patterns = r.Patterns
		}
		for f, idx := range r.FirstDetect {
			merged.FirstDetect[f] = idx
		}
		for f, n := range r.DetectCount {
			merged.DetectCount[f] = n
		}
	}
	return merged, ctxErr
}
