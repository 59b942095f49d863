package fsim

import (
	"testing"

	"repro/internal/fault"
	"repro/internal/gen"
	"repro/internal/netlist"
	"repro/internal/pattern"
)

// runAllocs measures allocations of one Run over n patterns.
func runAllocs(t *testing.T, c *netlist.Circuit, faults []fault.Fault, n int) float64 {
	t.Helper()
	return testing.AllocsPerRun(10, func() {
		src := pattern.NewLFSR(0xdeadbeef)
		if _, err := Run(c, faults, src, Options{MaxPatterns: n}); err != nil {
			t.Fatal(err)
		}
	})
}

// TestRunAllocsPatternIndependent pins the measured loop's zero-alloc
// steady state: RunContext allocates its simulator state and result
// buffers up front, and the per-pattern loop reuses them (self-append
// and buffer-reset idioms only). If allocations scale with the pattern
// count, something inside the loop started allocating — exactly the
// regression the per-worker-arena PPSFP rewrite must not reintroduce.
func TestRunAllocsPatternIndependent(t *testing.T) {
	c := gen.RandomDAG(7, 12, 60, gen.DAGOptions{})
	faults := fault.Universe(c)
	few := runAllocs(t, c, faults, 64)
	many := runAllocs(t, c, faults, 6400)
	// 100x the patterns may add a handful of amortized-growth
	// reallocations (detection lists), but nothing per-pattern: 6336
	// extra iterations must not cost more than a few allocations.
	if many-few > 8 {
		t.Fatalf("Run allocs scale with pattern count: %.1f at 64 patterns vs %.1f at 6400 (want delta <= 8)",
			few, many)
	}
}
