package atpg

import (
	"testing"

	"repro/internal/fault"
	"repro/internal/gen"
)

// generateAllocs measures steady-state allocations of one Generate call.
func generateAllocs(t *testing.T, width int) float64 {
	t.Helper()
	c := gen.ParityTree(width)
	f := fault.Universe(c)[0]
	return testing.AllocsPerRun(20, func() {
		if _, err := Generate(c, f, Options{}); err != nil {
			t.Fatal(err)
		}
	})
}

// TestGenerateAllocsBounded pins the absolute allocation budget of one
// PODEM run: engine setup plus the result, nothing per-decision. The
// imply scratch (engine.inG/inB) used to be allocated on every imply
// call — once per search decision and backtrack — which on a parity
// tree (every input must be assigned) costs 2 allocations per level and
// blows well past this bound.
func TestGenerateAllocsBounded(t *testing.T) {
	if got := generateAllocs(t, 16); got > 20 {
		t.Fatalf("Generate on parity-16 costs %.1f allocs/op, want <= 20 (per-decision allocation crept back in)", got)
	}
}

// TestGenerateAllocsDepthIndependent pins the sharper invariant: the
// allocation count must not scale with search depth. Parity trees force
// PODEM to assign every input, so quadrupling the width quadruples the
// imply count; only the O(1) setup (result vector, PI assignment) may
// grow, and only by a few slots.
func TestGenerateAllocsDepthIndependent(t *testing.T) {
	shallow := generateAllocs(t, 4)
	deep := generateAllocs(t, 16)
	if deep-shallow > 4 {
		t.Fatalf("Generate allocs grew with search depth: parity-4 %.1f vs parity-16 %.1f (want delta <= 4)",
			shallow, deep)
	}
}
