package tpi

import (
	"context"

	"repro/internal/fault"
	"repro/internal/implic"
	"repro/internal/netlist"
)

// pruneGateLimit bounds the circuit size for the static pre-prune; the
// implication engine's learning sweep is roughly quadratic in gate
// count, while the planners themselves stay near-linear.
const pruneGateLimit = 4096

// PruneFaults removes the faults that the static implication engine
// (internal/implic) proves untestable: no test point placement can ever
// detect them, so scoring candidate sites against them only dilutes the
// planners' coverage model. Returns the kept faults and how many were
// pruned. Circuits above the internal gate limit are returned unchanged.
func PruneFaults(c *netlist.Circuit, faults []fault.Fault) ([]fault.Fault, int) {
	return pruneFaults(context.Background(), c, faults)
}

// pruneFaults is PruneFaults under ctx: the implication engine's build
// and its redundancy proofs both poll it, and an expired or cancelled
// ctx aborts through ctxAbort. Only the given faults are proven.
func pruneFaults(ctx context.Context, c *netlist.Circuit, faults []fault.Fault) ([]fault.Fault, int) {
	if c.NumGates() > pruneGateLimit {
		return faults, 0
	}
	e, err := implic.NewContext(ctx, c, implic.Options{})
	if err != nil {
		panic(ctxAbort{err})
	}
	red, err := e.RedundantAmongContext(ctx, faults)
	if err != nil {
		panic(ctxAbort{err})
	}
	kept := make([]fault.Fault, 0, len(faults))
	for i, f := range faults {
		if !red[i] {
			kept = append(kept, f)
		}
	}
	return kept, len(faults) - len(kept)
}
