package tpi

import (
	"context"

	"repro/internal/fault"
	"repro/internal/netlist"
)

// Cancellation support for the planners. The DP cores are recursive
// (opDP.dp) or deeply nested (cutDP.solve inside a binary search), so
// rather than threading an error return through every recurrence,
// cancellation aborts via a private panic value that the exported
// *Context wrappers recover into a plain ctx.Err() return. The panic
// value never escapes the package.
type ctxAbort struct{ err error }

// pollDone panics with ctxAbort when the done channel is readable. A nil
// done channel (context.Background and friends) can never be, so the
// non-cancellable path returns before the select.
func pollDone(ctx context.Context, done <-chan struct{}) {
	if done == nil {
		return
	}
	select {
	case <-done:
		panic(ctxAbort{ctx.Err()})
	default:
	}
}

// recoverCtx converts a ctxAbort panic into *err; any other panic is
// re-raised. Use as `defer recoverCtx(&err)` in exported wrappers.
func recoverCtx(err *error) {
	if r := recover(); r != nil {
		a, ok := r.(ctxAbort)
		if !ok {
			panic(r)
		}
		*err = a.err
	}
}

// PlanCutsDPContext is PlanCutsDP with cancellation: each feasibility
// DP polls the context at its first node and every 64th after it, so an
// expired or cancelled context aborts the plan within 64 nodes' Pareto
// merges. It returns nil and ctx.Err() when cancelled.
func PlanCutsDPContext(ctx context.Context, c *netlist.Circuit, k int) (plan *CutPlan, err error) {
	return PlanCutsDPWithCostContext(ctx, c, k, UnitCost)
}

// PlanCutsDPWithCostContext is the cancellable weighted planner.
func PlanCutsDPWithCostContext(ctx context.Context, c *netlist.Circuit, budget int, cost CostFunc) (plan *CutPlan, err error) {
	defer recoverCtx(&err)
	return planCutsDPWithCost(ctx, c, budget, cost)
}

// PlanObservationPointsDPContext is PlanObservationPointsDP with
// cancellation: the context is polled once per tree-DP state, so an
// expired or cancelled context aborts the plan within one subtree
// knapsack. It returns nil and ctx.Err() when cancelled.
func PlanObservationPointsDPContext(ctx context.Context, c *netlist.Circuit, faults []fault.Fault, k int, dth float64, opts OPOptions) (plan *OPPlan, err error) {
	defer recoverCtx(&err)
	return planObservationPointsDP(ctx, c, faults, k, dth, opts)
}

// PlanControlPointsGreedyContext is PlanControlPointsGreedy with
// cancellation: the context is polled once per candidate evaluation (the
// unit of work that dominates the greedy loop) and between the candidate
// search's marking sweeps. It returns nil and ctx.Err() when cancelled.
func PlanControlPointsGreedyContext(ctx context.Context, c *netlist.Circuit, faults []fault.Fault, k int, dth float64, opts CPOptions) (plan *CPPlan, err error) {
	defer recoverCtx(&err)
	return planControlPointsGreedy(ctx, c, faults, k, dth, opts)
}

// PlanHybridContext is PlanHybrid with cancellation threaded through
// both planning stages and the static pre-prune, whose implication
// engine build and redundancy pass both poll.
func PlanHybridContext(ctx context.Context, c *netlist.Circuit, faults []fault.Fault, nCP, nOP int, dth float64, cpOpts CPOptions, opOpts OPOptions) (plan *HybridPlan, err error) {
	defer recoverCtx(&err)
	return planHybrid(ctx, c, faults, nCP, nOP, dth, cpOpts, opOpts)
}
