package tpi

import (
	"context"

	"repro/internal/fault"
	"repro/internal/netlist"
)

// Apply replays the control point insertions onto a circuit. Points were
// selected against successively modified circuits, so they are applied
// one at a time in selection order (gate IDs of pre-existing gates are
// stable across insertions, making the replay well defined).
func (p *CPPlan) Apply(c *netlist.Circuit) (*netlist.Circuit, error) {
	cur := c
	for _, pt := range p.Points {
		mod, err := cur.InsertTestPoints([]netlist.TestPoint{pt})
		if err != nil {
			return nil, err
		}
		cur = mod
	}
	return cur, nil
}

// HybridPlan is a combined control + observation point plan: the full
// test point insertion flow used by the E4/E5 experiments.
type HybridPlan struct {
	// Control is the control point stage (signals relative to the
	// original circuit and its successive modifications).
	Control *CPPlan
	// Observe is the observation point stage, planned on the
	// control-modified circuit.
	Observe *OPPlan
	// Modified is the final circuit with all test points inserted.
	Modified *netlist.Circuit
	// PrunedFaults counts the statically-redundant faults removed from
	// the target list before planning (see PruneFaults); coverage
	// figures in Control and Observe are over the pruned list.
	PrunedFaults int
}

// AllPoints returns the total number of inserted test points.
func (h *HybridPlan) AllPoints() int {
	return len(h.Control.Points) + len(h.Observe.Points)
}

// PlanHybrid runs the full flow: a static pre-prune of untestable
// faults, greedy control point selection (at most nCP points), then DP
// observation point planning (at most nOP points) on the
// control-modified circuit, targeting detection threshold dth for the
// given fault list. The returned plan carries the final modified
// circuit ready for fault simulation.
func PlanHybrid(c *netlist.Circuit, faults []fault.Fault, nCP, nOP int, dth float64, cpOpts CPOptions, opOpts OPOptions) (*HybridPlan, error) {
	return planHybrid(context.Background(), c, faults, nCP, nOP, dth, cpOpts, opOpts)
}

func planHybrid(ctx context.Context, c *netlist.Circuit, faults []fault.Fault, nCP, nOP int, dth float64, cpOpts CPOptions, opOpts OPOptions) (*HybridPlan, error) {
	faults, pruned := pruneFaults(ctx, c, faults)
	cp, err := planControlPointsGreedy(ctx, c, faults, nCP, dth, cpOpts)
	if err != nil {
		return nil, err
	}
	mid, err := cp.Apply(c)
	if err != nil {
		return nil, err
	}
	op, err := planObservationPointsDP(ctx, mid, faults, nOP, dth, opOpts)
	if err != nil {
		return nil, err
	}
	final, err := mid.InsertTestPoints(op.TestPoints())
	if err != nil {
		return nil, err
	}
	return &HybridPlan{Control: cp, Observe: op, Modified: final, PrunedFaults: pruned}, nil
}
