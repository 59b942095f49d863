package tpi

import (
	"context"
	"math"
	"slices"
	"sort"

	"repro/internal/fault"
	"repro/internal/netlist"
	"repro/internal/par"
	"repro/internal/progress"
	"repro/internal/testability"
)

// CPPlan is the result of a control point selection run.
type CPPlan struct {
	// Points lists the selected control points (signals in the original
	// circuit, kinds Control0/Control1).
	Points []netlist.TestPoint
	// CoveredBefore/CoveredAfter count faults whose COP-estimated
	// detection probability meets the threshold without/with the plan.
	CoveredBefore, CoveredAfter int
	// TotalFaults is the size of the targeted fault list.
	TotalFaults int
	// Evaluations counts candidate evaluations: one COP re-analysis per
	// (signal, Control0/Control1) pair scored.
	Evaluations int64
	// Modified is the circuit with the points inserted in selection
	// order, the input circuit itself when there are none. Later points
	// may name gates that earlier ones inserted; Modified holds every
	// one of them under the same ID.
	Modified *netlist.Circuit
}

// CPOptions configures control point selection.
type CPOptions struct {
	// MaxCandidates caps the number of candidate signals evaluated per
	// iteration (0 = 64). Candidates are drawn from the fanin and
	// fanout cones of the hard faults and ranked by signal-probability
	// extremity, the classic quick filter: lines pinned near 0 or 1 are
	// the ones whose forcing unlocks excitation and propagation.
	MaxCandidates int
	// COP configures the probability analysis.
	COP testability.COPOptions
}

// PlanControlPointsGreedy selects up to k control points, each iteration
// inserting the single AND-type (force-0) or OR-type (force-1) control
// point that raises the number of faults meeting the detection threshold
// the most under a full COP re-analysis of the candidate-modified
// circuit. Each candidate is scored on a testability.Overlay, which
// computes exactly that re-analysis without building the circuit; only
// each iteration's winner is inserted. Control test inputs are assumed
// driven by fresh equiprobable BIST inputs.
//
// The candidates are scored on every core, one overlay per worker. Each
// score is written by the candidate's index and the winner is the first
// strict maximum in candidate order, Control0 before Control1, so the
// plan does not depend on the number of workers.
//
// Control point selection is where the NP-completeness bites (control
// points interact through shared fanout cones), so this is a heuristic by
// design; the 1987 DP applies to the problems in cutdp.go and opdp.go.
func PlanControlPointsGreedy(c *netlist.Circuit, faults []fault.Fault, k int, dth float64, opts CPOptions) (*CPPlan, error) {
	return planControlPointsGreedy(context.Background(), c, faults, k, dth, opts)
}

// controlKinds are the kinds each candidate signal is scored with, in
// the order ties between them break.
var controlKinds = [...]netlist.TestPointKind{netlist.Control0, netlist.Control1}

func planControlPointsGreedy(ctx context.Context, c *netlist.Circuit, faults []fault.Fault, k int, dth float64, opts CPOptions) (*CPPlan, error) {
	if k < 0 {
		return nil, ErrBudgetNegative
	}
	maxCand := opts.MaxCandidates
	if maxCand <= 0 {
		maxCand = 64
	}
	plan := &CPPlan{TotalFaults: len(faults)}
	// With no control point set, ov.COP is NewCOP of the current circuit;
	// each iteration reads it before its first SetControlPoint and
	// resets it to the circuit with the winner inserted.
	ov := testability.NewOverlay(c, opts.COP)
	plan.CoveredBefore = countCovered(&ov.COP, faults, dth)
	covered := plan.CoveredBefore

	report := progress.FromContext(ctx)
	var points []netlist.TestPoint
	cur := c
	// gains[len(controlKinds)*i+j] is the coverage gain of candidate i
	// with kind controlKinds[j]. overlays[w] is worker w's overlay: ov,
	// or a clone of it that each iteration makes in the buffers of the
	// one before, as ov reuses its own.
	var gains []int
	var overlays []*testability.Overlay
	for len(points) < k {
		if report != nil {
			report("control-points", int64(len(points)), int64(k))
		}
		candidates := controlCandidates(cur, &ov.COP, faults, dth, maxCand)
		gains = slices.Grow(gains[:0], len(controlKinds)*len(candidates))[:len(controlKinds)*len(candidates)]
		workers := par.Workers(len(candidates))
		for len(overlays) < workers {
			overlays = append(overlays, nil)
		}
		overlays[0] = ov
		for w := 1; w < workers; w++ {
			overlays[w] = ov.Clone(overlays[w])
		}
		scoreCandidates(ctx, overlays[:workers], candidates, faults, dth, covered, gains)
		plan.Evaluations += int64(len(gains))
		bestGain := 0
		var bestPoint netlist.TestPoint
		for i, gain := range gains {
			if gain > bestGain {
				bestGain = gain
				bestPoint = netlist.TestPoint{Signal: candidates[i/len(controlKinds)], Kind: controlKinds[i%len(controlKinds)]}
			}
		}
		if bestGain == 0 {
			break
		}
		mod, err := cur.InsertTestPoints([]netlist.TestPoint{bestPoint})
		if err != nil {
			return nil, err
		}
		points = append(points, bestPoint)
		cur = mod
		covered += bestGain
		if len(points) < k {
			ov.Reset(mod)
		}
	}
	plan.Points = points
	plan.CoveredAfter = covered
	plan.Modified = cur
	return plan, nil
}

// scoreCandidates sets gains[len(controlKinds)*i+j] to the number of
// faults that candidate i with kind controlKinds[j] adds to covered,
// on one worker per overlay: worker w sets its points on overlays[w],
// and the overlays must be analyses of one circuit. Each worker polls
// ctx once per candidate, and cancellation reaches the caller as the
// ctxAbort panic.
func scoreCandidates(ctx context.Context, overlays []*testability.Overlay, candidates []int, faults []fault.Fault, dth float64, covered int, gains []int) {
	done := ctx.Done()
	par.For(len(overlays), len(candidates), 1, func(w, i int) {
		pollDone(ctx, done)
		o := overlays[w]
		for j, kind := range controlKinds {
			o.SetControlPoint(candidates[i], kind)
			gains[len(controlKinds)*i+j] = countCovered(&o.COP, faults, dth) - covered
		}
	})
}

// countCovered counts faults whose estimated detection probability meets
// the threshold. The fault list refers to original gate IDs, which
// InsertTestPoints preserves in modified circuits.
func countCovered(co *testability.COP, faults []fault.Fault, dth float64) int {
	n := 0
	for _, f := range faults {
		if co.DetectProb(f) >= dth {
			n++
		}
	}
	return n
}

// controlCandidates returns candidate control point signals: members of
// the fanin or fanout cones of currently-hard faults, ranked by how
// extreme their signal probability is, capped at maxCand. One reverse
// topological sweep marks the gates that reach a hard fault's gate and
// one forward sweep the gates reached from one, so the cost is linear in
// the circuit however many faults are hard. It does not poll: the
// candidate scoring that follows polls once per candidate.
func controlCandidates(c *netlist.Circuit, co *testability.COP, faults []fault.Fault, dth float64, maxCand int) []int {
	// A hard fault's gate is in both of its own cones.
	const (
		inCone  = 1 << iota // reaches a hard fault's gate
		outCone             // reached from a hard fault's gate
	)
	mark := make([]uint8, c.NumGates())
	for _, f := range faults {
		if co.DetectProb(f) < dth {
			mark[f.Gate] = inCone | outCone
		}
	}
	order := c.TopoOrder()
	for i := len(order) - 1; i >= 0; i-- {
		id := order[i]
		for _, s := range c.Fanout(id) {
			if mark[s]&inCone != 0 {
				mark[id] |= inCone
				break
			}
		}
	}
	// The fanout cone matters too: forcing a line downstream of the
	// fault site can unblock propagation.
	for _, id := range order {
		for _, f := range c.Fanin(id) {
			if mark[f]&outCone != 0 {
				mark[id] |= outCone
				break
			}
		}
	}
	var cand []int
	for g, m := range mark {
		if m == 0 || c.Type(g) == netlist.Input {
			continue // forcing a BIST-driven PI adds nothing
		}
		cand = append(cand, g)
	}
	sort.Slice(cand, func(i, j int) bool {
		ei := math.Abs(co.Controllability(cand[i]) - 0.5)
		ej := math.Abs(co.Controllability(cand[j]) - 0.5)
		if ei != ej {
			return ei > ej
		}
		return cand[i] < cand[j]
	})
	if len(cand) > maxCand {
		cand = cand[:maxCand]
	}
	return cand
}
