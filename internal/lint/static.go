package lint

import (
	"context"
	"fmt"

	"repro/internal/implic"
	"repro/internal/netlist"
)

// The static-implication pass runs the internal/implic engine — direct
// implications, SOCRATES-style learned implications and dominator
// analysis — and reports two things the cheaper passes cannot see:
//
//   - S001: stuck-at faults proven untestable by implication reasoning
//     (excitation forces a dominator side input to its controlling
//     value, or the line is constant for non-syntactic reasons). These
//     extend the C002 set and join Report.Untestable, with the same
//     contract: every reported fault is confirmed redundant by PODEM in
//     the cross-check tests.
//   - S002: single-fanout signals whose immediate dominator is a
//     buffer or inverter consumer. Observing such a signal is
//     equivalent (up to inversion) to observing its dominator, so an
//     observation-point planner can collapse the pair and score one
//     site instead of two.
//
// The engine's sweep is quadratic-ish in gate count, so the pass is
// gated by Options.ImplicationGateLimit.

// checkStatic runs the implication/dominator pass, returning ctx.Err()
// once ctx is done. It must run after checkConstants so S001 can skip
// faults C002 already reported.
func checkStatic(ctx context.Context, c *netlist.Circuit, opts Options, r *Report) error {
	limit := opts.ImplicationGateLimit
	if limit == 0 {
		limit = 3000
	}
	if limit < 0 || c.NumGates() > limit {
		return nil
	}
	eng, err := implic.NewContext(ctx, c, implic.Options{})
	if err != nil {
		return err
	}
	redundant, err := eng.RedundantContext(ctx)
	if err != nil {
		return err
	}

	seen := make(map[string]bool, len(r.untestable))
	for _, f := range r.untestable {
		seen[f.Name(c)] = true
	}
	for _, rf := range redundant {
		name := rf.F.Name(c)
		if seen[name] {
			continue
		}
		seen[name] = true
		r.untestable = append(r.untestable, rf.F)
		r.Findings = append(r.Findings, Finding{
			Rule:     RuleStaticRedundant,
			Severity: Warning,
			Signal:   rf.F.Gate,
			Name:     c.GateName(rf.F.Gate),
			Message:  fmt.Sprintf("fault %s is statically redundant: %s", name, rf.Reason),
			Hint:     "exclude it from the fault universe before planning test points",
		})
	}

	for id := 0; id < c.NumGates(); id++ {
		if c.IsOutput(id) || c.FanoutCount(id) != 1 {
			continue
		}
		dom, ok := eng.Dominator(id)
		if !ok {
			continue
		}
		if t := c.Type(dom); t != netlist.Buf && t != netlist.Not {
			continue
		}
		r.Findings = append(r.Findings, Finding{
			Rule:     RuleCollapsibleSite,
			Severity: Info,
			Signal:   id,
			Name:     c.GateName(id),
			Message: fmt.Sprintf("observation site collapses onto its dominator %s (single-fanout line into a %v)",
				c.GateName(dom), c.Type(dom)),
			Hint: "an observation point on the dominator observes this line too; score only one of them",
		})
	}
	return nil
}
