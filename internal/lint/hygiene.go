package lint

import (
	"fmt"

	"repro/internal/netlist"
)

// checkHygiene runs the structural hygiene pass: unused inputs, gates
// with no path to an output, duplicate fanin pins, and pathological
// fanout/depth statistics.
func checkHygiene(c *netlist.Circuit, opts Options, r *Report) {
	n := c.NumGates()

	// live[g] = g reaches some primary output (backward reachability over
	// the fanin relation from the outputs).
	live := make([]bool, n)
	stack := append([]int(nil), c.Outputs()...)
	for _, o := range c.Outputs() {
		live[o] = true
	}
	for len(stack) > 0 {
		g := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, f := range c.Fanin(g) {
			if !live[f] {
				live[f] = true
				stack = append(stack, f)
			}
		}
	}

	for id := 0; id < n; id++ {
		g := c.Gate(id)
		if live[id] {
			continue
		}
		if g.Type == netlist.Input {
			r.Findings = append(r.Findings, Finding{
				Rule:     RuleUnusedInput,
				Severity: Warning,
				Signal:   id,
				Name:     g.Name,
				Message:  "primary input drives no logic reaching an output",
				Hint:     "drop the input or connect it; unused inputs inflate the pattern space",
			})
		} else {
			r.Findings = append(r.Findings, Finding{
				Rule:     RuleDeadGate,
				Severity: Warning,
				Signal:   id,
				Name:     g.Name,
				Message:  "gate has no structural path to any primary output (dead logic)",
				Hint:     "remove it or mark its signal OUTPUT; every fault on it is undetectable",
			})
		}
	}

	// Duplicate fanin pins: the same signal consumed on two pins of one
	// gate. For unate gates the extra pin is redundant; for XOR/XNOR the
	// pair cancels outright (the constant pass picks that up too).
	for id := 0; id < n; id++ {
		fanin := c.Fanin(id)
		if len(fanin) < 2 {
			continue
		}
		seen := make(map[int]bool, len(fanin))
		reported := false
		for _, f := range fanin {
			if seen[f] && !reported {
				r.Findings = append(r.Findings, Finding{
					Rule:     RuleDuplicateFanin,
					Severity: Warning,
					Signal:   id,
					Name:     c.GateName(id),
					Message:  fmt.Sprintf("gate consumes signal %s on multiple pins", c.GateName(f)),
					Hint:     "deduplicate the pins: a repeated input adds nothing to AND or OR and cancels in XOR",
				})
				reported = true
			}
			seen[f] = true
		}
	}

	if opts.MaxFanout > 0 {
		for id := 0; id < n; id++ {
			if fo := c.FanoutCount(id); fo > opts.MaxFanout {
				r.Findings = append(r.Findings, Finding{
					Rule:     RuleHighFanout,
					Severity: Info,
					Signal:   id,
					Name:     c.GateName(id),
					Message:  fmt.Sprintf("fanout %d exceeds bound %d", fo, opts.MaxFanout),
					Hint:     "high-fanout stems dominate observability loss; consider buffering or an observation point",
				})
			}
		}
	}
	if opts.MaxDepth > 0 {
		if d := c.Depth(); d > opts.MaxDepth {
			r.Findings = append(r.Findings, Finding{
				Rule:     RuleDeepLogic,
				Severity: Info,
				Signal:   -1,
				Message:  fmt.Sprintf("circuit depth %d exceeds bound %d", d, opts.MaxDepth),
				Hint:     "deep cones are random-pattern resistant; test points shorten them",
			})
		}
	}
}
