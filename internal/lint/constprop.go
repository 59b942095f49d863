package lint

import (
	"fmt"

	"repro/internal/fault"
	"repro/internal/netlist"
)

// The constant pass runs a literal-aware abstract interpretation over the
// gate network. Each signal's abstract value is one of:
//
//   - a constant 0/1, proven regardless of the primary inputs
//   - a literal: equal to some other signal up to inversion
//   - unknown
//
// Literals are what make the pass useful on circuits with no constant
// sources: AND(a, NOT(a)) is 0, XOR(a, a) is 0, OR(b, XNOR(a,a)) is a
// literal of b, and constants then propagate forward through controlling
// inputs. Everything proven here is sound — a line proven constant v
// makes its s-a-v fault redundant by construction, which the tests
// confirm against PODEM.

type absKind uint8

const (
	absUnknown absKind = iota
	absConst
	absLit
)

// absVal is the abstract value of one signal.
type absVal struct {
	kind absKind
	b    bool // constant value when kind == absConst
	root int  // signal ID when kind == absLit
	neg  bool // literal phase when kind == absLit
}

func constVal(b bool) absVal { return absVal{kind: absConst, b: b} }
func litVal(root int) absVal { return absVal{kind: absLit, root: root} }
func (v absVal) invert() absVal {
	switch v.kind {
	case absConst:
		v.b = !v.b
	case absLit:
		v.neg = !v.neg
	}
	return v
}

// sameLit reports whether a and b are literals of the same root, and
// whether their phases agree.
func sameLit(a, b absVal) (same, equalPhase bool) {
	if a.kind == absLit && b.kind == absLit && a.root == b.root {
		return true, a.neg == b.neg
	}
	return false, false
}

// propagate computes the abstract value of every signal in topological
// order.
func propagate(c *netlist.Circuit) []absVal {
	vals := make([]absVal, c.NumGates())
	for _, id := range c.TopoOrder() {
		g := c.Gate(id)
		if g.Type == netlist.Input {
			vals[id] = litVal(id)
			continue
		}
		in := make([]absVal, len(g.Fanin))
		for i, f := range g.Fanin {
			in[i] = vals[f]
			// Canonicalize pass-through literals so complementary-pair
			// detection sees through buffers and inverters.
			if in[i].kind == absUnknown {
				in[i] = litVal(f)
			}
		}
		vals[id] = evalAbs(g.Type, in)
	}
	return vals
}

// evalAbs evaluates one gate over abstract fanin values.
func evalAbs(t netlist.GateType, in []absVal) absVal {
	switch t {
	case netlist.Buf:
		return in[0]
	case netlist.Not:
		return in[0].invert()
	case netlist.And, netlist.Nand, netlist.Or, netlist.Nor:
		// ctl is the controlling constant (0 for AND, 1 for OR); an input
		// at ctl forces the output, an input at !ctl is neutral.
		ctl := t == netlist.Or || t == netlist.Nor
		inv := t == netlist.Nand || t == netlist.Nor
		out := func(v absVal) absVal {
			if inv {
				return v.invert()
			}
			return v
		}
		var lits []absVal
		for _, v := range in {
			switch v.kind {
			case absConst:
				if v.b == ctl {
					return out(constVal(ctl))
				}
				// neutral constant: drop
			default:
				lits = append(lits, v)
			}
		}
		// Complementary literal pair forces the controlling value.
		for i := 0; i < len(lits); i++ {
			for j := i + 1; j < len(lits); j++ {
				if same, eq := sameLit(lits[i], lits[j]); same && !eq {
					return out(constVal(ctl))
				}
			}
		}
		if len(lits) == 0 {
			return out(constVal(!ctl)) // all inputs neutral
		}
		// A single distinct known literal (possibly repeated) passes
		// through; any unknown operand blocks the reduction.
		first := lits[0]
		if first.kind == absLit {
			single := true
			for _, v := range lits[1:] {
				same, eq := sameLit(first, v)
				if !same || !eq {
					single = false
					break
				}
			}
			if single {
				return out(first)
			}
		}
		return absVal{}
	case netlist.Xor, netlist.Xnor:
		// Fold pairwise; XOR of two same-root literals is a constant.
		acc := constVal(false)
		for _, v := range in {
			acc = xorAbs(acc, v)
		}
		if t == netlist.Xnor {
			acc = acc.invert()
		}
		return acc
	}
	return absVal{}
}

// xorAbs combines two abstract values under XOR.
func xorAbs(a, b absVal) absVal {
	if a.kind == absUnknown || b.kind == absUnknown {
		return absVal{}
	}
	switch {
	case a.kind == absConst && b.kind == absConst:
		return constVal(a.b != b.b)
	case a.kind == absConst:
		if a.b {
			return b.invert()
		}
		return b
	case b.kind == absConst:
		if b.b {
			return a.invert()
		}
		return a
	}
	if same, eq := sameLit(a, b); same {
		return constVal(!eq)
	}
	return absVal{}
}

// checkConstants reports proven-constant lines, the stuck-at faults they
// make untestable, and constant-implied dead logic.
func checkConstants(c *netlist.Circuit, r *Report) {
	vals := propagate(c)
	isConst := make([]bool, c.NumGates())

	for id := 0; id < c.NumGates(); id++ {
		v := vals[id]
		if v.kind != absConst {
			continue
		}
		isConst[id] = true
		bit := 0
		if v.b {
			bit = 1
		}
		r.Findings = append(r.Findings, Finding{
			Rule:     RuleConstantLine,
			Severity: Error,
			Signal:   id,
			Name:     c.GateName(id),
			Message:  fmt.Sprintf("line is structurally stuck at %d for every input vector", bit),
			Hint:     fmt.Sprintf("its s-a-%d fault is untestable; rewrite the cone or tie the line to its constant", bit),
		})

		// The stem always carries v, so s-a-v on the stem — and on every
		// fanout branch when the stem has multiple consumers — never
		// changes any signal: redundant by construction.
		stuck := []fault.Fault{{Gate: id, Pin: -1, Stuck: v.b}}
		if c.FanoutCount(id) > 1 {
			for _, consumer := range c.Fanout(id) {
				for pin, f := range c.Fanin(consumer) {
					if f == id {
						stuck = append(stuck, fault.Fault{Gate: consumer, Pin: pin, Stuck: v.b})
					}
				}
			}
		}
		for _, sf := range stuck {
			r.untestable = append(r.untestable, sf)
			r.Findings = append(r.Findings, Finding{
				Rule:     RuleUntestableFault,
				Severity: Warning,
				Signal:   sf.Gate,
				Name:     c.GateName(sf.Gate),
				Message:  fmt.Sprintf("fault %s is structurally untestable (line proven constant)", sf.Name(c)),
				Hint:     "exclude it from the fault universe before planning test points",
			})
		}
	}

	// Constant-implied dead logic: a non-constant gate whose every
	// consumer is proven constant cannot influence any output through
	// those consumers. Only flagged when the gate has consumers and is
	// not itself observed as a primary output.
	for id := 0; id < c.NumGates(); id++ {
		if isConst[id] || c.IsOutput(id) || c.FanoutCount(id) == 0 {
			continue
		}
		shadowed := true
		for _, consumer := range c.Fanout(id) {
			if !isConst[consumer] {
				shadowed = false
				break
			}
		}
		if shadowed {
			r.Findings = append(r.Findings, Finding{
				Rule:     RuleConstantShadow,
				Severity: Warning,
				Signal:   id,
				Name:     c.GateName(id),
				Message:  "every consumer of this signal is proven constant (constant-implied dead logic)",
				Hint:     "the cone feeding it is unobservable; remove it or add an observation point",
			})
		}
	}
}
