package lint

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/netlist"
)

// checkDuplicateCones finds structurally isomorphic cones by hashing
// every gate over (type, canonicalized fanin classes) in topological
// order. Because fanins are resolved through their class representatives,
// whole duplicated subcircuits collapse transitively: the roots of two
// copies of an N-gate cone land in the same class even though their gate
// IDs differ everywhere. Duplicates are redundancy suspects — they add
// fault sites whose tests are pairwise identical and they hide single
// faults from diagnosis.
func checkDuplicateCones(c *netlist.Circuit, r *Report) {
	n := c.NumGates()
	class := make([]int, n) // gate -> representative gate ID
	byKey := make(map[string]int)

	for _, id := range c.TopoOrder() {
		g := c.Gate(id)
		if g.Type == netlist.Input {
			class[id] = id
			continue
		}
		reps := make([]int, len(g.Fanin))
		for i, f := range g.Fanin {
			reps[i] = class[f]
		}
		if commutative(g.Type) {
			sort.Ints(reps)
		}
		var sb strings.Builder
		sb.WriteString(g.Type.String())
		for _, f := range reps {
			sb.WriteByte(':')
			sb.WriteString(strconv.Itoa(f))
		}
		key := sb.String()
		if rep, ok := byKey[key]; ok {
			class[id] = rep
			r.Findings = append(r.Findings, Finding{
				Rule:     RuleDuplicateCone,
				Severity: Warning,
				Signal:   id,
				Name:     g.Name,
				Message:  fmt.Sprintf("computes the same function as %s (duplicate cone)", c.GateName(rep)),
				Hint:     "merge the cones into one gate; duplicated faults are equivalent",
			})
		} else {
			byKey[key] = id
			class[id] = id
		}
	}
}

// commutative reports whether pin order is irrelevant for the gate type.
func commutative(t netlist.GateType) bool {
	switch t {
	case netlist.And, netlist.Nand, netlist.Or, netlist.Nor, netlist.Xor, netlist.Xnor:
		return true
	}
	return false
}
