package netlist

// IsStem reports whether the signal is a stem: a primary output or a
// signal with fanout count other than exactly one. Stems head fanout-free
// regions; every fault effect inside an FFR must pass through its stem.
func (c *Circuit) IsStem(id int) bool {
	return c.isOutput[id] || c.FanoutCount(id) != 1
}

// IsFanoutFree reports whether the circuit is a forest: every signal feeds
// at most one gate pin, no signal is both a primary output and an internal
// fanin, and no gate consumes the same signal on two pins.
func (c *Circuit) IsFanoutFree() bool {
	for id := range c.gates {
		n := c.FanoutCount(id)
		if n > 1 {
			return false
		}
		if c.isOutput[id] && n != 0 {
			return false
		}
	}
	return true
}

// FFR describes one fanout-free region: the maximal single-fanout cone
// feeding a stem.
type FFR struct {
	Stem  int   // the stem signal heading the region
	Gates []int // all gates whose effects reach the stem inside the region, including the stem
}

// FFRs decomposes the circuit into fanout-free regions. Every gate belongs
// to exactly one region: the one headed by the first stem reached when
// walking forward through single-fanout signals. Regions are returned in
// topological order of their stems; Gates within each region are in
// topological order.
func (c *Circuit) FFRs() []FFR {
	regionOf := make([]int, len(c.gates)) // gate -> stem id
	for _, id := range c.order {
		if c.IsStem(id) {
			regionOf[id] = id
		}
	}
	// Walk in reverse topological order so a non-stem gate inherits the
	// region of its unique consumer.
	for i := len(c.order) - 1; i >= 0; i-- {
		id := c.order[i]
		if !c.IsStem(id) {
			regionOf[id] = regionOf[c.fanout[c.fanoutStart[id]]]
		}
	}
	byStem := make(map[int]*FFR)
	var stems []int
	for _, id := range c.order {
		stem := regionOf[id]
		r, ok := byStem[stem]
		if !ok {
			r = &FFR{Stem: stem}
			byStem[stem] = r
			stems = append(stems, stem)
		}
		r.Gates = append(r.Gates, id)
	}
	out := make([]FFR, 0, len(stems))
	for _, stem := range stems {
		out = append(out, *byStem[stem])
	}
	return out
}

// RegionOf returns, for every gate, the stem heading its fanout-free
// region.
func (c *Circuit) RegionOf() []int {
	regionOf := make([]int, len(c.gates))
	for i := len(c.order) - 1; i >= 0; i-- {
		id := c.order[i]
		if c.IsStem(id) {
			regionOf[id] = id
		} else {
			regionOf[id] = regionOf[c.fanout[c.fanoutStart[id]]]
		}
	}
	return regionOf
}

// FaninCone returns all gate IDs (including roots and the target) in the
// transitive fanin of id, in topological order.
func (c *Circuit) FaninCone(id int) []int {
	seen := make(map[int]bool)
	var stack []int
	stack = append(stack, id)
	seen[id] = true
	for len(stack) > 0 {
		g := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, f := range c.gates[g].Fanin {
			if !seen[f] {
				seen[f] = true
				stack = append(stack, f)
			}
		}
	}
	cone := make([]int, 0, len(seen))
	for _, g := range c.order {
		if seen[g] {
			cone = append(cone, g)
		}
	}
	return cone
}

// FanoutCone returns all gate IDs (including the source) in the transitive
// fanout of id, in topological order.
func (c *Circuit) FanoutCone(id int) []int {
	seen := make(map[int]bool)
	stack := []int{id}
	seen[id] = true
	for len(stack) > 0 {
		g := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, s := range c.Fanout(g) {
			if !seen[s] {
				seen[s] = true
				stack = append(stack, s)
			}
		}
	}
	cone := make([]int, 0, len(seen))
	for _, g := range c.order {
		if seen[g] {
			cone = append(cone, g)
		}
	}
	return cone
}

// HasReconvergentFanout reports whether any stem's fanout branches
// reconverge at a common gate, the structural property that makes optimal
// test point insertion NP-complete.
func (c *Circuit) HasReconvergentFanout() bool {
	// A stem s is reconvergent if two distinct fanout branches both reach
	// some gate. Equivalently, walking the fanout cone of s, some gate is
	// reachable from two different immediate successors of s.
	mark := make([]int, len(c.gates)) // bitmask of branch indices (capped)
	for id := range c.gates {
		outs := c.Fanout(id)
		if len(outs) < 2 {
			continue
		}
		for i := range mark {
			mark[i] = 0
		}
		// Propagate per-branch bits forward in topological order.
		limit := len(outs)
		if limit > 62 {
			limit = 62
		}
		for b := 0; b < limit; b++ {
			mark[outs[b]] |= 1 << b
		}
		for _, g := range c.order {
			if c.level[g] <= c.level[id] {
				continue
			}
			m := mark[g]
			for _, f := range c.gates[g].Fanin {
				m |= mark[f]
			}
			if m != 0 && m&(m-1) != 0 {
				return true // two branch bits met
			}
			mark[g] = m
		}
	}
	return false
}
