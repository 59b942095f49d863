package tpi

import (
	"math"
	"reflect"
	"slices"
	"sort"
	"testing"

	"repro/internal/fault"
	"repro/internal/gen"
	"repro/internal/netlist"
)

// referenceObservationPointsGreedy is the observe greedy as it stood
// before one coverage walk scored every candidate: each step evaluates
// the placement once per signal not yet holding an OP. The fuzz target
// below holds PlanObservationPointsGreedy to it.
func referenceObservationPointsGreedy(c *netlist.Circuit, faults []fault.Fault, k int, dth float64, opts OPOptions) (*OPPlan, error) {
	if k < 0 {
		return nil, ErrBudgetNegative
	}
	m := newOPModel(c, faults, opts)
	plan := &OPPlan{
		TotalFaults:   len(faults),
		CoveredBefore: m.coveredCount(nil, dth, nil),
	}
	covered := plan.CoveredBefore
	var ops []int
	for len(ops) < k {
		bestGain, bestSig := 0, -1
		for id := 0; id < c.NumGates(); id++ {
			if slices.Contains(ops, id) {
				continue
			}
			plan.StatesVisited++
			if v := m.coveredCount(append(ops[:len(ops):len(ops)], id), dth, nil); v-covered > bestGain {
				bestGain, bestSig = v-covered, id
			}
		}
		if bestSig < 0 {
			break
		}
		ops = append(ops, bestSig)
		covered += bestGain
	}
	sort.Ints(ops)
	plan.Points = ops
	plan.CoveredAfter = m.coveredCount(ops, dth, nil)
	return plan, nil
}

// FuzzObservePlannersMatchReference plans observation points on a small
// random DAG or tree and checks the greedy against the reference greedy
// field for field, every candidate's gain from one coverage walk against
// evaluating the placement with that candidate added, and the DP
// against the model: its points must re-evaluate to its CoveredAfter,
// which on at most 16 gates at k <= 2 must equal the exhaustive optimum.
// dth is (1 + mant/65536) / 2^(1 + shift%14), from about 2^-14 up to 1.
func FuzzObservePlannersMatchReference(f *testing.F) {
	for seed := int64(0); seed < 12; seed++ {
		f.Add(seed, uint8(2+seed%7), uint8(6+3*seed), uint8(seed%6), uint8(seed), uint16(seed*5000), seed%3 == 0)
	}
	f.Add(int64(7), uint8(4), uint8(10), uint8(2), uint8(3), uint16(0), false)
	f.Add(int64(3), uint8(8), uint8(0), uint8(2), uint8(1), uint16(40000), true)
	f.Fuzz(func(t *testing.T, seed int64, inputs, gates, k, shift uint8, mant uint16, tree bool) {
		var c *netlist.Circuit
		if tree {
			c = gen.RandomTree(seed, 2+int(inputs)%32, gen.TreeOptions{})
		} else {
			c = gen.RandomDAG(seed, 2+int(inputs)%8, 1+int(gates)%48, gen.DAGOptions{})
		}
		budget := int(k) % 6
		dth := math.Ldexp(1+float64(mant)/65536, -1-int(shift)%14)
		faults := fault.CollapsedUniverse(c)

		gr, err := PlanObservationPointsGreedy(c, faults, budget, dth, OPOptions{})
		if err != nil {
			t.Fatal(err)
		}
		ref, err := referenceObservationPointsGreedy(c, faults, budget, dth, OPOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(gr, ref) {
			t.Fatalf("greedy %+v, reference %+v", gr, ref)
		}

		m := newOPModel(c, faults, OPOptions{})
		gain := make([]int, c.NumGates())
		base := m.coveredCount(gr.Points, dth, gain)
		for s := range gain {
			want := 0
			if !slices.Contains(gr.Points, s) {
				want = m.coveredCount(append(slices.Clone(gr.Points), s), dth, nil) - base
			}
			if gain[s] != want {
				t.Fatalf("ops %v: gain[%d] = %d, adding it covers %d more", gr.Points, s, gain[s], want)
			}
		}

		dp, err := PlanObservationPointsDP(c, faults, budget, dth, OPOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if got := m.coveredCount(dp.Points, dth, nil); got != dp.CoveredAfter || len(dp.Points) > budget {
			t.Fatalf("DP points %v (budget %d) cover %d, plan claims %d", dp.Points, budget, got, dp.CoveredAfter)
		}
		if c.NumGates() <= 16 && budget <= 2 {
			ex, err := PlanObservationPointsExhaustive(c, faults, budget, dth, OPOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if dp.CoveredAfter != ex.CoveredAfter {
				t.Fatalf("DP covers %d, exhaustive %d (DP %v, exhaustive %v)", dp.CoveredAfter, ex.CoveredAfter, dp.Points, ex.Points)
			}
		}
	})
}
