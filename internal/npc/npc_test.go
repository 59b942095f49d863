package npc

import (
	"reflect"
	"sort"
	"testing"

	"repro/internal/fault"
	"repro/internal/fsim"
	"repro/internal/pattern"
)

func TestReductionGadgetShape(t *testing.T) {
	sc := SetCover{NumElements: 4, Sets: [][]int{{0, 1}, {1, 2, 3}, {0, 3}}, K: 2}
	red, err := Reduce(sc)
	if err != nil {
		t.Fatal(err)
	}
	c := red.Circuit
	// Inputs: 4 elements + blocker t. Gates: 4 buffers + XOR trees
	// (1 + 2 + 1 XORs) + 3 set buffers + NOT + AND.
	if c.NumInputs() != 5 {
		t.Errorf("inputs = %d, want 5", c.NumInputs())
	}
	if len(red.Candidates) != 3 || len(red.TargetFaults) != 4 {
		t.Errorf("candidates/targets = %d/%d", len(red.Candidates), len(red.TargetFaults))
	}
	if !c.HasReconvergentFanout() {
		t.Error("the blocker must make the gadget reconvergent")
	}
}

func TestBlockerHidesFaults(t *testing.T) {
	sc := SetCover{NumElements: 3, Sets: [][]int{{0, 1}, {1, 2}}, K: 1}
	red, err := Reduce(sc)
	if err != nil {
		t.Fatal(err)
	}
	// Without observation points nothing is detectable, even exhaustively.
	res, err := fsim.Run(red.Circuit, red.TargetFaults, pattern.NewCounter(red.Circuit.NumInputs()), fsim.Options{
		MaxPatterns: 1 << uint(red.Circuit.NumInputs()),
		DropFaults:  true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.FirstDetect) != 0 {
		t.Errorf("blocker leaked: %d target faults detected without OPs", len(res.FirstDetect))
	}
}

func TestDetectsMatchesSetMembership(t *testing.T) {
	sc := SetCover{NumElements: 4, Sets: [][]int{{0, 1}, {1, 2, 3}, {0, 3}}, K: 2}
	red, err := Reduce(sc)
	if err != nil {
		t.Fatal(err)
	}
	for j, s := range sc.Sets {
		det, err := red.Detects([]int{j})
		if err != nil {
			t.Fatal(err)
		}
		inSet := make(map[int]bool)
		for _, e := range s {
			inSet[e] = true
		}
		for e, d := range det {
			if d != inSet[e] {
				t.Errorf("set %d: element %d detected=%v, member=%v", j, e, d, inSet[e])
			}
		}
	}
}

func TestFeasibleMatchesCover(t *testing.T) {
	sc := SetCover{NumElements: 4, Sets: [][]int{{0, 1}, {1, 2, 3}, {0, 3}}, K: 2}
	red, err := Reduce(sc)
	if err != nil {
		t.Fatal(err)
	}
	// {0,1} ∪ {1,2,3} covers everything; {0,1} ∪ {0,3} misses 2.
	if ok, _ := red.Feasible([]int{0, 1}); !ok {
		t.Error("cover {S0,S1} reported infeasible")
	}
	if ok, _ := red.Feasible([]int{0, 2}); ok {
		t.Error("non-cover {S0,S2} reported feasible")
	}
}

func TestTPIMinimumEqualsSetCoverMinimum(t *testing.T) {
	// The reduction's correctness property, checked end-to-end through the
	// fault simulator on random instances.
	for seed := int64(0); seed < 8; seed++ {
		sc := RandomInstance(seed, 6, 5, 3)
		red, err := Reduce(sc)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		wantK := SolveSetCoverExact(sc)
		gotK, chosen, err := red.SolveTPIBruteForce()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if gotK != wantK {
			t.Errorf("seed %d: TPI minimum %d != set cover minimum %d", seed, gotK, wantK)
		}
		// The returned TPI solution must itself be a cover.
		covered := make([]bool, sc.NumElements)
		for _, j := range chosen {
			for _, e := range sc.Sets[j] {
				covered[e] = true
			}
		}
		for e, ok := range covered {
			if !ok {
				t.Errorf("seed %d: TPI solution leaves element %d uncovered", seed, e)
			}
		}
	}
}

func TestValidateRejectsBadInstances(t *testing.T) {
	cases := []SetCover{
		{NumElements: 0, Sets: [][]int{{0}}},
		{NumElements: 2, Sets: nil},
		{NumElements: 2, Sets: [][]int{{}}},
		{NumElements: 2, Sets: [][]int{{0, 5}}},
		{NumElements: 3, Sets: [][]int{{0, 1}}}, // element 2 uncoverable
	}
	for i, sc := range cases {
		if err := sc.Validate(); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
}

// TestRandomInstanceAlwaysValid: every instance validates, lists each
// set in ascending order and repeats for its seed. The sets of up to 40
// members tell the orders apart.
func TestRandomInstanceAlwaysValid(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		for _, shape := range [][3]int{{8, 6, 4}, {60, 6, 40}} {
			sc := RandomInstance(seed, shape[0], shape[1], shape[2])
			if err := sc.Validate(); err != nil {
				t.Errorf("seed %d %v: %v", seed, shape, err)
			}
			for j, set := range sc.Sets {
				if !sort.IntsAreSorted(set) {
					t.Errorf("seed %d %v: set %d = %v, not ascending", seed, shape, j, set)
				}
			}
			if again := RandomInstance(seed, shape[0], shape[1], shape[2]); !reflect.DeepEqual(again, sc) {
				t.Errorf("seed %d %v: instances differ:\n%v\n%v", seed, shape, sc.Sets, again.Sets)
			}
		}
	}
}

func TestGadgetSizePolynomial(t *testing.T) {
	small := RandomInstance(1, 5, 4, 3)
	big := RandomInstance(1, 20, 16, 6)
	rs, err := Reduce(small)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := Reduce(big)
	if err != nil {
		t.Fatal(err)
	}
	// Gate count must scale like elements + total set size, far below
	// exponential.
	bound := 3 * (big.NumElements + totalSize(big) + len(big.Sets) + 5)
	if rb.Circuit.NumGates() > bound {
		t.Errorf("gadget size %d exceeds linear bound %d", rb.Circuit.NumGates(), bound)
	}
	if rb.Circuit.NumGates() <= rs.Circuit.NumGates() {
		t.Error("bigger instance produced smaller gadget")
	}
}

func totalSize(sc SetCover) int {
	n := 0
	for _, s := range sc.Sets {
		n += len(s)
	}
	return n
}

func TestTargetFaultsAreStemFaults(t *testing.T) {
	red, err := Reduce(SetCover{NumElements: 2, Sets: [][]int{{0}, {1}}})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range red.TargetFaults {
		if !f.IsStem() || !f.Stuck {
			t.Errorf("target fault %v should be a stem s-a-1", f)
		}
	}
	_ = fault.Universe(red.Circuit) // the gadget is a normal circuit
}
