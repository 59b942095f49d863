package tpi

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/gen"
)

func TestWeightedDPMatchesWeightedExhaustive(t *testing.T) {
	// The cost-aware DP must stay optimal under non-uniform insertion
	// costs.
	for seed := int64(0); seed < 8; seed++ {
		c := gen.RandomTree(seed, 10, gen.TreeOptions{})
		rng := rand.New(rand.NewSource(seed + 77))
		costs := make([]int, c.NumGates())
		for i := range costs {
			costs[i] = 1 + rng.Intn(3) // costs in 1..3
		}
		cost := func(s int) int { return costs[s] }
		for _, budget := range []int{2, 4, 6} {
			dp, err := PlanCutsDPWithCost(c, budget, cost)
			if err != nil {
				t.Fatalf("seed %d budget %d: %v", seed, budget, err)
			}
			ex, err := PlanCutsExhaustiveWithCost(c, budget, cost)
			if err != nil {
				t.Fatal(err)
			}
			if dp.MaxCost != ex.MaxCost {
				t.Errorf("seed %d budget %d: DP %d != exhaustive %d (DP cuts %v, EX cuts %v)",
					seed, budget, dp.MaxCost, ex.MaxCost, dp.Cuts, ex.Cuts)
			}
			// The DP plan must respect the budget.
			spent := 0
			for _, s := range dp.Cuts {
				spent += cost(s)
			}
			if spent > budget {
				t.Errorf("seed %d budget %d: plan spends %d", seed, budget, spent)
			}
			if err := VerifyCutPlan(c, dp); err != nil {
				t.Error(err)
			}
		}
	}
}

func TestWeightedReducesToUnit(t *testing.T) {
	c := gen.RandomTree(9, 30, gen.TreeOptions{})
	for k := 0; k <= 5; k++ {
		plain, err := PlanCutsDP(c, k)
		if err != nil {
			t.Fatal(err)
		}
		weighted, err := PlanCutsDPWithCost(c, k, UnitCost)
		if err != nil {
			t.Fatal(err)
		}
		if plain.MaxCost != weighted.MaxCost {
			t.Errorf("k=%d: unit-cost paths disagree: %d vs %d", k, plain.MaxCost, weighted.MaxCost)
		}
	}
}

func TestWeightedExpensiveSignalsAvoided(t *testing.T) {
	// Make the uniquely-best cut prohibitively expensive; the planner
	// must route around it.
	c := gen.RandomTree(2, 20, gen.TreeOptions{})
	unit, err := PlanCutsDP(c, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(unit.Cuts) == 0 {
		t.Skip("no beneficial single cut on this tree")
	}
	best := unit.Cuts[0]
	cost := func(s int) int {
		if s == best {
			return 100
		}
		return 1
	}
	weighted, err := PlanCutsDPWithCost(c, 1, cost)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range weighted.Cuts {
		if s == best {
			t.Errorf("planner chose the unaffordable signal %d", s)
		}
	}
	// And it can never do better than the unconstrained optimum.
	if weighted.MaxCost < unit.MaxCost {
		t.Errorf("weighted plan beat the unconstrained optimum: %d < %d", weighted.MaxCost, unit.MaxCost)
	}
}

func TestWeightedRejectsBadCosts(t *testing.T) {
	c := gen.RandomTree(1, 10, gen.TreeOptions{})
	if _, err := PlanCutsDPWithCost(c, 3, func(int) int { return 0 }); err == nil {
		t.Error("expected error for zero cost")
	}
	if _, err := PlanCutsDPWithCost(c, -1, UnitCost); err != ErrBudgetNegative {
		t.Errorf("expected ErrBudgetNegative, got %v", err)
	}
	// The DP keeps a state's summed cost in 32 bits, so costs whose
	// total passes that are refused rather than wrapped.
	if _, err := PlanCutsDPWithCost(c, 3, func(int) int { return math.MaxInt32 / 4 }); err == nil {
		t.Error("expected error for costs summing past 32 bits")
	}
}
