package tpi

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/cli"
	"repro/internal/fault"
	"repro/internal/gen"
	"repro/internal/netlist"
)

// redundantCircuit embeds one statically redundant fault: n1 s-a-0 in
// n1 = AND(a,b); z = OR(n1, a) (exciting it forces the dominator's side
// input a to the OR's controlling value).
func redundantCircuit() *netlist.Circuit {
	b := netlist.NewBuilder("red")
	a := b.Input("a")
	x := b.Input("b")
	n1 := b.AndGate("n1", a, x)
	z := b.OrGate("z", n1, a)
	b.MarkOutput(z)
	return b.MustBuild()
}

func TestPruneFaultsDropsRedundant(t *testing.T) {
	c := redundantCircuit()
	all := fault.Universe(c)
	kept, pruned := PruneFaults(c, all)
	if pruned == 0 {
		t.Fatalf("expected redundant faults to be pruned from %d", len(all))
	}
	if len(kept)+pruned != len(all) {
		t.Errorf("kept %d + pruned %d != universe %d", len(kept), pruned, len(all))
	}
	n1, _ := c.GateByName("n1")
	for _, f := range kept {
		if f == (fault.Fault{Gate: n1, Pin: -1, Stuck: false}) {
			t.Errorf("n1 s-a-0 survived the prune")
		}
	}
}

func TestPruneFaultsNoopOnC17(t *testing.T) {
	c := gen.C17()
	all := fault.Universe(c)
	kept, pruned := PruneFaults(c, all)
	if pruned != 0 || len(kept) != len(all) {
		t.Errorf("c17 has no redundant faults; pruned %d of %d", pruned, len(all))
	}
}

func TestPlanHybridReportsPrunedFaults(t *testing.T) {
	c := redundantCircuit()
	all := fault.Universe(c)
	h, err := PlanHybrid(c, all, 1, 1, 1.0/64, CPOptions{}, OPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if h.PrunedFaults == 0 {
		t.Errorf("PlanHybrid must report the statically pruned faults")
	}
	if h.Observe.TotalFaults != len(all)-h.PrunedFaults {
		t.Errorf("observation stage targeted %d faults, want %d", h.Observe.TotalFaults, len(all)-h.PrunedFaults)
	}
}

// TestDPSkipsFaultFreeRegions pins the pre-prune contract: planning
// against a fault list confined to one cone must not place points in
// fault-free regions, and must agree with the un-skipped model.
func TestDPSkipsFaultFreeRegions(t *testing.T) {
	c := gen.RippleCarryAdder(4)
	all := fault.Universe(c)
	some := all[:6] // faults on the first few gates only
	plan, err := PlanObservationPointsDP(c, some, 2, 1.0/16, OPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := ModelCoveredCount(c, some, plan.Points, 1.0/16, OPOptions{}); got != plan.CoveredAfter {
		t.Errorf("reconstructed placement covers %d, plan claims %d", got, plan.CoveredAfter)
	}
	region := c.RegionOf()
	hasFault := map[int]bool{}
	for _, f := range some {
		hasFault[region[f.Gate]] = true
	}
	for _, p := range plan.Points {
		if !hasFault[region[p]] {
			t.Errorf("observation point %d placed in a fault-free region", p)
		}
	}
}

// TestHybridPrunePollsDeadline pins the hybrid pre-prune's deadline. On
// this circuit the implication build and the redundancy pass take tens
// of seconds; built ctx-less and unpolled, they answered this 200 ms
// deadline after 27 s. Both now poll the plan's context.
func TestHybridPrunePollsDeadline(t *testing.T) {
	c, err := cli.Generate("dag:gates=4000,seed=11")
	if err != nil {
		t.Fatal(err)
	}
	faults := fault.CollapsedUniverse(c)
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = PlanHybridContext(ctx, c, faults, 0, 4, 1.0/4096, CPOptions{}, OPOptions{})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if d := time.Since(start); d > 450*time.Millisecond {
		t.Errorf("deadline of 200ms honoured after %v", d)
	}
}
