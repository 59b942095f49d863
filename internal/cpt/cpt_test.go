package cpt

import (
	"testing"
	"testing/quick"

	"repro/internal/fault"
	"repro/internal/fsim"
	"repro/internal/gen"
	"repro/internal/netlist"
	"repro/internal/pattern"
)

func crossValidate(t *testing.T, c *netlist.Circuit, patterns int, seed uint64) {
	t.Helper()
	faults := fault.Universe(c)
	traced, err := Run(c, faults, pattern.NewLFSR(seed), Options{MaxPatterns: patterns, DropFaults: true})
	if err != nil {
		t.Fatalf("cpt: %v", err)
	}
	ppsfp, err := fsim.Run(c, faults, pattern.NewLFSR(seed), fsim.Options{MaxPatterns: patterns, DropFaults: true})
	if err != nil {
		t.Fatalf("fsim: %v", err)
	}
	if len(traced.FirstDetect) != len(ppsfp.FirstDetect) {
		t.Errorf("%s: CPT detects %d, PPSFP %d", c.Name(), len(traced.FirstDetect), len(ppsfp.FirstDetect))
	}
	for f, idx := range ppsfp.FirstDetect {
		ti, ok := traced.FirstDetect[f]
		if !ok {
			t.Errorf("%s: %s missed by CPT (PPSFP at %d)", c.Name(), f.Name(c), idx)
			continue
		}
		if ti != idx {
			t.Errorf("%s: %s first detect %d (CPT) vs %d (PPSFP)", c.Name(), f.Name(c), ti, idx)
		}
	}
	for f := range traced.FirstDetect {
		if _, ok := ppsfp.FirstDetect[f]; !ok {
			t.Errorf("%s: CPT claims %s detected, PPSFP disagrees", c.Name(), f.Name(c))
		}
	}
}

func TestCrossValidateC17(t *testing.T) {
	crossValidate(t, gen.C17(), 256, 3)
}

func TestCrossValidateRandomDAGs(t *testing.T) {
	// Reconvergent circuits exercise the exact stem analysis.
	for seed := int64(0); seed < 8; seed++ {
		crossValidate(t, gen.RandomDAG(seed, 10, 60, gen.DAGOptions{}), 512, uint64(seed)+21)
	}
}

func TestCrossValidateStructured(t *testing.T) {
	crossValidate(t, gen.RippleCarryAdder(5), 512, 13)
	crossValidate(t, gen.ParityTree(9), 256, 14)
	crossValidate(t, gen.Comparator(6), 512, 15)
	crossValidate(t, gen.Multiplier(4), 512, 16)
}

func TestCrossValidateTreesNoStemAnalysis(t *testing.T) {
	// Fanout-free circuits exercise only the local tracing rules.
	for seed := int64(0); seed < 5; seed++ {
		crossValidate(t, gen.RandomTree(seed, 15, gen.TreeOptions{}), 256, uint64(seed)+31)
	}
}

func TestCrossValidateQuickProperty(t *testing.T) {
	f := func(seed int64, lfsrSeed uint64) bool {
		c := gen.RandomDAG(seed%32, 8, 30, gen.DAGOptions{})
		faults := fault.Universe(c)
		traced, err := Run(c, faults, pattern.NewLFSR(lfsrSeed), Options{MaxPatterns: 128, DropFaults: true})
		if err != nil {
			return false
		}
		pp, err := fsim.Run(c, faults, pattern.NewLFSR(lfsrSeed), fsim.Options{MaxPatterns: 128, DropFaults: true})
		if err != nil {
			return false
		}
		if len(traced.FirstDetect) != len(pp.FirstDetect) {
			return false
		}
		for ft, idx := range pp.FirstDetect {
			if traced.FirstDetect[ft] != idx {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestCancellingReconvergence(t *testing.T) {
	// z = XOR(a, a) through explicit fanout: flipping the stem flips both
	// XOR inputs and the output stays 0 — the stem must NOT be critical,
	// though both branches are.
	b := netlist.NewBuilder("cancel")
	a := b.Input("a")
	s := b.BufGate("s", a)
	x1 := b.BufGate("x1", s)
	x2 := b.BufGate("x2", s)
	z := b.XorGate("z", x1, x2)
	b.MarkOutput(z)
	c := b.MustBuild()
	// Both stem faults on s are undetectable (z == 0 always); branch
	// faults into x1/x2 are each detectable... through the XOR they flip
	// exactly one input.
	sid, _ := c.GateByName("s")
	x1id, _ := c.GateByName("x1")
	faults := []fault.Fault{
		{Gate: sid, Pin: -1, Stuck: false},
		{Gate: sid, Pin: -1, Stuck: true},
		{Gate: x1id, Pin: 0, Stuck: false},
		{Gate: x1id, Pin: 0, Stuck: true},
	}
	res, err := Run(c, faults, pattern.NewCounter(1), Options{MaxPatterns: 2, DropFaults: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, det := res.FirstDetect[faults[0]]; det {
		t.Error("stem s-a-0 detected despite cancelling reconvergence")
	}
	if _, det := res.FirstDetect[faults[1]]; det {
		t.Error("stem s-a-1 detected despite cancelling reconvergence")
	}
	if _, det := res.FirstDetect[faults[2]]; !det {
		t.Error("branch s-a-0 into x1 must be detectable")
	}
	if _, det := res.FirstDetect[faults[3]]; !det {
		t.Error("branch s-a-1 into x1 must be detectable")
	}
}

func TestCPTBadFault(t *testing.T) {
	c := gen.C17()
	if _, err := Run(c, []fault.Fault{{Gate: -1, Pin: -1}}, pattern.NewLFSR(1), Options{}); err == nil {
		t.Error("expected error for bad gate")
	}
}
