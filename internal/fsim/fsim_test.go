package fsim

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/gen"
	"repro/internal/netlist"
	"repro/internal/pattern"
)

// bruteForceDetects evaluates the circuit with and without the fault on a
// single input vector and reports whether any primary output differs.
// This is the oracle the bit-parallel event-driven simulator is tested
// against.
func bruteForceDetects(c *netlist.Circuit, f fault.Fault, vec []bool) bool {
	eval := func(inject bool) []bool {
		vals := make([]bool, c.NumGates())
		for i, in := range c.Inputs() {
			vals[in] = vec[i]
		}
		for _, id := range c.TopoOrder() {
			g := c.Gate(id)
			if g.Type != netlist.Input {
				in := make([]bool, len(g.Fanin))
				for pin, fin := range g.Fanin {
					in[pin] = vals[fin]
					if inject && !f.IsStem() && f.Gate == id && f.Pin == pin {
						in[pin] = f.Stuck
					}
				}
				vals[id] = g.Type.Eval(in)
			}
			if inject && f.IsStem() && f.Gate == id {
				vals[id] = f.Stuck
			}
		}
		return vals
	}
	good := eval(false)
	bad := eval(true)
	for _, o := range c.Outputs() {
		if good[o] != bad[o] {
			return true
		}
	}
	return false
}

// bruteForceFirstDetect returns the first detecting pattern index under an
// exhaustive counter, or -1.
func bruteForceFirstDetect(c *netlist.Circuit, f fault.Fault) int {
	n := c.NumInputs()
	for v := 0; v < 1<<uint(n); v++ {
		vec := make([]bool, n)
		for i := range vec {
			vec[i] = v>>uint(i)&1 == 1
		}
		if bruteForceDetects(c, f, vec) {
			return v
		}
	}
	return -1
}

func checkAgainstBruteForce(t *testing.T, c *netlist.Circuit) {
	t.Helper()
	faults := fault.Universe(c)
	res, err := Run(c, faults, pattern.NewCounter(c.NumInputs()), Options{
		MaxPatterns: 1 << uint(c.NumInputs()),
		DropFaults:  true,
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	for _, f := range faults {
		want := bruteForceFirstDetect(c, f)
		got, detected := res.FirstDetect[f]
		if want < 0 {
			if detected {
				t.Errorf("%s: simulator detected undetectable fault at pattern %d", f.Name(c), got)
			}
			continue
		}
		if !detected {
			t.Errorf("%s: simulator missed fault (brute force detects at %d)", f.Name(c), want)
			continue
		}
		if got != want {
			t.Errorf("%s: first detection at %d, brute force says %d", f.Name(c), got, want)
		}
	}
}

func TestAgainstBruteForceC17(t *testing.T) {
	checkAgainstBruteForce(t, gen.C17())
}

func TestAgainstBruteForceRandomDAGs(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		c := gen.RandomDAG(seed, 8, 30, gen.DAGOptions{})
		checkAgainstBruteForce(t, c)
	}
}

func TestAgainstBruteForceTrees(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		c := gen.RandomTree(seed, 9, gen.TreeOptions{})
		checkAgainstBruteForce(t, c)
	}
}

func TestAgainstBruteForceAdder(t *testing.T) {
	checkAgainstBruteForce(t, gen.RippleCarryAdder(3))
}

func TestExhaustiveCoverageC17IsComplete(t *testing.T) {
	// c17 is fully testable: exhaustive patterns must detect every
	// collapsed fault.
	c := gen.C17()
	res, err := Run(c, fault.CollapsedUniverse(c), pattern.NewCounter(5), Options{MaxPatterns: 32, DropFaults: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Coverage() != 1.0 {
		t.Errorf("c17 exhaustive coverage = %.4f, want 1.0; undetected: %v", res.Coverage(), res.Undetected())
	}
}

func TestDroppingMatchesNoDropping(t *testing.T) {
	c := gen.RandomDAG(3, 10, 60, gen.DAGOptions{})
	faults := fault.CollapsedUniverse(c)
	with, err := Run(c, faults, pattern.NewLFSR(1), Options{MaxPatterns: 2048, DropFaults: true})
	if err != nil {
		t.Fatal(err)
	}
	without, err := Run(c, faults, pattern.NewLFSR(1), Options{MaxPatterns: 2048, DropFaults: false})
	if err != nil {
		t.Fatal(err)
	}
	if len(with.FirstDetect) != len(without.FirstDetect) {
		t.Fatalf("dropping changed detection count: %d vs %d", len(with.FirstDetect), len(without.FirstDetect))
	}
	for f, idx := range with.FirstDetect {
		if without.FirstDetect[f] != idx {
			t.Errorf("%s: first detect %d with dropping, %d without", f.Name(c), idx, without.FirstDetect[f])
		}
	}
}

func TestAndConeResistance(t *testing.T) {
	// The output s-a-0 of a 16-wide AND cone has detection probability
	// 2^-16; 4096 LFSR patterns should almost surely miss it, while the
	// easy input-side faults are caught.
	c := gen.AndCone(16)
	out := c.Outputs()[0]
	hard := fault.Fault{Gate: out, Pin: -1, Stuck: false}
	res, err := Run(c, []fault.Fault{hard}, pattern.NewLFSR(12345), Options{MaxPatterns: 4096, DropFaults: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.FirstDetect) != 0 {
		t.Errorf("hard cone fault detected within 4096 patterns (p=2^-16); suspicious")
	}
	// But it IS detectable: the all-ones pattern detects it.
	vec := make([]bool, 16)
	for i := range vec {
		vec[i] = true
	}
	resv, err := Run(c, []fault.Fault{hard}, pattern.NewVectors([][]bool{vec}), Options{MaxPatterns: 64, DropFaults: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(resv.FirstDetect) != 1 {
		t.Error("all-ones vector must detect the cone output s-a-0")
	}
}

func TestCoverageCurveMonotone(t *testing.T) {
	c := gen.RandomDAG(9, 12, 100, gen.DAGOptions{})
	res, err := RunDefault(c, pattern.NewLFSR(7))
	if err != nil {
		t.Fatal(err)
	}
	curve := res.Curve(1024)
	if len(curve) == 0 {
		t.Fatal("empty curve")
	}
	prev := -1.0
	for _, p := range curve {
		if p.Coverage < prev {
			t.Errorf("coverage curve decreased at %d patterns: %f < %f", p.Patterns, p.Coverage, prev)
		}
		prev = p.Coverage
	}
	if last := curve[len(curve)-1]; last.Patterns != res.Patterns {
		t.Errorf("curve must end at the final pattern count: %d != %d", last.Patterns, res.Patterns)
	}
	if curve[len(curve)-1].Coverage != res.Coverage() {
		t.Errorf("curve endpoint %.4f != coverage %.4f", curve[len(curve)-1].Coverage, res.Coverage())
	}
}

func TestCountDetections(t *testing.T) {
	// In a 2-input AND, output s-a-0 is detected only by pattern 11
	// (1 of 4); input a s-a-1 by pattern 01 (1 of 4).
	b := netlist.NewBuilder("and2")
	a := b.Input("a")
	x := b.Input("b")
	g := b.AndGate("g", a, x)
	b.MarkOutput(g)
	c := b.MustBuild()
	fs := []fault.Fault{
		{Gate: g, Pin: -1, Stuck: false},
		{Gate: a, Pin: -1, Stuck: true},
	}
	res, err := Run(c, fs, pattern.NewCounter(2), Options{MaxPatterns: 4, DropFaults: false, CountDetections: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.DetectCount[fs[0]] != 1 {
		t.Errorf("AND out s-a-0 detect count = %d, want 1", res.DetectCount[fs[0]])
	}
	if res.DetectCount[fs[1]] != 1 {
		t.Errorf("input s-a-1 detect count = %d, want 1", res.DetectCount[fs[1]])
	}
}

func TestMaxPatternsRespected(t *testing.T) {
	c := gen.C17()
	res, err := Run(c, fault.CollapsedUniverse(c), pattern.NewLFSR(1), Options{MaxPatterns: 100, DropFaults: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Patterns != 100 {
		t.Errorf("patterns = %d, want 100", res.Patterns)
	}
	for f, idx := range res.FirstDetect {
		if idx >= 100 {
			t.Errorf("%v detected at %d >= MaxPatterns", f, idx)
		}
	}
}

func TestBadFaultRejected(t *testing.T) {
	c := gen.C17()
	if _, err := Run(c, []fault.Fault{{Gate: 999, Pin: -1}}, pattern.NewLFSR(1), DefaultOptions()); err == nil {
		t.Error("expected error for out-of-range gate")
	}
	if _, err := Run(c, []fault.Fault{{Gate: 0, Pin: 5}}, pattern.NewLFSR(1), DefaultOptions()); err == nil {
		t.Error("expected error for out-of-range pin")
	}
}

// TestRunContextCanceledBeforeFirstBlock pins the poll at the start of
// every block, on a fault list too short to reach the in-block poll: a
// cancelled context stops the run before anything is simulated.
func TestRunContextCanceledBeforeFirstBlock(t *testing.T) {
	c := gen.C17()
	faults := fault.CollapsedUniverse(c)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := RunContext(ctx, c, faults, pattern.NewLFSR(1), Options{MaxPatterns: 1 << 16})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res.Patterns != 0 || len(res.FirstDetect) != 0 {
		t.Fatalf("cancelled run simulated %d patterns, %d detections", res.Patterns, len(res.FirstDetect))
	}
}

// TestRunContextPartialResultValid pins RunContext's contract for a run
// stopped by its deadline, wherever in a block it stops: every
// FirstDetect entry equals the full run's, and every fault the full run
// first detects below Patterns is present.
func TestRunContextPartialResultValid(t *testing.T) {
	c := gen.Multiplier(16)
	faults := fault.CollapsedUniverse(c)
	opts := Options{MaxPatterns: 2048, DropFaults: true}
	start := time.Now()
	full, err := Run(c, faults, pattern.NewLFSR(1), opts)
	if err != nil {
		t.Fatal(err)
	}
	// The first block simulates every fault and dominates the run, so
	// deadlines at fractions of it stop the run at different points
	// inside that block.
	whole := time.Since(start)
	for _, d := range []time.Duration{whole / 50, whole / 10, whole / 3} {
		ctx, cancel := context.WithTimeout(context.Background(), d)
		res, err := RunContext(ctx, c, faults, pattern.NewLFSR(1), opts)
		cancel()
		if err != nil && !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("%v: err = %v", d, err)
		}
		for f, p := range res.FirstDetect {
			if q, ok := full.FirstDetect[f]; !ok || q != p {
				t.Fatalf("%v: %v first detected at %d, full run says %d (%v)", d, f, p, q, ok)
			}
		}
		for f, p := range full.FirstDetect {
			if q, ok := res.FirstDetect[f]; p < res.Patterns && (!ok || q != p) {
				t.Fatalf("%v: %v first detected at %d < Patterns %d, partial run says %d (%v)", d, f, p, res.Patterns, q, ok)
			}
		}
		inBlock := 0
		for _, p := range res.FirstDetect {
			if p >= res.Patterns {
				inBlock++
			}
		}
		t.Logf("%v: stopped after %d patterns (%v); %d of %d detections from the interrupted block", d, res.Patterns, err, inBlock, len(res.FirstDetect))
	}
}
