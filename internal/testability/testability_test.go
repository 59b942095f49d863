package testability

import (
	"math"
	"testing"

	"repro/internal/fault"
	"repro/internal/fsim"
	"repro/internal/gen"
	"repro/internal/netlist"
	"repro/internal/pattern"
)

// exactDetectProb computes the true detection probability of a fault
// under uniform random patterns by exhaustive fault simulation.
func exactDetectProb(t *testing.T, c *netlist.Circuit, f fault.Fault) float64 {
	t.Helper()
	res, err := fsim.Run(c, []fault.Fault{f}, pattern.NewCounter(c.NumInputs()), fsim.Options{
		MaxPatterns:     1 << uint(c.NumInputs()),
		DropFaults:      false,
		CountDetections: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return float64(res.DetectCount[f]) / float64(uint(1)<<uint(c.NumInputs()))
}

// exactSignalProb computes P(signal=1) exhaustively.
func exactSignalProb(t *testing.T, c *netlist.Circuit, id int) float64 {
	t.Helper()
	n := c.NumInputs()
	count := 0
	vals := make([]bool, c.NumGates())
	in := make([]bool, 0, 8)
	for v := 0; v < 1<<uint(n); v++ {
		for i, pi := range c.Inputs() {
			vals[pi] = v>>uint(i)&1 == 1
		}
		for _, g := range c.TopoOrder() {
			gg := c.Gate(g)
			if gg.Type == netlist.Input {
				continue
			}
			in = in[:0]
			for _, f := range gg.Fanin {
				in = append(in, vals[f])
			}
			vals[g] = gg.Type.Eval(in)
		}
		if vals[id] {
			count++
		}
	}
	return float64(count) / float64(uint(1)<<uint(n))
}

func TestCOPControllabilityExactOnTrees(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		c := gen.RandomTree(seed, 8, gen.TreeOptions{})
		co := NewCOP(c, COPOptions{})
		for id := 0; id < c.NumGates(); id++ {
			want := exactSignalProb(t, c, id)
			if got := co.Controllability(id); math.Abs(got-want) > 1e-9 {
				t.Errorf("tree seed %d gate %s: COP c1=%.6f exact=%.6f", seed, c.GateName(id), got, want)
			}
		}
	}
}

func TestCOPDetectProbExactOnTrees(t *testing.T) {
	// On fanout-free circuits the COP detection probability is exact:
	// excitation and propagation events are independent and the sensitized
	// path is unique.
	for seed := int64(0); seed < 5; seed++ {
		c := gen.RandomTree(seed, 8, gen.TreeOptions{})
		co := NewCOP(c, COPOptions{})
		for _, f := range fault.Universe(c) {
			want := exactDetectProb(t, c, f)
			if got := co.DetectProb(f); math.Abs(got-want) > 1e-9 {
				t.Errorf("tree seed %d fault %s: COP dp=%.6f exact=%.6f", seed, f.Name(c), got, want)
			}
		}
	}
}

func TestCOPXorHandling(t *testing.T) {
	c := gen.ParityTree(5)
	co := NewCOP(c, COPOptions{})
	// Every signal in a balanced XOR tree has P(1)=0.5 and observability 1.
	for id := 0; id < c.NumGates(); id++ {
		if math.Abs(co.Controllability(id)-0.5) > 1e-12 {
			t.Errorf("XOR tree gate %s c1=%.4f, want 0.5", c.GateName(id), co.Controllability(id))
		}
		if math.Abs(co.Observability(id)-1.0) > 1e-12 {
			t.Errorf("XOR tree gate %s obs=%.4f, want 1.0", c.GateName(id), co.Observability(id))
		}
	}
}

func TestCOPAndConeProbabilities(t *testing.T) {
	c := gen.AndCone(8)
	co := NewCOP(c, COPOptions{})
	out := c.Outputs()[0]
	if got, want := co.Controllability(out), math.Pow(0.5, 8); math.Abs(got-want) > 1e-12 {
		t.Errorf("cone output c1=%.8f, want %.8f", got, want)
	}
	// Output s-a-0 detection probability = excitation = 2^-8.
	dp := co.DetectProb(fault.Fault{Gate: out, Pin: -1, Stuck: false})
	if math.Abs(dp-math.Pow(0.5, 8)) > 1e-12 {
		t.Errorf("cone output s-a-0 dp=%.8f", dp)
	}
	// Input s-a-1 observability through the cone: all 7 other inputs at 1.
	in0 := c.Inputs()[0]
	dp = co.DetectProb(fault.Fault{Gate: in0, Pin: -1, Stuck: true})
	if want := 0.5 * math.Pow(0.5, 7); math.Abs(dp-want) > 1e-12 {
		t.Errorf("cone input s-a-1 dp=%.8f, want %.8f", dp, want)
	}
}

func TestCOPBoundsOnReconvergent(t *testing.T) {
	// On reconvergent circuits COP is approximate but must stay in [0,1]
	// and be finite.
	for seed := int64(0); seed < 5; seed++ {
		c := gen.RandomDAG(seed, 10, 80, gen.DAGOptions{})
		for _, mode := range []StemCombine{CombineMax, CombineOr} {
			co := NewCOP(c, COPOptions{Combine: mode})
			for id := 0; id < c.NumGates(); id++ {
				c1 := co.Controllability(id)
				ob := co.Observability(id)
				if c1 < 0 || c1 > 1 || math.IsNaN(c1) {
					t.Fatalf("c1 out of range: %f", c1)
				}
				if ob < 0 || ob > 1 || math.IsNaN(ob) {
					t.Fatalf("obs out of range: %f", ob)
				}
			}
			for _, f := range fault.Universe(c) {
				dp := co.DetectProb(f)
				if dp < 0 || dp > 1 || math.IsNaN(dp) {
					t.Fatalf("dp out of range: %f for %v", dp, f)
				}
			}
		}
	}
}

func TestCombineOrGeqMax(t *testing.T) {
	c := gen.C17()
	max := NewCOP(c, COPOptions{Combine: CombineMax})
	or := NewCOP(c, COPOptions{Combine: CombineOr})
	for id := 0; id < c.NumGates(); id++ {
		if or.Observability(id) < max.Observability(id)-1e-12 {
			t.Errorf("gate %s: or-combined obs %.6f < max-combined %.6f",
				c.GateName(id), or.Observability(id), max.Observability(id))
		}
	}
}

func TestCOPC17AgainstExhaustive(t *testing.T) {
	// c17 is small enough for exact numbers; COP with max-combining should
	// be within coarse tolerance despite reconvergence.
	c := gen.C17()
	co := NewCOP(c, COPOptions{})
	for id := 0; id < c.NumGates(); id++ {
		want := exactSignalProb(t, c, id)
		if got := co.Controllability(id); math.Abs(got-want) > 0.15 {
			t.Errorf("gate %s: COP c1=%.4f exact=%.4f (error too large)", c.GateName(id), got, want)
		}
	}
}

func TestInputProbOption(t *testing.T) {
	b := netlist.NewBuilder("and2")
	a := b.Input("a")
	x := b.Input("b")
	g := b.AndGate("g", a, x)
	b.MarkOutput(g)
	c := b.MustBuild()
	co := NewCOP(c, COPOptions{InputProb: []float64{0.9, 0.8}})
	if got := co.Controllability(g); math.Abs(got-0.72) > 1e-12 {
		t.Errorf("weighted AND c1=%.4f, want 0.72", got)
	}
}

func TestTestLengthMath(t *testing.T) {
	// p=0.5, 99% confidence: N = ln(0.01)/ln(0.5) ≈ 6.64.
	if n := TestLength(0.5, 0.99); math.Abs(n-6.6438) > 0.01 {
		t.Errorf("TestLength(0.5,0.99)=%f", n)
	}
	if !math.IsInf(TestLength(0, 0.99), 1) {
		t.Error("TestLength(0) must be +Inf")
	}
	if n := TestLength(1, 0.99); n != 1 {
		t.Errorf("TestLength(1)=%f, want 1", n)
	}
}

func TestMeasuredCOPMatchesAnalyticOnTrees(t *testing.T) {
	// On fanout-free circuits the analytic c1 is exact, so measured
	// probabilities converge to it (within sampling error).
	c := gen.RandomTree(3, 10, gen.TreeOptions{})
	analytic := NewCOP(c, COPOptions{})
	measured, err := NewCOPMeasured(c, pattern.NewLFSR(5), 1<<16, COPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for id := 0; id < c.NumGates(); id++ {
		if d := math.Abs(analytic.Controllability(id) - measured.Controllability(id)); d > 0.02 {
			t.Errorf("gate %s: measured c1 off by %.4f", c.GateName(id), d)
		}
	}
}

func TestMeasuredCOPBeatsAnalyticUnderReconvergence(t *testing.T) {
	// On reconvergent circuits the measured controllabilities must be at
	// least as accurate in aggregate as the independence-assuming pass.
	c := gen.RandomDAG(4, 10, 60, gen.DAGOptions{})
	analytic := NewCOP(c, COPOptions{})
	measured, err := NewCOPMeasured(c, pattern.NewLFSR(5), 1<<16, COPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var errAnalytic, errMeasured float64
	for id := 0; id < c.NumGates(); id++ {
		exact := exactSignalProb(t, c, id)
		errAnalytic += math.Abs(analytic.Controllability(id) - exact)
		errMeasured += math.Abs(measured.Controllability(id) - exact)
	}
	n := float64(c.NumGates())
	if errMeasured/n > errAnalytic/n+0.005 {
		t.Errorf("measured mean error %.4f worse than analytic %.4f", errMeasured/n, errAnalytic/n)
	}
	t.Logf("mean |c1 error|: analytic %.4f, measured %.4f", errAnalytic/n, errMeasured/n)
}

func TestMeasuredCOPExhaustedSource(t *testing.T) {
	// A counter source exhausts; the constructor must cope.
	c := gen.C17()
	co, err := NewCOPMeasured(c, pattern.NewCounter(5), 1<<10, COPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Exhaustive measurement is exact.
	for id := 0; id < c.NumGates(); id++ {
		if d := math.Abs(co.Controllability(id) - exactSignalProb(t, c, id)); d > 1e-12 {
			t.Errorf("gate %s: exhaustive measured c1 off by %g", c.GateName(id), d)
		}
	}
}
