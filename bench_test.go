package repro

import (
	"testing"

	"repro/internal/cpt"
	"repro/internal/dsim"
	"repro/internal/exp"
	"repro/internal/fault"
	"repro/internal/fsim"
	"repro/internal/pattern"
	"repro/internal/testability"
	"repro/internal/tpi"
)

// One benchmark per experiment (E1..E8 of DESIGN.md), measuring the
// computational kernel that regenerates the corresponding table or
// figure, plus micro-benchmarks of the substrates. Quick-mode workloads
// keep `go test -bench=.` tractable; cmd/experiments runs the full sizes.

var benchCfg = exp.Config{Quick: true}

func BenchmarkE1TestCount(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exp.E1TestCounts(benchCfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE2DPInsertion(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exp.E2Insertion(benchCfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE3Sweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exp.E3Sweep(benchCfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE4Coverage(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exp.E4Coverage(benchCfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE5Curve(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exp.E5Curve(benchCfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE6Scaling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exp.E6Scaling(benchCfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE7Reduction(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exp.E7Reduction(benchCfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE8Ablations(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exp.E8Ablations(benchCfg); err != nil {
			b.Fatal(err)
		}
	}
}

// --- substrate micro-benchmarks ---

// BenchmarkFaultSim measures raw fault simulator throughput: collapsed
// universe of a 1000-gate reconvergent circuit, 4096 LFSR patterns with
// dropping.
func BenchmarkFaultSim(b *testing.B) {
	c := RandomDAG(1, 32, 1000, DAGOptions{})
	faults := fault.CollapsedUniverse(c)
	b.ReportMetric(float64(len(faults)), "faults")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fsim.Run(c, faults, pattern.NewLFSR(7), fsim.Options{MaxPatterns: 4096, DropFaults: true}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFaultSimNoDrop is the ablation partner of BenchmarkFaultSim.
func BenchmarkFaultSimNoDrop(b *testing.B) {
	c := RandomDAG(1, 32, 1000, DAGOptions{})
	faults := fault.CollapsedUniverse(c)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fsim.Run(c, faults, pattern.NewLFSR(7), fsim.Options{MaxPatterns: 4096, DropFaults: false}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLogicSim measures good-circuit bit-parallel throughput on an
// 8-bit multiplier (64 patterns per op).
func BenchmarkLogicSim(b *testing.B) {
	c := Multiplier(8)
	src := pattern.NewLFSR(3)
	words := make([]uint64, c.NumInputs())
	sim := NewLogicSim(c)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src.FillBlock(words)
		if err := sim.Run(words); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOPDP measures observation point planning on a 1000-gate
// reconvergent circuit at K=8.
func BenchmarkOPDP(b *testing.B) {
	c := RandomDAG(2, 32, 1000, DAGOptions{})
	faults := fault.CollapsedUniverse(c)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tpi.PlanObservationPointsDP(c, faults, 8, 1.0/8192, tpi.OPOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCOP measures testability analysis on a 2000-gate circuit.
func BenchmarkCOP(b *testing.B) {
	c := RandomDAG(3, 64, 2000, DAGOptions{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		testability.NewCOP(c, testability.COPOptions{})
	}
}

// BenchmarkPODEM measures deterministic test generation over the full
// collapsed universe of c17-scale and adder-scale circuits.
func BenchmarkPODEM(b *testing.B) {
	c := RippleCarryAdder(8)
	faults := fault.CollapsedUniverse(c)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := GenerateTests(c, faults, ATPGOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCollapse measures fault collapsing on a 5000-gate circuit.
func BenchmarkCollapse(b *testing.B) {
	c := RandomDAG(4, 64, 5000, DAGOptions{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fault.CollapsedUniverse(c)
	}
}

// BenchmarkDeductiveSim measures the deductive engine on the same
// workload class as BenchmarkFaultSim (smaller, as befits a
// one-pattern-at-a-time algorithm).
func BenchmarkDeductiveSim(b *testing.B) {
	c := RandomDAG(1, 16, 300, DAGOptions{})
	faults := fault.Universe(c)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dsim.Run(c, faults, pattern.NewLFSR(7), dsim.Options{MaxPatterns: 512, DropFaults: true}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCriticalPathTracing measures the CPT engine on the same
// workload as BenchmarkDeductiveSim.
func BenchmarkCriticalPathTracing(b *testing.B) {
	c := RandomDAG(1, 16, 300, DAGOptions{})
	faults := fault.Universe(c)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cpt.Run(c, faults, pattern.NewLFSR(7), cpt.Options{MaxPatterns: 512, DropFaults: true}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFaultSimParallel measures the multi-goroutine PPSFP wrapper.
func BenchmarkFaultSimParallel(b *testing.B) {
	c := RandomDAG(1, 32, 1000, DAGOptions{})
	faults := fault.CollapsedUniverse(c)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := fsim.RunParallel(c, faults, func() pattern.Source { return pattern.NewLFSR(7) }, 0,
			fsim.Options{MaxPatterns: 4096, DropFaults: true})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBISTSession measures the literal MISR-compacted session.
func BenchmarkBISTSession(b *testing.B) {
	c := Comparator(10)
	faults := fault.CollapsedUniverse(c)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunBIST(c, faults, NewLFSR(3), 512); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE9ScanTestTime benchmarks the extension experiment's kernel.
func BenchmarkE9ScanTestTime(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exp.E9ScanTestTime(benchCfg); err != nil {
			b.Fatal(err)
		}
	}
}
