// Package repro is an open-source reconstruction of B. Krishnamurthy,
// "A Dynamic Programming Approach to the Test Point Insertion Problem"
// (Proc. Design Automation Conference, 1987): budget-constrained test
// point insertion for combinational circuits, solved exactly by dynamic
// programming on fanout-free circuits and shown NP-complete — and
// attacked heuristically — in the presence of reconvergent fanout.
//
// The package is a facade over the internal implementation, exposing what
// a downstream DFT user needs:
//
//   - circuit construction (Builder), .bench I/O, and benchmark generators
//   - the stuck-at fault model with structural collapsing
//   - a bit-parallel fault simulator and LFSR/counter/vector pattern
//     sources
//   - COP testability analysis and the Hayes–Friedman test-count theory
//   - the test point planners: exact DP, greedy, random, exhaustive, for
//     both the minimax test-count objective (full cuts) and the
//     detection-probability coverage objective (observation points), plus
//     control point selection and the combined hybrid flow
//   - a PODEM ATPG for deterministic top-up vectors and redundancy proofs
//
// See DESIGN.md for the reconstruction provenance (including the
// paper-text mismatch notice) and EXPERIMENTS.md for the reproduced
// evaluation.
package repro

import (
	"context"
	"io"

	"repro/internal/atpg"
	"repro/internal/bench"
	"repro/internal/fault"
	"repro/internal/fsim"
	"repro/internal/gen"
	"repro/internal/implic"
	"repro/internal/lint"
	"repro/internal/logic"
	"repro/internal/netlist"
	"repro/internal/npc"
	"repro/internal/pattern"
	"repro/internal/scan"
	"repro/internal/testability"
	"repro/internal/testcount"
	"repro/internal/tpi"
	"repro/internal/vlog"
)

// Circuit is a validated gate-level combinational circuit.
type Circuit = netlist.Circuit

// Builder constructs circuits programmatically.
type Builder = netlist.Builder

// GateType enumerates the primitive gate functions.
type GateType = netlist.GateType

// Gate types.
const (
	Input = netlist.Input
	Buf   = netlist.Buf
	Not   = netlist.Not
	And   = netlist.And
	Nand  = netlist.Nand
	Or    = netlist.Or
	Nor   = netlist.Nor
	Xor   = netlist.Xor
	Xnor  = netlist.Xnor
)

// TestPoint is a placement decision produced by the planners.
type TestPoint = netlist.TestPoint

// TestPointKind selects observation, control-0, control-1, or full-cut
// insertion.
type TestPointKind = netlist.TestPointKind

// Test point kinds.
const (
	Observe  = netlist.Observe
	Control0 = netlist.Control0
	Control1 = netlist.Control1
	FullCut  = netlist.FullCut
)

// NewBuilder returns an empty circuit builder.
func NewBuilder(name string) *Builder { return netlist.NewBuilder(name) }

// ParseBench reads an ISCAS'85-style .bench netlist.
func ParseBench(r io.Reader, name string) (*Circuit, error) { return bench.Parse(r, name) }

// WriteBench writes a circuit in .bench format.
func WriteBench(w io.Writer, c *Circuit) error { return bench.Write(w, c) }

// ParseVerilog reads a structural Verilog module (primitive gates only).
func ParseVerilog(r io.Reader) (*Circuit, error) { return vlog.Parse(r) }

// WriteVerilog writes a circuit as a structural Verilog module.
func WriteVerilog(w io.Writer, c *Circuit) error { return vlog.Write(w, c) }

// LintReport is the result of a static-analysis run over a circuit.
type LintReport = lint.Report

// LintFinding is one static-analysis diagnostic.
type LintFinding = lint.Finding

// LintOptions configures the static analyzer; the zero value runs every
// pass with the default thresholds.
type LintOptions = lint.Options

// LintSeverity grades a lint finding.
type LintSeverity = lint.Severity

// Lint severities.
const (
	LintInfo    = lint.Info
	LintWarning = lint.Warning
	LintError   = lint.Error
)

// Lint statically analyzes the circuit without simulating a single
// pattern: structural hygiene, proven-constant lines (and the stuck-at
// faults they make untestable), duplicated cones, COP-ranked
// random-pattern-resistant stems, and the fanout-free / reconvergence
// structure that decides which planner applies. See cmd/lint for the CLI.
func Lint(c *Circuit, opts LintOptions) *LintReport { return lint.Analyze(c, opts) }

// ScanDesign is a full-scan design: a combinational core plus scanned
// flip-flops and a test-time model.
type ScanDesign = scan.Design

// ParseSequentialBench reads a sequential .bench netlist (DFF gates) and
// returns its full-scan transformation.
func ParseSequentialBench(r io.Reader, name string, chains int) (*ScanDesign, error) {
	return scan.ParseSequentialBench(r, name, chains)
}

// Fault is one single stuck-at fault.
type Fault = fault.Fault

// Faults enumerates the collapsed stuck-at fault universe of a circuit.
func Faults(c *Circuit) []Fault { return fault.CollapsedUniverse(c) }

// AllFaults enumerates the uncollapsed fault universe.
func AllFaults(c *Circuit) []Fault { return fault.Universe(c) }

// FaultsDominance enumerates the equivalence-plus-dominance collapsed
// fault list, the smallest standard target set for test generation.
func FaultsDominance(c *Circuit) []Fault { return fault.CollapseWithDominance(c) }

// ImplicationEngine is the static implication engine: direct and learned
// (SOCRATES-style) implications, dominator analysis, proven constants,
// and statically-proven-redundant faults.
type ImplicationEngine = implic.Engine

// ImplicationOptions configures the engine; the zero value learns with
// the default number of rounds.
type ImplicationOptions = implic.Options

// Implications builds the static implication engine for a circuit.
func Implications(c *Circuit) *ImplicationEngine { return implic.New(c, implic.Options{}) }

// StaticRedundantFaults returns the stuck-at faults proven untestable by
// static implication analysis alone — no test pattern search involved.
// Every returned fault is genuinely redundant (PODEM-confirmed in the
// cross-check tests); the converse does not hold.
func StaticRedundantFaults(c *Circuit) []Fault {
	return implic.New(c, implic.Options{}).RedundantFaults()
}

// FaultsStatic enumerates the smallest fault list the static analyses
// can produce: equivalence-plus-dominance collapsing with every class
// containing a statically redundant fault removed.
func FaultsStatic(c *Circuit) []Fault {
	return implic.New(c, implic.Options{}).Collapse()
}

// PatternSource produces 64-pattern blocks for the fault simulator.
type PatternSource = pattern.Source

// NewLFSR returns a 64-bit maximal-length LFSR pattern source.
func NewLFSR(seed uint64) PatternSource { return pattern.NewLFSR(seed) }

// NewCounter returns an exhaustive pattern source for n-input circuits.
func NewCounter(n int) PatternSource { return pattern.NewCounter(n) }

// NewVectors returns a source replaying explicit test vectors.
func NewVectors(vecs [][]bool) PatternSource { return pattern.NewVectors(vecs) }

// ParseVectors reads test vectors in plain text form (one 0/1 string per
// line).
func ParseVectors(r io.Reader) ([][]bool, error) { return pattern.ParseVectorText(r) }

// WriteVectors writes test vectors in the format ParseVectors reads.
func WriteVectors(w io.Writer, vecs [][]bool) error { return pattern.WriteVectorText(w, vecs) }

// SimOptions configures fault simulation.
type SimOptions = fsim.Options

// SimResult reports a fault simulation run.
type SimResult = fsim.Result

// Simulate fault-simulates the fault list under the pattern source.
func Simulate(c *Circuit, faults []Fault, src PatternSource, opts SimOptions) (*SimResult, error) {
	return fsim.Run(c, faults, src, opts)
}

// SimulateContext is Simulate with cancellation: once ctx is done the
// run stops within 256 faults of work, returning the partial result
// alongside ctx.Err() (see fsim.RunContext for what it holds).
func SimulateContext(ctx context.Context, c *Circuit, faults []Fault, src PatternSource, opts SimOptions) (*SimResult, error) {
	return fsim.RunContext(ctx, c, faults, src, opts)
}

// SimulateDefault runs the collapsed universe for 32768 LFSR-style
// patterns with fault dropping.
func SimulateDefault(c *Circuit, src PatternSource) (*SimResult, error) {
	return fsim.RunDefault(c, src)
}

// LogicSim is the 64-way bit-parallel logic simulator.
type LogicSim = logic.Simulator

// NewLogicSim returns a simulator for the circuit.
func NewLogicSim(c *Circuit) *LogicSim { return logic.New(c) }

// COP holds controllability/observability probabilities.
type COP = testability.COP

// COPOptions configures the analysis.
type COPOptions = testability.COPOptions

// NewCOP computes COP measures (exact on fanout-free circuits).
func NewCOP(c *Circuit, opts COPOptions) *COP { return testability.NewCOP(c, opts) }

// NewCOPMeasured computes COP measures with controllabilities measured
// by logic simulation, capturing the reconvergence correlation the
// analytic forward pass misses.
func NewCOPMeasured(c *Circuit, src PatternSource, patterns int, opts COPOptions) (*COP, error) {
	return testability.NewCOPMeasured(c, src, patterns, opts)
}

// TestCounts holds the Hayes–Friedman minimal test counts of a
// fanout-free circuit.
type TestCounts = testcount.Counts

// ComputeTestCounts evaluates the test-count recurrences (fanout-free
// unate circuits only).
func ComputeTestCounts(c *Circuit) (*TestCounts, error) { return testcount.Compute(c) }

// CutPlan is a P1 (full test point / minimax test count) planning result.
type CutPlan = tpi.CutPlan

// PlanCuts computes the optimal K-cut placement by dynamic programming.
func PlanCuts(c *Circuit, k int) (*CutPlan, error) { return tpi.PlanCutsDP(c, k) }

// PlanCutsGreedy is the greedy baseline for P1.
func PlanCutsGreedy(c *Circuit, k int) (*CutPlan, error) { return tpi.PlanCutsGreedy(c, k) }

// CostFunc assigns integer insertion costs to signals for the weighted
// planner.
type CostFunc = tpi.CostFunc

// PlanCutsWeighted is PlanCuts under a per-signal cost model: total
// insertion cost may not exceed the budget.
func PlanCutsWeighted(c *Circuit, budget int, cost CostFunc) (*CutPlan, error) {
	return tpi.PlanCutsDPWithCost(c, budget, cost)
}

// OPPlan is a P2 (observation point / detection threshold) planning
// result.
type OPPlan = tpi.OPPlan

// OPOptions configures observation point planning.
type OPOptions = tpi.OPOptions

// PlanObservationPoints selects at most k observation points by the exact
// per-region tree DP with budget knapsacking (optimal on fanout-free
// circuits).
func PlanObservationPoints(c *Circuit, faults []Fault, k int, dth float64, opts OPOptions) (*OPPlan, error) {
	return tpi.PlanObservationPointsDP(c, faults, k, dth, opts)
}

// CPPlan is a control point selection result.
type CPPlan = tpi.CPPlan

// CPOptions configures control point selection.
type CPOptions = tpi.CPOptions

// PlanControlPoints greedily selects control points that lift hard faults
// over the detection threshold.
func PlanControlPoints(c *Circuit, faults []Fault, k int, dth float64, opts CPOptions) (*CPPlan, error) {
	return tpi.PlanControlPointsGreedy(c, faults, k, dth, opts)
}

// HybridPlan combines control and observation point stages.
type HybridPlan = tpi.HybridPlan

// PlanTestPoints runs the full flow: greedy control points then DP
// observation points; the returned plan carries the modified circuit.
func PlanTestPoints(c *Circuit, faults []Fault, nCP, nOP int, dth float64) (*HybridPlan, error) {
	return tpi.PlanHybrid(c, faults, nCP, nOP, dth, tpi.CPOptions{}, tpi.OPOptions{})
}

// PlanTestPointsContext is PlanTestPoints with cancellation: both the
// greedy control point stage and the observation point DP poll ctx and
// abandon planning promptly once it is done (no partial plan is
// returned).
func PlanTestPointsContext(ctx context.Context, c *Circuit, faults []Fault, nCP, nOP int, dth float64) (*HybridPlan, error) {
	return tpi.PlanHybridContext(ctx, c, faults, nCP, nOP, dth, tpi.CPOptions{}, tpi.OPOptions{})
}

// ATPGOptions configures the PODEM test generator.
type ATPGOptions = atpg.Options

// ATPGResult reports one PODEM run.
type ATPGResult = atpg.Result

// TestSet is a compacted deterministic test set.
type TestSet = atpg.TestSet

// GenerateTest runs PODEM for a single fault.
func GenerateTest(c *Circuit, f Fault, opts ATPGOptions) (*ATPGResult, error) {
	return atpg.Generate(c, f, opts)
}

// GenerateTests produces a compacted deterministic test set for the fault
// list.
func GenerateTests(c *Circuit, faults []Fault, opts ATPGOptions) (*TestSet, error) {
	return atpg.GenerateTests(c, faults, opts)
}

// GenerateTestsContext is GenerateTests with cancellation: the PODEM
// backtrack loop polls ctx, and on cancellation the partial test set
// over faults processed so far is returned alongside ctx.Err().
func GenerateTestsContext(ctx context.Context, c *Circuit, faults []Fault, opts ATPGOptions) (*TestSet, error) {
	return atpg.GenerateTestsContext(ctx, c, faults, opts)
}

// CompactTests statically compacts a test set (reverse-order pruning)
// without losing coverage over the fault list.
func CompactTests(c *Circuit, faults []Fault, vecs [][]bool) [][]bool {
	return atpg.CompactTests(c, faults, vecs)
}

// SetCover is an instance of the Set Cover problem used by the hardness
// reduction.
type SetCover = npc.SetCover

// ReduceSetCover builds the TPI gadget circuit for a Set Cover instance,
// demonstrating NP-completeness of general test point insertion.
func ReduceSetCover(sc SetCover) (*npc.Reduction, error) { return npc.Reduce(sc) }

// SolveSetCoverExact returns the exact minimum cover size by branch and
// bound (the reference answer for the reduction experiments).
func SolveSetCoverExact(sc SetCover) int { return npc.SolveSetCoverExact(sc) }

// RandomSetCover generates a random coverable Set Cover instance.
func RandomSetCover(seed int64, elements, sets, maxSetSize int) SetCover {
	return npc.RandomInstance(seed, elements, sets, maxSetSize)
}

// Benchmark circuit generators (all deterministic in their parameters).
var (
	// C17 returns the ISCAS'85 c17 benchmark.
	C17 = gen.C17
	// RandomTree generates a fanout-free unate circuit.
	RandomTree = gen.RandomTree
	// RandomDAG generates a reconvergent random circuit.
	RandomDAG = gen.RandomDAG
	// AndCone generates the canonical random-pattern-resistant AND cone.
	AndCone = gen.AndCone
	// ParityTree generates a balanced XOR tree.
	ParityTree = gen.ParityTree
	// RippleCarryAdder generates a ripple-carry adder.
	RippleCarryAdder = gen.RippleCarryAdder
	// Comparator generates an equality comparator.
	Comparator = gen.Comparator
	// Decoder generates an n-to-2^n decoder.
	Decoder = gen.Decoder
	// Multiplier generates an array multiplier.
	Multiplier = gen.Multiplier
	// RPResistant embeds resistant AND cones in random glue logic.
	RPResistant = gen.RPResistant
	// BarrelShifter generates a logarithmic barrel shifter.
	BarrelShifter = gen.BarrelShifter
	// ALUSlice generates a small ALU with a 2-bit opcode.
	ALUSlice = gen.ALUSlice
)

// TreeOptions parameterises RandomTree.
type TreeOptions = gen.TreeOptions

// DAGOptions parameterises RandomDAG.
type DAGOptions = gen.DAGOptions
