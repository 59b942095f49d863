package implic

import (
	"context"
	"testing"

	"repro/internal/fault"
	"repro/internal/gen"
	"repro/internal/netlist"
)

// hybridCircuits are six circuits of the shape servebench's hybrid
// plan-miss class sends: gen.RandomDAG(1–6, 16, 300).
func hybridCircuits() []*netlist.Circuit {
	var out []*netlist.Circuit
	for seed := int64(1); seed <= 6; seed++ {
		out = append(out, gen.RandomDAG(seed, 16, 300, gen.DAGOptions{}))
	}
	return out
}

// BenchmarkBuild times the engine build on the six hybrid circuits; one
// op builds all six. Compare worker counts by running it once with
// GOMAXPROCS=1 and once with GOMAXPROCS=2 in the environment: under Go
// 1.24 a b.Loop benchmark runs the first value of a -cpu list at the
// list's last value, so -cpu 1,2 times two workers twice.
func BenchmarkBuild(b *testing.B) {
	circuits := hybridCircuits()
	b.ReportAllocs()
	for b.Loop() {
		for _, c := range circuits {
			New(c, Options{})
		}
	}
}

// BenchmarkPrune times what the hybrid planner's pre-prune does on the
// six hybrid circuits: the build, then the proofs of the collapsed
// list. One op prunes all six.
func BenchmarkPrune(b *testing.B) {
	circuits := hybridCircuits()
	faults := make([][]fault.Fault, len(circuits))
	for i, c := range circuits {
		faults[i] = fault.CollapsedUniverse(c)
	}
	b.ReportAllocs()
	for b.Loop() {
		for i, c := range circuits {
			if _, err := New(c, Options{}).RedundantAmongContext(context.Background(), faults[i]); err != nil {
				b.Fatal(err)
			}
		}
	}
}
