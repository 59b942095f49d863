package implic

import (
	"bufio"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/gen"
	"repro/internal/netlist"
)

// goldenCircuit is one row of the golden engine table: a generator spec
// in cmd/* syntax and the circuit it names.
type goldenCircuit struct {
	spec  string
	build func() *netlist.Circuit
	// long marks rows whose build takes seconds under -race; they are
	// skipped in short mode.
	long bool
}

func goldenCircuits() []goldenCircuit {
	var out []goldenCircuit
	dag := func(gates int, seed int64, long bool) {
		out = append(out, goldenCircuit{
			spec:  fmt.Sprintf("dag:gates=%d,seed=%d", gates, seed),
			build: func() *netlist.Circuit { return gen.RandomDAG(seed, 16, gates, gen.DAGOptions{}) },
			long:  long,
		})
	}
	for _, seed := range []int64{1, 2, 3} {
		dag(60, seed, false)
	}
	for _, seed := range []int64{1, 2, 3, 7} {
		dag(300, seed, false)
	}
	for _, seed := range []int64{1, 2} {
		dag(1000, seed, true)
	}
	for _, seed := range []int64{1, 2} {
		dag(2000, seed, true)
	}
	out = append(out,
		// With four inputs this DAG learns an edge whose premise is a
		// constant proven late in a sweep. The edge fires only from the
		// constants' closure, so this row fails unless that closure is
		// recomputed after each learning round.
		goldenCircuit{spec: "dag:inputs=4,gates=150,seed=4", build: func() *netlist.Circuit { return gen.RandomDAG(4, 4, 150, gen.DAGOptions{}) }},
		// The final sweep of this DAG proves signal 271 of 304 constant,
		// so 436 stored closures predate a base signal, and a proof that
		// resumes one of them must re-evaluate the gates next to it: one
		// redundant fault goes unproven if it does not. The only other
		// row whose final sweep proves a constant is the long
		// dag:gates=2000,seed=1, and none of its proofs depends on that.
		goldenCircuit{spec: "dag:inputs=4,gates=300,seed=27", build: func() *netlist.Circuit { return gen.RandomDAG(27, 4, 300, gen.DAGOptions{}) }},
		goldenCircuit{spec: "mul:width=5", build: func() *netlist.Circuit { return gen.Multiplier(5) }},
		goldenCircuit{spec: "mul:width=6", build: func() *netlist.Circuit { return gen.Multiplier(6) }},
		goldenCircuit{spec: "alu:width=8", build: func() *netlist.Circuit { return gen.ALUSlice(8) }},
		goldenCircuit{spec: "rpr:cones=3,width=12,glue=80,seed=2", build: func() *netlist.Circuit { return gen.RPResistant(2, 3, 12, 80) }},
		goldenCircuit{spec: "bshift:width=16", build: func() *netlist.Circuit { return gen.BarrelShifter(16) }},
		goldenCircuit{spec: "c17", build: gen.C17},
		goldenCircuit{spec: "tree:leaves=200,seed=3", build: func() *netlist.Circuit { return gen.RandomTree(3, 200, gen.TreeOptions{}) }},
	)
	return out
}

// goldenEngines memoizes the engine built for each golden spec, so the
// tests that share the circuits build each one once.
var goldenEngines = map[string]*Engine{}

func (gc goldenCircuit) engine() *Engine {
	e, ok := goldenEngines[gc.spec]
	if !ok {
		e = New(gc.build(), Options{})
		goldenEngines[gc.spec] = e
	}
	return e
}

// engineRow summarises a built engine in one line: its headline counts
// and a SHA-256 over everything a query can observe, namely the
// constants, the feasibility table, every implied and learned list,
// NumLearned, and the redundant faults with their reasons.
func engineRow(spec string, e *Engine) string {
	h := sha256.New()
	w := bufio.NewWriter(h)
	n := e.c.NumGates()
	for sig := 0; sig < n; sig++ {
		fmt.Fprintf(w, "c%d=%d\n", sig, e.consts[sig])
	}
	for l := Lit(0); int(l) < 2*n; l++ {
		fmt.Fprintf(w, "l%d feas=%v imp=%v learned=%v\n", l, e.Feasible(l), e.Implied(l), e.learned[l])
	}
	fmt.Fprintf(w, "nlearned=%d\n", e.NumLearned())
	red := e.Redundant()
	for _, r := range red {
		fmt.Fprintf(w, "r %d/%d/%v %s\n", r.F.Gate, r.F.Pin, r.F.Stuck, r.Reason)
	}
	if err := w.Flush(); err != nil {
		panic(err)
	}
	return fmt.Sprintf("%s gates=%d consts=%d implications=%d learned=%d redundant=%d sha256=%x",
		spec, n, len(e.Constants()), e.NumImplications(), e.NumLearned(), len(red), h.Sum(nil))
}

// TestGoldenEngine pins everything the implication engine computes on
// the generator families, so a rewrite of the propagation internals
// must reproduce every proof exactly. The test only compares: a
// differing row is reported with the row the current engine produces,
// and an intended change of engine output is made by editing those rows
// of testdata/golden_engine.txt by hand. Rows marked long are skipped
// under -short and keep their place in the table.
func TestGoldenEngine(t *testing.T) {
	f, err := os.Open(filepath.Join("testdata", "golden_engine.txt"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var want []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		want = append(want, sc.Text())
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	circuits := goldenCircuits()
	if len(circuits) != len(want) {
		t.Fatalf("%d circuits, golden has %d rows", len(circuits), len(want))
	}
	for i, gc := range circuits {
		if gc.long && testing.Short() {
			continue
		}
		got := engineRow(gc.spec, gc.engine())
		if got != want[i] {
			t.Errorf("row %d differs:\n got  %s\n want %s", i, got, want[i])
		}
	}
}

// TestEngineAgreesAcrossWorkerCounts: the resumed sweeps, learning and
// the proofs run on GOMAXPROCS workers, and everything the engine
// computes must be the same on one worker as on many. Each golden
// circuit and twenty random DAGs, half with four inputs and so many
// constants proven late, are built at GOMAXPROCS 1, 2 and 4 and must
// give the same engineRow. The DAGs have 520 gates, enough literals
// for the build's loops to fork onto four workers (forkLits). Some
// resumed sweep must prove a constant in its parallel phase, so that
// the rest of that sweep runs in literal order (fallsBack).
func TestEngineAgreesAcrossWorkerCounts(t *testing.T) {
	circuits := goldenCircuits()
	for seed := int64(1); seed <= 10; seed++ {
		for _, inputs := range []int{4, 16} {
			circuits = append(circuits, goldenCircuit{
				spec:  fmt.Sprintf("dag:inputs=%d,gates=520,seed=%d", inputs, seed),
				build: func() *netlist.Circuit { return gen.RandomDAG(seed, inputs, 520, gen.DAGOptions{}) },
			})
		}
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	fellBack := false
	for _, gc := range circuits {
		if gc.long && testing.Short() {
			continue
		}
		c := gc.build()
		var rows []string
		for _, procs := range []int{1, 2, 4} {
			runtime.GOMAXPROCS(procs)
			rows = append(rows, engineRow(gc.spec, New(c, Options{})))
		}
		if rows[0] != rows[1] || rows[0] != rows[2] {
			t.Errorf("%s differs across worker counts:\n 1: %s\n 2: %s\n 4: %s", gc.spec, rows[0], rows[1], rows[2])
		}
		fellBack = fellBack || fallsBack(c)
	}
	if !fellBack {
		t.Error("no resumed sweep proved a constant in its parallel phase; the literal-order rest of the sweep went untested")
	}
}

// fallsBack reports whether the parallel phase of the second or third
// sweep of c's default build proves a constant. It builds the sweeps
// before the one it checks, then learns, rebuilds the base and runs
// that sweep's parallel phase, as sweep would; a next literal short of
// the last is where the sweep would go on in literal order.
func fallsBack(c *netlist.Circuit) bool {
	for _, rounds := range []int{-1, 1} {
		e := New(c, Options{LearnRounds: rounds})
		e.learn()
		e.rebuildBase()
		if _, next := e.sweepResumed(); next < len(e.feas) {
			return true
		}
	}
	return false
}
