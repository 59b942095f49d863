package implic

import (
	"context"
	"errors"
	"runtime"
	"slices"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/gen"
	"repro/internal/netlist"
)

// TestRedundantAmongMatchesRedundantSet: proving only the target faults
// must give exactly the membership of the full pass, on the collapsed
// and on the full universe of every golden circuit.
func TestRedundantAmongMatchesRedundantSet(t *testing.T) {
	for _, gc := range goldenCircuits() {
		if gc.long && testing.Short() {
			continue
		}
		t.Run(gc.spec, func(t *testing.T) {
			e := gc.engine()
			c := e.Circuit()
			lists := map[string][]fault.Fault{
				"collapsed": fault.CollapsedUniverse(c),
				"universe":  fault.Universe(c),
			}
			got := map[string][]bool{}
			for name, faults := range lists {
				red, err := e.RedundantAmongContext(context.Background(), faults)
				if err != nil {
					t.Fatal(err)
				}
				got[name] = red
			}
			set := e.RedundantSet()
			for name, faults := range lists {
				for i, f := range faults {
					if got[name][i] != set[f] {
						t.Errorf("%s: %v proven %v, RedundantSet says %v", name, f, got[name][i], set[f])
					}
				}
			}
		})
	}
}

// TestRedundantAmongOutsideUniverse: faults fault.Universe does not
// list are never proven, even where the checks would succeed, and a bad
// gate or pin index does not panic.
func TestRedundantAmongOutsideUniverse(t *testing.T) {
	// n1 = AND(a,b); z = OR(n1, a): n1 s-a-0 is redundant, and so would
	// be the branch b->n1 s-a-0, but b has one fanout, so the universe
	// carries no branch fault there.
	b := netlist.NewBuilder("blocked")
	a := b.Input("a")
	x := b.Input("b")
	n1 := b.AndGate("n1", a, x)
	z := b.OrGate("z", n1, a)
	b.MarkOutput(z)
	c := b.MustBuild()
	e := New(c, Options{})
	faults := []fault.Fault{
		{Gate: n1, Pin: -1, Stuck: false}, // in the universe, redundant
		{Gate: n1, Pin: 1, Stuck: false},  // branch of a single-fanout line
		{Gate: n1, Pin: 2, Stuck: false},  // no such pin
		{Gate: n1, Pin: -2, Stuck: false}, // neither stem nor branch
		{Gate: c.NumGates(), Pin: -1, Stuck: true},
		{Gate: -1, Pin: -1, Stuck: true},
	}
	got, err := e.RedundantAmongContext(context.Background(), faults)
	if err != nil {
		t.Fatal(err)
	}
	if want := []bool{true, false, false, false, false, false}; !slices.Equal(got, want) {
		t.Errorf("RedundantAmongContext = %v, want %v", got, want)
	}
}

// TestRedundantAmongContextCanceled: a done context aborts the proofs
// with its error.
func TestRedundantAmongContextCanceled(t *testing.T) {
	c, _, _ := indirectCircuit()
	e := New(c, Options{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if red, err := e.RedundantAmongContext(ctx, fault.Universe(c)); red != nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("RedundantAmongContext on a canceled context: %v, %v; want nil and context.Canceled", red, err)
	}
}

// TestRedundantAmongHonorsDeadline: a deadline that expires while the
// workers prove faults ends the pass within the answer margin with the
// context's error, and leaves no worker running. The engine is built
// before the clock starts, so the deadline can only land among the
// proofs. The fault list, the universe four times over, takes some
// 1.8 s to prove on one core, far longer than the deadline on any
// number of cores.
func TestRedundantAmongHonorsDeadline(t *testing.T) {
	c := gen.RandomDAG(1, 16, 1000, gen.DAGOptions{})
	e := New(c, Options{})
	universe := fault.Universe(c)
	var faults []fault.Fault
	for range 4 {
		faults = append(faults, universe...)
	}
	base := slices.Clone(e.val)
	start := runtime.NumGoroutine()
	const budget = 5 * time.Millisecond
	ctx, cancel := context.WithTimeout(context.Background(), budget)
	defer cancel()
	began := time.Now()
	red, err := e.RedundantAmongContext(ctx, faults)
	if d := time.Since(began); d > budget+250*time.Millisecond {
		t.Errorf("deadline of %v honoured after %v", budget, d)
	}
	if red != nil || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("RedundantAmongContext past its deadline: %d verdicts, %v; want nil and context.DeadlineExceeded", len(red), err)
	}
	for deadline := time.Now().Add(time.Second); runtime.NumGoroutine() > start; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the abort, %d before", runtime.NumGoroutine(), start)
		}
	}
	if !slices.Equal(e.val, base) || len(e.touched) != 0 {
		t.Error("the aborted pass left the engine's own state off the base")
	}
}

// TestRunResetAllocFree pins the propagation steps after the build: a
// run on any literal, or a resume of any feasible one, conflicting or
// not, and the reset after it reuse the engine's worklists and allocate
// nothing, and the reset restores the constant base exactly.
func TestRunResetAllocFree(t *testing.T) {
	// dag:gates=300,seed=2 has 61 proven constants.
	e := New(gen.RandomDAG(2, 16, 300, gen.DAGOptions{}), Options{})
	if len(e.base) == 0 {
		t.Fatal("empty constant base; pick a circuit with constants")
	}
	base := slices.Clone(e.val)
	n := Lit(2 * e.c.NumGates())
	got := testing.AllocsPerRun(5, func() {
		for l := Lit(0); l < n; l++ {
			e.run(l)
			e.reset()
		}
	})
	if got != 0 {
		t.Fatalf("run+reset over every literal costs %.1f allocs, want 0", got)
	}
	got = testing.AllocsPerRun(5, func() {
		for l := Lit(0); l < n; l++ {
			if e.feas[l] {
				e.resume(l)
				e.reset()
			}
		}
	})
	if got != 0 {
		t.Fatalf("resume+reset over every feasible literal costs %.1f allocs, want 0", got)
	}
	if !slices.Equal(e.val, base) {
		t.Fatal("reset did not restore the constant base")
	}
}

// TestResumeMatchesRun: on every golden circuit, resuming a feasible
// literal's stored closure after the build assigns exactly what a run
// from the base assigns, or conflicts exactly when the run does. The
// row dag:inputs=4,gates=300,seed=27 keeps a non-empty base delta
// under -short.
func TestResumeMatchesRun(t *testing.T) {
	for _, gc := range goldenCircuits() {
		if gc.long && testing.Short() {
			continue
		}
		t.Run(gc.spec, func(t *testing.T) {
			e := gc.engine()
			var want, got []Lit
			stale := 0
			for l := Lit(0); int(l) < 2*e.c.NumGates(); l++ {
				if !e.feas[l] {
					continue
				}
				if int(e.seen[l]) < len(e.joined) {
					stale++
				}
				wantConflict := e.run(l)
				want = e.assigned(want[:0], -1)
				e.reset()
				gotConflict, _ := e.resume(l)
				got = e.assigned(got[:0], -1)
				e.reset()
				if gotConflict != wantConflict || (!wantConflict && !slices.Equal(got, want)) {
					t.Fatalf("literal %d: resume conflict=%v assigned %v, run conflict=%v assigned %v",
						l, gotConflict, got, wantConflict, want)
				}
			}
			if gc.spec == "dag:inputs=4,gates=300,seed=27" && stale == 0 {
				t.Error("no stored closure predates the last constant; the row no longer covers the base delta")
			}
		})
	}
}

// TestSweepLearnAllocFree pins the build's two loops: on a built
// engine, a repeat sweep resumes every feasible literal's stored
// closure and keeps or refills its implied list in the array it already
// owns, and a repeat learn finds every contrapositive already recorded,
// so neither allocates. The first learn may still record edges;
// AllocsPerRun's warm-up call absorbs it.
func TestSweepLearnAllocFree(t *testing.T) {
	for _, tc := range []struct {
		name string
		c    *netlist.Circuit
	}{
		{"dag300", gen.RandomDAG(2, 16, 300, gen.DAGOptions{})},
		{"dag1000", gen.RandomDAG(1, 16, 1000, gen.DAGOptions{})},
		{"mul6", gen.Multiplier(6)},
		{"rpr", gen.RPResistant(2, 3, 12, 80)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := New(tc.c, Options{})
			if got := testing.AllocsPerRun(3, func() { e.sweep(true) }); got != 0 {
				t.Errorf("a repeat sweep costs %.1f allocs, want 0", got)
			}
			if got := testing.AllocsPerRun(3, func() { e.learn() }); got != 0 {
				t.Errorf("a repeat learn costs %.1f allocs, want 0", got)
			}
		})
	}
}
