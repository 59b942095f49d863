package implic

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/par"
)

// TestNewContextCanceledBeforeBuild: a context that is already done
// aborts the build before any sweep and surfaces the context's error.
func TestNewContextCanceledBeforeBuild(t *testing.T) {
	c, _, _ := indirectCircuit()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	e, err := NewContext(ctx, c, Options{})
	if e != nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("NewContext on a canceled context: engine=%v err=%v, want nil engine and context.Canceled", e, err)
	}
}

// TestNewContextMatchesNew: threading a live context through the build
// must not change what is learned.
func TestNewContextMatchesNew(t *testing.T) {
	c, z, a := indirectCircuit()
	plain := New(c, Options{})
	ctxed, err := NewContext(context.Background(), c, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !ctxed.Implies(MkLit(z, true), MkLit(a, true)) {
		t.Error("context-built engine lost the learned implication z=1 => a=1")
	}
	if plain.NumImplications() != ctxed.NumImplications() || plain.NumLearned() != ctxed.NumLearned() {
		t.Errorf("context-built engine diverged: %d/%d implications, %d/%d learned",
			ctxed.NumImplications(), plain.NumImplications(), ctxed.NumLearned(), plain.NumLearned())
	}
}

// TestQueriesAfterCanceledContextBuild: the build context is cleared
// once the database is built, so canceling it afterwards must not
// poison later queries (which may lazily run the propagation engine).
func TestQueriesAfterCanceledContextBuild(t *testing.T) {
	c, z, a := indirectCircuit()
	ctx, cancel := context.WithCancel(context.Background())
	e, err := NewContext(ctx, c, Options{})
	if err != nil {
		t.Fatal(err)
	}
	cancel()
	if !e.Implies(MkLit(z, true), MkLit(a, true)) {
		t.Error("query failed after the build context was canceled")
	}
	// The lazy redundancy analysis re-runs the propagation engine; it
	// must not observe the dead build context.
	_ = e.RedundantFaults()
}

// TestRedundantContext: a done context aborts the redundancy pass with
// its error and caches nothing; a live one gives exactly Redundant.
func TestRedundantContext(t *testing.T) {
	c, _, _ := indirectCircuit()
	e := New(c, Options{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if red, err := e.RedundantContext(ctx); red != nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("RedundantContext on a canceled context: %v, %v; want nil and context.Canceled", red, err)
	}
	if e.redundant != nil {
		t.Fatal("an aborted redundancy pass was cached")
	}
	got, err := e.RedundantContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	want := New(c, Options{}).Redundant()
	if len(got) != len(want) {
		t.Fatalf("RedundantContext found %d faults, Redundant %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("fault %d: %v, want %v", i, got[i], want[i])
		}
	}
}

// TestResumedSweepHonorsDeadline: a build deadline that has passed
// while a resumed sweep forks ends the sweep within the answer margin
// with the context's error, and leaves no worker running: the workers
// poll the build context as they propagate, and par.For forwards the
// first abort to the caller. The sweep is the second of a 2000-gate
// DAG's build, called directly at GOMAXPROCS 2, so that it forks at
// any GOMAXPROCS the suite runs with; the deadline is set before it
// starts, so no timing decides where the abort lands.
func TestResumedSweepHonorsDeadline(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	e := New(gen.RandomDAG(1, 16, 2000, gen.DAGOptions{}), Options{LearnRounds: -1})
	e.learn()
	e.rebuildBase()
	if par.Workers(len(e.feas)/forkLits) < 2 {
		t.Fatal("the resumed sweep would not fork")
	}
	ctx, cancel := context.WithDeadline(context.Background(), time.Now())
	defer cancel()
	e.buildCtx, e.buildDone = ctx, ctx.Done()
	start := runtime.NumGoroutine()
	began := time.Now()
	err := func() (err error) {
		defer recoverCtx(&err)
		e.sweepResumed()
		return nil
	}()
	if d := time.Since(began); d > 250*time.Millisecond {
		t.Errorf("a passed deadline honoured after %v", d)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("resumed sweep past its deadline: %v, want context.DeadlineExceeded", err)
	}
	for deadline := time.Now().Add(time.Second); runtime.NumGoroutine() > start; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the abort, %d before", runtime.NumGoroutine(), start)
		}
	}
}
