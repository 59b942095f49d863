package implic

import (
	"context"
	"errors"
	"testing"
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
