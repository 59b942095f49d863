package par

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// TestForCoversEveryItemOnce: every index runs exactly once, on a
// worker index below Workers(n), for sizes around the worker count and
// the grain.
func TestForCoversEveryItemOnce(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 7, 64, 1000} {
		for _, grain := range []int{0, 1, 5, 16} {
			hits := make([]atomic.Int32, n)
			workers := Workers(n)
			var bad atomic.Int32
			For(workers, n, grain, func(w, i int) {
				if w < 0 || w >= workers {
					bad.Add(1)
				}
				hits[i].Add(1)
			})
			if bad.Load() != 0 {
				t.Errorf("n=%d grain=%d: %d calls got a worker index outside [0, %d)", n, grain, bad.Load(), workers)
			}
			for i := range hits {
				if h := hits[i].Load(); h != 1 {
					t.Fatalf("n=%d grain=%d: item %d ran %d times", n, grain, i, h)
				}
			}
		}
	}
}

// TestForOneWorkerRunsInOrderOnCaller: with GOMAXPROCS 1 the caller
// runs every item itself, in index order, as worker 0.
func TestForOneWorkerRunsInOrderOnCaller(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	if w := Workers(100); w != 1 {
		t.Fatalf("Workers(100) = %d under GOMAXPROCS 1, want 1", w)
	}
	var got []int
	For(Workers(10), 10, 3, func(w, i int) {
		if w != 0 {
			t.Errorf("item %d ran on worker %d", i, w)
		}
		got = append(got, i)
	})
	for i, v := range got {
		if v != i {
			t.Fatalf("items ran in order %v", got)
		}
	}
}

// TestForForwardsPanic: a panic on any worker reaches the caller with
// its value once every worker has returned, later items are not handed
// out, and every worker goroutine ends.
func TestForForwardsPanic(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	}
	type boom struct{ i int }
	start := runtime.NumGoroutine()
	var ran atomic.Int32
	func() {
		defer func() {
			r, ok := recover().(boom)
			if !ok || r.i != 10 {
				t.Errorf("recovered %v, want boom{10}", r)
			}
		}()
		For(Workers(1000), 1000, 1, func(w, i int) {
			ran.Add(1)
			if i == 10 {
				panic(boom{i})
			}
			time.Sleep(50 * time.Microsecond)
		})
		t.Error("For returned after a panic")
	}()
	if n := ran.Load(); n == 1000 {
		t.Errorf("%d items ran after the panic at item 10", n)
	}
	// A worker that has signalled its end may still be on its way out.
	for deadline := time.Now().Add(time.Second); runtime.NumGoroutine() > start; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after For, %d before", runtime.NumGoroutine(), start)
		}
	}
}

// TestForOneWorkerAllocFree: with one worker For runs the items in
// place, so a loop that hands it a func value made once allocates
// nothing; the implication engine's repeat sweep and learn rely on it.
func TestForOneWorkerAllocFree(t *testing.T) {
	sum := 0
	fn := func(w, i int) { sum += i }
	if got := testing.AllocsPerRun(10, func() { For(1, 100, 8, fn) }); got != 0 {
		t.Errorf("For on one worker costs %.1f allocs, want 0", got)
	}
	if got := testing.AllocsPerRun(10, func() { For(Workers(100), 100, 8, fn) }); got != 0 {
		t.Errorf("For on Workers(100) under AllocsPerRun's GOMAXPROCS 1 costs %.1f allocs, want 0", got)
	}
	if sum == 0 {
		t.Error("no item ran")
	}
}
