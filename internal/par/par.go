// Package par runs the independent items of one engine loop on every
// core: the control planner's candidate scores and the implication
// engine's resumed sweeps, learning and redundancy proofs. Callers keep
// one scratch state per worker and write each item's result by its
// index, so what a loop computes does not depend on which worker ran
// which item or on how many workers there were.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers returns how many workers a loop of n items runs on: one per
// GOMAXPROCS, no more than n, and at least one. A caller reads it once,
// sizes its per-worker scratch by it and passes it to For, so a
// GOMAXPROCS change in between cannot leave a worker without scratch.
func Workers(n int) int {
	return max(1, min(runtime.GOMAXPROCS(0), n))
}

// For calls fn(w, i) once for every i in [0, n) and returns when every
// call has returned. It runs min(workers, n) workers, at least one, the
// caller as worker 0, and passes each call its worker's index w, so fn
// may use scratch indexed by w without locking. Items go out in blocks
// of grain consecutive indices, each to the next worker that asks, so
// the blocks of one worker interleave with the others'. With one worker
// the caller runs every item in order, in place: that path starts no
// goroutine and allocates nothing, so a caller that passes a func value
// it made once keeps its loop allocation-free.
//
// A panic in fn stops the hand-out of blocks. Once every worker has
// returned, For panics on the caller with the first panic's value, so a
// caller's recover (a planner's cancellation, a server's engine-panic
// answer) works as it would for a loop run in place.
func For(workers, n, grain int, fn func(w, i int)) {
	if min(workers, n) <= 1 {
		for i := range n {
			fn(0, i)
		}
		return
	}
	fork(min(workers, n), n, max(grain, 1), fn)
}

// fork is For on two or more workers.
func fork(workers, n, grain int, fn func(w, i int)) {
	var (
		next  atomic.Int64
		wg    sync.WaitGroup
		mu    sync.Mutex
		first any
		fail  bool
	)
	work := func(w int) {
		defer func() {
			if r := recover(); r != nil {
				next.Store(int64(n))
				mu.Lock()
				if !fail {
					first, fail = r, true
				}
				mu.Unlock()
			}
		}()
		for {
			lo := int(next.Add(int64(grain))) - grain
			if lo >= n {
				return
			}
			for i := lo; i < min(lo+grain, n); i++ {
				fn(w, i)
			}
		}
	}
	wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go func() {
			defer wg.Done()
			work(w)
		}()
	}
	work(0)
	wg.Wait()
	if fail {
		panic(first)
	}
}
