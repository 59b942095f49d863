package tpi

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/cli"
	"repro/internal/fault"
	"repro/internal/gen"
	"repro/internal/testability"
)

// manyWorkers is the worker count the agreement test plans with: above
// the one-worker path and above the two CPUs of a small host, so blocks
// interleave over more workers than cores.
const manyWorkers = 4

// withWorkers runs f with GOMAXPROCS set to n, which is the number of
// workers the planners' parallel loops use.
func withWorkers(n int, f func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(n))
	f()
}

// randomDAGRows plans control points and the hybrid flow on twenty
// random DAGs and renders every field of each plan, the modified
// circuits' canonical text included.
func randomDAGRows(t *testing.T) []string {
	var rows []string
	for seed := int64(1); seed <= 20; seed++ {
		c := gen.RandomDAG(seed, 12+int(seed%5), 60+15*int(seed), gen.DAGOptions{MaxFanin: 2 + int(seed%3), XorPct: 0.1 * float64(seed%3)})
		faults := fault.CollapsedUniverse(c)
		dth := []float64{1.0 / 4096, 1.0 / 256, 0.02}[seed%3]
		cp, err := PlanControlPointsGreedy(c, faults, 3, dth, CPOptions{MaxCandidates: 8 + int(seed)})
		if err != nil {
			t.Fatal(err)
		}
		h, err := PlanHybrid(c, faults, 3, 3, dth, CPOptions{}, OPOptions{})
		if err != nil {
			t.Fatal(err)
		}
		rows = append(rows, fmt.Sprintf("seed=%d control points=%s before=%d after=%d total=%d evals=%d\n%s"+
			"hybrid pruned=%d cp=%s cpbefore=%d cpafter=%d evals=%d op=%s opbefore=%d opafter=%d total=%d states=%d\n%s",
			seed, joinPoints(cp.Points), cp.CoveredBefore, cp.CoveredAfter, cp.TotalFaults, cp.Evaluations, bench.Append(nil, cp.Modified),
			h.PrunedFaults, joinPoints(h.Control.Points), h.Control.CoveredBefore, h.Control.CoveredAfter, h.Control.Evaluations,
			joinInts(h.Observe.Points), h.Observe.CoveredBefore, h.Observe.CoveredAfter, h.Observe.TotalFaults, h.Observe.StatesVisited,
			bench.Append(nil, h.Modified)))
	}
	return rows
}

// TestPlansAgreeAcrossWorkerCounts: the control and hybrid planners
// score candidates and prove redundancies on as many workers as
// GOMAXPROCS allows, and every field of their plans must be the same
// with one worker as with several, on the golden control specs and on
// twenty random DAGs. Under -short only the random DAGs run.
func TestPlansAgreeAcrossWorkerCounts(t *testing.T) {
	var one, many []string
	withWorkers(1, func() { one = randomDAGRows(t) })
	withWorkers(manyWorkers, func() { many = randomDAGRows(t) })
	if !testing.Short() {
		withWorkers(1, func() { one = append(one, goldenControlRows(t)...) })
		withWorkers(manyWorkers, func() { many = append(many, goldenControlRows(t)...) })
	}
	if len(one) != len(many) {
		t.Fatalf("%d rows with one worker, %d with %d", len(one), len(many), manyWorkers)
	}
	for i := range one {
		if one[i] != many[i] {
			t.Errorf("row %d differs:\n one worker   %.300s\n %d workers  %.300s", i, one[i], manyWorkers, many[i])
		}
	}
}

// waitGoroutines waits up to a second for the goroutine count to fall
// back to start: a worker that has signalled its end may still be on
// its way out.
func waitGoroutines(t *testing.T, start int) {
	t.Helper()
	for deadline := time.Now().Add(time.Second); runtime.NumGoroutine() > start; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the abort, %d before", runtime.NumGoroutine(), start)
		}
	}
}

// TestScoreCandidatesHonorsDeadline: a deadline that expires while the
// workers score candidates aborts the scoring within the answer margin,
// reaches the caller as the context's error, and leaves no worker
// running. The overlays and candidates are built before the clock
// starts, so the deadline can only land among the candidate scores:
// every signal in a hard fault's cones, about 2,900 of them, which take
// some 3.5 s to score on one core, far longer than the deadline on any
// number of cores.
func TestScoreCandidatesHonorsDeadline(t *testing.T) {
	c, err := cli.Generate("dag:gates=3000,seed=3")
	if err != nil {
		t.Fatal(err)
	}
	faults := fault.CollapsedUniverse(c)
	const dth = 1.0 / 4096
	ov := testability.NewOverlay(c, testability.COPOptions{})
	covered := countCovered(&ov.COP, faults, dth)
	candidates := controlCandidates(c, &ov.COP, faults, dth, c.NumGates())
	if len(candidates) < 2000 {
		t.Fatalf("%d candidates, want at least 2000", len(candidates))
	}
	overlays := []*testability.Overlay{ov}
	for range runtime.GOMAXPROCS(0) - 1 {
		overlays = append(overlays, ov.Clone(nil))
	}
	gains := make([]int, len(controlKinds)*len(candidates))

	start := runtime.NumGoroutine()
	const budget = 10 * time.Millisecond
	ctx, cancel := context.WithTimeout(context.Background(), budget)
	defer cancel()
	began := time.Now()
	err = func() (err error) {
		defer recoverCtx(&err)
		scoreCandidates(ctx, overlays, candidates, faults, dth, covered, gains)
		return nil
	}()
	if d := time.Since(began); d > budget+250*time.Millisecond {
		t.Errorf("deadline of %v honoured after %v", budget, d)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	waitGoroutines(t, start)
}
