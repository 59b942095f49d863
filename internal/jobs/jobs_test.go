package jobs

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/progress"
)

// testRunner is a controllable Runner: it records which jobs it ran,
// signals when a job starts, and blocks until released or cancelled.
type testRunner struct {
	mu      sync.Mutex
	ran     []string
	started chan string   // receives spec.ID when a run begins (cap 16)
	release chan struct{} // close to let blocked runs finish
	block   bool
}

func newTestRunner(block bool) *testRunner {
	return &testRunner{
		started: make(chan string, 16),
		release: make(chan struct{}),
		block:   block,
	}
}

func (r *testRunner) run(ctx context.Context, spec Spec) ([]byte, error) {
	r.mu.Lock()
	r.ran = append(r.ran, spec.ID)
	r.mu.Unlock()
	r.started <- spec.ID
	if r.block {
		select {
		case <-r.release:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	return resultBytes(spec), nil
}

// resultBytes is the deterministic "engine response" for a spec, so
// byte-identity across restarts is checkable.
func resultBytes(spec Spec) []byte {
	return []byte(fmt.Sprintf("{\"endpoint\":%q,\"key\":%q,\"req\":%q}", spec.Endpoint, spec.Key, spec.Request))
}

func (r *testRunner) ranIDs() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]string(nil), r.ran...)
}

func newTestManager(t *testing.T, cfg Config, run Runner) *Manager {
	t.Helper()
	m, err := New(cfg, run)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(m.Close)
	return m
}

// waitState blocks until the job reaches want, failing fast if it lands
// in a different terminal state.
func waitState(t *testing.T, m *Manager, id string, want State) Snapshot {
	t.Helper()
	deadline := time.After(10 * time.Second)
	for {
		snap, ch, ok := m.Watch(id)
		if !ok {
			t.Fatalf("job %s disappeared while waiting for %s", id, want)
		}
		if snap.State == want {
			return snap
		}
		if snap.State.Terminal() {
			t.Fatalf("job %s reached %s (error %q), want %s", id, snap.State, snap.Error, want)
		}
		select {
		case <-ch:
		case <-deadline:
			t.Fatalf("timed out waiting for job %s to reach %s (at %s)", id, want, snap.State)
		}
	}
}

func TestSubmitRunsToDone(t *testing.T) {
	r := newTestRunner(false)
	m := newTestManager(t, Config{Dir: t.TempDir(), Workers: 2}, r.run)
	snap, err := m.Submit("/v1/plan", "key-1", []byte(`{"bench":"x"}`), 0)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if snap.State != Queued {
		t.Fatalf("submitted state = %s, want queued", snap.State)
	}
	got := waitState(t, m, snap.ID, Done)
	if got.StartedUnixMS == 0 || got.FinishedUnixMS == 0 {
		t.Errorf("timestamps not populated: %+v", got)
	}
	val, err := m.Result(snap.ID)
	if err != nil {
		t.Fatalf("Result: %v", err)
	}
	want := resultBytes(Spec{ID: snap.ID, Endpoint: "/v1/plan", Key: "key-1", Request: []byte(`{"bench":"x"}`)})
	if !bytes.Equal(val, want) {
		t.Errorf("result = %s, want %s", val, want)
	}
	if st := m.Stats(); st.Completed != 1 || st.Done != 1 || st.JournalFsyncs == 0 {
		t.Errorf("stats after completion = %+v", st)
	}
}

func TestInMemoryModeWithoutDir(t *testing.T) {
	r := newTestRunner(false)
	m := newTestManager(t, Config{Workers: 1}, r.run)
	snap, err := m.Submit("/v1/atpg", "k", []byte(`{}`), 0)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	waitState(t, m, snap.ID, Done)
	if _, err := m.Result(snap.ID); err != nil {
		t.Fatalf("Result: %v", err)
	}
	if st := m.Stats(); st.JournalFsyncs != 0 {
		t.Errorf("in-memory mode issued %d fsyncs", st.JournalFsyncs)
	}
}

func TestQueueFull(t *testing.T) {
	r := newTestRunner(true)
	m := newTestManager(t, Config{Workers: 1, QueueDepth: 1}, r.run)
	a, err := m.Submit("/v1/plan", "a", []byte(`{}`), 0)
	if err != nil {
		t.Fatalf("Submit a: %v", err)
	}
	<-r.started // a is running, queue empty again
	if _, err := m.Submit("/v1/plan", "b", []byte(`{}`), 0); err != nil {
		t.Fatalf("Submit b: %v", err)
	}
	if _, err := m.Submit("/v1/plan", "c", []byte(`{}`), 0); err != ErrQueueFull {
		t.Fatalf("Submit c err = %v, want ErrQueueFull", err)
	}
	st := m.Stats()
	if st.Submitted != 2 || st.QueueDepth != 1 || st.QueueCap != 1 {
		t.Errorf("stats at saturation = %+v", st)
	}
	close(r.release)
	waitState(t, m, a.ID, Done)
}

func TestCancelQueuedJob(t *testing.T) {
	r := newTestRunner(true)
	m := newTestManager(t, Config{Workers: 1, QueueDepth: 4}, r.run)
	a, err := m.Submit("/v1/plan", "a", []byte(`{}`), 0)
	if err != nil {
		t.Fatalf("Submit a: %v", err)
	}
	<-r.started
	b, err := m.Submit("/v1/plan", "b", []byte(`{}`), 0)
	if err != nil {
		t.Fatalf("Submit b: %v", err)
	}
	snap, ok := m.Cancel(b.ID)
	if !ok || snap.State != Canceled {
		t.Fatalf("Cancel queued: ok=%v state=%s, want canceled immediately", ok, snap.State)
	}
	close(r.release)
	waitState(t, m, a.ID, Done)
	for _, id := range r.ranIDs() {
		if id == b.ID {
			t.Error("cancelled-while-queued job was still executed")
		}
	}
}

func TestCancelRunningJobIsFast(t *testing.T) {
	r := newTestRunner(true)
	m := newTestManager(t, Config{Dir: t.TempDir(), Workers: 1}, r.run)
	a, err := m.Submit("/v1/faultsim", "a", []byte(`{}`), 0)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	<-r.started
	waitState(t, m, a.ID, Running)
	start := time.Now()
	if _, ok := m.Cancel(a.ID); !ok {
		t.Fatal("Cancel: job not found")
	}
	snap := waitState(t, m, a.ID, Canceled)
	if elapsed := time.Since(start); elapsed > 500*time.Millisecond {
		t.Errorf("cancel took %v, want < 500ms", elapsed)
	}
	if snap.Error != "" {
		t.Errorf("canceled job carries error %q", snap.Error)
	}
}

func TestCancelTerminalJobIsNoOp(t *testing.T) {
	r := newTestRunner(false)
	m := newTestManager(t, Config{Workers: 1}, r.run)
	a, _ := m.Submit("/v1/plan", "a", []byte(`{}`), 0)
	waitState(t, m, a.ID, Done)
	snap, ok := m.Cancel(a.ID)
	if !ok || snap.State != Done {
		t.Fatalf("Cancel done job: ok=%v state=%s, want done untouched", ok, snap.State)
	}
}

func TestJobDeadlineFailsJob(t *testing.T) {
	r := newTestRunner(true)
	m := newTestManager(t, Config{Workers: 1, Timeout: 50 * time.Millisecond}, r.run)
	a, err := m.Submit("/v1/plan", "a", []byte(`{}`), 0)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	snap := waitState(t, m, a.ID, Failed)
	if !strings.Contains(snap.Error, "deadline") {
		t.Errorf("failure reason = %q, want deadline mention", snap.Error)
	}
}

// TestKillRestartRecovery is the durability pin: a job interrupted
// mid-run (Close journals nothing terminal, exactly like SIGKILL) is
// re-queued by the next manager on the same directory and completes
// with bytes identical to an uninterrupted run.
func TestKillRestartRecovery(t *testing.T) {
	dir := t.TempDir()
	req := []byte(`{"bench":"recover-me"}`)

	r1 := newTestRunner(true)
	m1, err := New(Config{Dir: dir, Workers: 1}, r1.run)
	if err != nil {
		t.Fatalf("New m1: %v", err)
	}
	submitted, err := m1.Submit("/v1/plan", "key-r", req, 0)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	<-r1.started
	waitState(t, m1, submitted.ID, Running)
	m1.Close() // SIGKILL stand-in: running job keeps a non-terminal journal

	r2 := newTestRunner(false)
	m2 := newTestManager(t, Config{Dir: dir, Workers: 1}, r2.run)
	snap, ok := m2.Get(submitted.ID)
	if !ok {
		t.Fatal("job lost across restart")
	}
	if !snap.Requeued {
		t.Error("recovered job not marked requeued")
	}
	final := waitState(t, m2, submitted.ID, Done)
	if !final.Requeued {
		t.Error("finished recovered job lost its requeued marker")
	}
	got, err := m2.Result(submitted.ID)
	if err != nil {
		t.Fatalf("Result after recovery: %v", err)
	}
	want := resultBytes(Spec{Endpoint: "/v1/plan", Key: "key-r", Request: req})
	if !bytes.Equal(got, want) {
		t.Errorf("recovered result = %s, want byte-identical %s", got, want)
	}
	if st := m2.Stats(); st.Requeued != 1 {
		t.Errorf("Requeued counter = %d, want 1", st.Requeued)
	}
}

// TestDoneJobSurvivesRestart proves a completed job's result is served
// from the on-disk blob by a fresh manager without re-running anything.
func TestDoneJobSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	r1 := newTestRunner(false)
	m1, err := New(Config{Dir: dir, Workers: 1}, r1.run)
	if err != nil {
		t.Fatalf("New m1: %v", err)
	}
	a, _ := m1.Submit("/v1/atpg", "k", []byte(`{"n":1}`), 0)
	waitState(t, m1, a.ID, Done)
	first, err := m1.Result(a.ID)
	if err != nil {
		t.Fatalf("Result m1: %v", err)
	}
	m1.Close()

	r2 := newTestRunner(false)
	m2 := newTestManager(t, Config{Dir: dir, Workers: 1}, r2.run)
	snap, ok := m2.Get(a.ID)
	if !ok || snap.State != Done {
		t.Fatalf("restarted state = %v/%s, want done", ok, snap.State)
	}
	second, err := m2.Result(a.ID)
	if err != nil {
		t.Fatalf("Result m2: %v", err)
	}
	if !bytes.Equal(first, second) {
		t.Errorf("result changed across restart: %s vs %s", first, second)
	}
	if len(r2.ranIDs()) != 0 {
		t.Error("restart re-ran an already-done job")
	}
}

// TestTornFinalJournalLine proves a crash mid-append (torn last line)
// is tolerated: everything before the tear replays.
func TestTornFinalJournalLine(t *testing.T) {
	dir := t.TempDir()
	r1 := newTestRunner(false)
	m1, err := New(Config{Dir: dir, Workers: 1}, r1.run)
	if err != nil {
		t.Fatalf("New m1: %v", err)
	}
	a, _ := m1.Submit("/v1/plan", "k", []byte(`{}`), 0)
	waitState(t, m1, a.ID, Done)
	m1.Close()

	jnl := filepath.Join(dir, a.ID+".jnl")
	f, err := os.OpenFile(jnl, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatalf("open journal: %v", err)
	}
	if _, err := f.WriteString(`{"op":"progress","stage":"torn`); err != nil {
		t.Fatalf("append torn line: %v", err)
	}
	f.Close()

	m2 := newTestManager(t, Config{Dir: dir, Workers: 1}, newTestRunner(false).run)
	snap, ok := m2.Get(a.ID)
	if !ok || snap.State != Done {
		t.Fatalf("after torn tail: ok=%v state=%s error=%q, want done", ok, snap.State, snap.Error)
	}
	if _, err := m2.Result(a.ID); err != nil {
		t.Fatalf("Result after torn tail: %v", err)
	}
}

// TestCorruptJournalMiddleFailsJob proves garbage before the final
// line marks the job failed — visible and terminal, never wedged.
func TestCorruptJournalMiddleFailsJob(t *testing.T) {
	dir := t.TempDir()
	id := "deadbeefdeadbeefdeadbeefdeadbeef"
	journal := `{"op":"create","create":{"id":"` + id + `","endpoint":"/v1/plan","key":"k","request":{},"deadline_ms":60000,"created_ms":5}}` + "\n" +
		"NOT JSON AT ALL\n" +
		`{"op":"state","state":"running","ms":6}` + "\n"
	if err := os.WriteFile(filepath.Join(dir, id+".jnl"), []byte(journal), 0o644); err != nil {
		t.Fatalf("write journal: %v", err)
	}
	m := newTestManager(t, Config{Dir: dir, Workers: 1}, newTestRunner(false).run)
	snap, ok := m.Get(id)
	if !ok {
		t.Fatal("corrupted job missing from table")
	}
	if snap.State != Failed || !strings.Contains(snap.Error, "journal corrupted") {
		t.Fatalf("corrupted journal: state=%s error=%q, want failed + journal corrupted", snap.State, snap.Error)
	}
	if len(m.queue) != 0 {
		t.Error("corrupted job was queued for execution")
	}
}

// TestDoneWithoutResultBlobFailsJob: a done record with no result blob
// means the directory was tampered with; the job must surface as failed.
func TestDoneWithoutResultBlobFailsJob(t *testing.T) {
	dir := t.TempDir()
	r1 := newTestRunner(false)
	m1, err := New(Config{Dir: dir, Workers: 1}, r1.run)
	if err != nil {
		t.Fatalf("New m1: %v", err)
	}
	a, _ := m1.Submit("/v1/plan", "k", []byte(`{}`), 0)
	waitState(t, m1, a.ID, Done)
	m1.Close()
	if err := os.Remove(filepath.Join(dir, a.ID+".res")); err != nil {
		t.Fatalf("remove blob: %v", err)
	}
	m2 := newTestManager(t, Config{Dir: dir, Workers: 1}, newTestRunner(false).run)
	snap, _ := m2.Get(a.ID)
	if snap.State != Failed || !strings.Contains(snap.Error, "result blob missing") {
		t.Fatalf("state=%s error=%q, want failed + result blob missing", snap.State, snap.Error)
	}
}

// TestCloseJoinsWorkers is the load-bearing test for the golint
// goroutine allowlist entries on Manager.New: the worker and GC
// goroutines spawned there must all be joined by Close, even with a
// job in flight.
func TestCloseJoinsWorkers(t *testing.T) {
	r := newTestRunner(true)
	m, err := New(Config{Workers: 4}, r.run)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if _, err := m.Submit("/v1/plan", "a", []byte(`{}`), 0); err != nil {
		t.Fatalf("Submit: %v", err)
	}
	<-r.started
	closed := make(chan struct{})
	go func() {
		m.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not join manager goroutines within 5s")
	}
}

func TestProgressMonotonicClamp(t *testing.T) {
	reported := make(chan struct{})
	release := make(chan struct{})
	run := func(ctx context.Context, spec Spec) ([]byte, error) {
		progress.Report(ctx, "patterns", 1, 10)
		progress.Report(ctx, "patterns", 5, 10)
		progress.Report(ctx, "patterns", 3, 10) // regression: must be clamped
		close(reported)
		select {
		case <-release:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		return []byte("ok"), nil
	}
	m := newTestManager(t, Config{Dir: t.TempDir(), Workers: 1}, run)
	a, err := m.Submit("/v1/faultsim", "k", []byte(`{}`), 0)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	<-reported
	snap, ok := m.Get(a.ID)
	if !ok || snap.Progress == nil {
		t.Fatalf("no progress visible: %+v", snap)
	}
	if snap.Progress.Done != 5 || snap.Progress.Total != 10 || snap.Progress.Stage != "patterns" {
		t.Errorf("progress = %+v, want patterns 5/10 (regression clamped)", *snap.Progress)
	}
	close(release)
	waitState(t, m, a.ID, Done)
}

func TestWatchSignalsTransitions(t *testing.T) {
	r := newTestRunner(true)
	m := newTestManager(t, Config{Workers: 1}, r.run)
	a, _ := m.Submit("/v1/plan", "k", []byte(`{}`), 0)
	_, ch, ok := m.Watch(a.ID)
	if !ok {
		t.Fatal("Watch: job missing")
	}
	<-r.started
	select {
	case <-ch:
	case <-time.After(5 * time.Second):
		t.Fatal("watch channel not signalled on queued→running")
	}
	close(r.release)
	waitState(t, m, a.ID, Done)
}

// fakeClock is a race-safe manual clock for retention tests.
type fakeClock struct{ ms atomic.Int64 }

func (c *fakeClock) now() time.Time          { return time.UnixMilli(c.ms.Load()) }
func (c *fakeClock) advance(d time.Duration) { c.ms.Add(d.Milliseconds()) }

func TestRetentionGC(t *testing.T) {
	clk := &fakeClock{}
	clk.ms.Store(1_000_000)
	dir := t.TempDir()
	r := newTestRunner(false)
	m := newTestManager(t, Config{Dir: dir, Workers: 1, Retention: time.Minute, Now: clk.now}, r.run)
	a, _ := m.Submit("/v1/plan", "a", []byte(`{}`), 0)
	waitState(t, m, a.ID, Done)
	clk.advance(2 * time.Minute)
	b, _ := m.Submit("/v1/plan", "b", []byte(`{}`), 0) // Submit sweeps
	waitState(t, m, b.ID, Done)
	if _, ok := m.Get(a.ID); ok {
		t.Error("expired job survived retention sweep")
	}
	if _, err := os.Stat(filepath.Join(dir, a.ID+".jnl")); !os.IsNotExist(err) {
		t.Errorf("expired job's journal still on disk (err=%v)", err)
	}
	if st := m.Stats(); st.Expired != 1 {
		t.Errorf("Expired counter = %d, want 1", st.Expired)
	}
}

func TestMaxJobsEvictsOldestTerminal(t *testing.T) {
	clk := &fakeClock{}
	clk.ms.Store(1_000_000)
	r := newTestRunner(false)
	m := newTestManager(t, Config{Workers: 1, MaxJobs: 2, Now: clk.now}, r.run)
	var ids []string
	for i := 0; i < 3; i++ {
		s, err := m.Submit("/v1/plan", fmt.Sprintf("k%d", i), []byte(`{}`), 0)
		if err != nil {
			t.Fatalf("Submit %d: %v", i, err)
		}
		waitState(t, m, s.ID, Done)
		clk.advance(time.Second)
		ids = append(ids, s.ID)
	}
	// The third submit's sweep ran while job 2 was queued; sweep again
	// now that all three are terminal.
	if _, err := m.Submit("/v1/plan", "k3", []byte(`{}`), 0); err != nil {
		t.Fatalf("Submit k3: %v", err)
	}
	if _, ok := m.Get(ids[0]); ok {
		t.Error("oldest terminal job survived MaxJobs eviction")
	}
	if _, ok := m.Get(ids[2]); !ok {
		t.Error("newest done job was evicted")
	}
}

func TestListSortedByCreation(t *testing.T) {
	clk := &fakeClock{}
	clk.ms.Store(1_000_000)
	r := newTestRunner(false)
	m := newTestManager(t, Config{Workers: 1, Now: clk.now}, r.run)
	var want []string
	for i := 0; i < 3; i++ {
		s, _ := m.Submit("/v1/plan", fmt.Sprintf("k%d", i), []byte(`{}`), 0)
		waitState(t, m, s.ID, Done)
		clk.advance(time.Second)
		want = append(want, s.ID)
	}
	list := m.List()
	if len(list) != 3 {
		t.Fatalf("List len = %d, want 3", len(list))
	}
	for i, s := range list {
		if s.ID != want[i] {
			t.Errorf("List[%d] = %s, want %s", i, s.ID, want[i])
		}
	}
}

func TestNewIDDistinctPerNonce(t *testing.T) {
	a, b := NewID("key", "n1"), NewID("key", "n2")
	if a == b {
		t.Error("distinct nonces produced the same job ID")
	}
	if len(a) != 32 {
		t.Errorf("ID length = %d, want 32", len(a))
	}
	if NewID("key", "n1") != a {
		t.Error("NewID not deterministic for fixed inputs")
	}
}

// TestPanickingJobFailsAndStaysFailed: a job whose run panics ends
// failed with the panic in its error, and a manager restarted on the
// same directory finds it failed, neither re-running it nor dying.
func TestPanickingJobFailsAndStaysFailed(t *testing.T) {
	dir := t.TempDir()
	m1, err := New(Config{Dir: dir, Workers: 1}, func(context.Context, Spec) ([]byte, error) {
		panic("engine fault")
	})
	if err != nil {
		t.Fatalf("New m1: %v", err)
	}
	a, err := m1.Submit("/v1/faultsim", "k", []byte(`{"n":1}`), 0)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	snap := waitState(t, m1, a.ID, Failed)
	if !strings.Contains(snap.Error, "engine fault") {
		t.Errorf("error %q does not name the panic", snap.Error)
	}
	m1.Close()

	r2 := newTestRunner(false)
	m2 := newTestManager(t, Config{Dir: dir, Workers: 1}, r2.run)
	if snap, ok := m2.Get(a.ID); !ok || snap.State != Failed {
		t.Fatalf("restarted state = %v/%s, want failed", ok, snap.State)
	}
	if len(r2.ranIDs()) != 0 {
		t.Error("restart re-ran the failed job")
	}
}
