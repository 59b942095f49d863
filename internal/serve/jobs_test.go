package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/jobs"
)

// getJob fetches GET /v1/jobs/{id} and decodes the status response.
func getJob(t *testing.T, base, id string) (int, jobStatusResponse) {
	t.Helper()
	resp, err := http.Get(base + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var js jobStatusResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(b, &js); err != nil {
			t.Fatalf("decode job status: %v\n%s", err, b)
		}
	}
	return resp.StatusCode, js
}

// waitJob polls GET /v1/jobs/{id} until the job reaches want, failing
// on any other terminal state.
func waitJob(t *testing.T, base, id string, want jobs.State) jobStatusResponse {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		st, js := getJob(t, base, id)
		if st != http.StatusOK {
			t.Fatalf("GET job %s: status %d", id, st)
		}
		if js.State == want {
			return js
		}
		if js.State.Terminal() {
			t.Fatalf("job %s reached %s (error %q), want %s", id, js.State, js.Error, want)
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s did not reach %s within 10s", id, want)
	return jobStatusResponse{}
}

// submitAsync posts an engine request with mode=async and returns the
// decoded 202 acknowledgment.
func submitAsync(t *testing.T, url, body string) submitResponse {
	t.Helper()
	st, _, b := post(t, url, body)
	if st != http.StatusAccepted {
		t.Fatalf("async submit: status %d body %s", st, b)
	}
	var sub submitResponse
	if err := json.Unmarshal(b, &sub); err != nil {
		t.Fatalf("decode 202: %v\n%s", err, b)
	}
	if sub.Job.ID == "" || sub.Job.State != jobs.Queued {
		t.Fatalf("implausible 202 body: %s", b)
	}
	return sub
}

// TestAsyncResultByteIdenticalToSync is the async acceptance pin: the
// result of an async job equals, byte for byte, the synchronous
// response an independent server computes for the same request.
func TestAsyncResultByteIdenticalToSync(t *testing.T) {
	_, ts := newTestServer(t, Config{JobDir: t.TempDir()})
	body := `{"generate":"dag:gates=120,seed=3","options":{"planner":"observe","nop":3},"mode":"async"}`
	sub := submitAsync(t, ts.URL+"/v1/plan", body)
	done := waitJob(t, ts.URL, sub.Job.ID, jobs.Done)
	if len(done.Result) == 0 {
		t.Fatal("done job carries no result")
	}

	syncBody := `{"generate":"dag:gates=120,seed=3","options":{"planner":"observe","nop":3}}`
	_, baseline := newTestServer(t, Config{})
	st, _, want := post(t, baseline.URL+"/v1/plan", syncBody)
	if st != 200 {
		t.Fatalf("baseline sync: status %d", st)
	}
	if !bytes.Equal(done.Result, want) {
		t.Fatalf("async result differs from sync response:\nasync: %s\nsync:  %s", done.Result, want)
	}

	// The job counters must be visible on /v1/stats.
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var stats Stats
	if err := json.Unmarshal(b, &stats); err != nil {
		t.Fatalf("stats decode: %v", err)
	}
	if stats.Jobs.Submitted != 1 || stats.Jobs.Done != 1 || stats.Jobs.JournalFsyncs == 0 {
		t.Fatalf("job stats = %+v, want 1 submitted, 1 done, >0 fsyncs", stats.Jobs)
	}
}

// TestAsyncIdenticalSubmissionsShareOneEngineRun is the dedupe
// acceptance pin: two identical concurrent async submissions become
// two distinct jobs but exactly one engine execution, through the same
// single-flight cache the synchronous path uses.
func TestAsyncIdenticalSubmissionsShareOneEngineRun(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 4})

	var mu sync.Mutex
	executions := 0
	enter := make(chan struct{})
	release := make(chan struct{})
	testHookCompute = func(string) {
		mu.Lock()
		executions++
		mu.Unlock()
		close(enter)
		<-release
	}
	defer func() { testHookCompute = nil }()

	body := `{"generate":"dag:gates=120,seed=3","options":{"planner":"observe","nop":3},"mode":"async"}`
	keyOpts, _, _, err := parsePlan(json.RawMessage(`{"planner":"observe","nop":3}`))
	if err != nil {
		t.Fatal(err)
	}
	key := mustPlanKey(t, "dag:gates=120,seed=3", keyOpts)

	subA := submitAsync(t, ts.URL+"/v1/plan", body)
	<-enter // job A's engine run holds the single-flight leadership
	subB := submitAsync(t, ts.URL+"/v1/plan", body)
	if subA.Job.ID == subB.Job.ID {
		t.Fatal("identical submissions shared a job ID; IDs must be per-submission")
	}
	waitFor(t, func() bool { return s.cache.pendingWaiters(key) == 1 })
	close(release)

	resA := waitJob(t, ts.URL, subA.Job.ID, jobs.Done)
	resB := waitJob(t, ts.URL, subB.Job.ID, jobs.Done)
	if executions != 1 {
		t.Fatalf("engine executed %d times for identical submissions, want exactly 1", executions)
	}
	if !bytes.Equal(resA.Result, resB.Result) {
		t.Fatalf("deduped jobs returned different bytes:\n%s\n%s", resA.Result, resB.Result)
	}
}

// mustPlanKey recomputes the cache key the server derives for a
// /v1/plan request over a generator spec.
func mustPlanKey(t *testing.T, spec string, keyOpts any) string {
	t.Helper()
	req := netlistRequest{Generate: spec}
	c, err := parseCircuit(&req)
	if err != nil {
		t.Fatal(err)
	}
	key, err := cacheKey("/v1/plan", c, keyOpts)
	if err != nil {
		t.Fatal(err)
	}
	return key
}

// TestAsyncQueueFullGets429 pins the bounded-queue behavior: past
// saturation, submissions are refused with 429 and Retry-After — fast
// back-pressure, not a timeout.
func TestAsyncQueueFullGets429(t *testing.T) {
	// Cleanup order matters: the hook restore is registered before the
	// server so it runs after Close has joined the workers (no racing
	// read), and release closes first so those workers can drain.
	enter := make(chan struct{}, 1)
	release := make(chan struct{})
	testHookCompute = func(string) {
		select {
		case enter <- struct{}{}:
		default: // the queued job runs after release; only the first signals
		}
		<-release
	}
	t.Cleanup(func() { testHookCompute = nil })
	_, ts := newTestServer(t, Config{Workers: 1, JobQueue: 1})
	t.Cleanup(func() { close(release) })

	bodyFor := func(seed int) string {
		return fmt.Sprintf(`{"generate":"dag:gates=120,seed=%d","options":{"planner":"observe"},"mode":"async"}`, seed)
	}
	submitAsync(t, ts.URL+"/v1/plan", bodyFor(1))
	<-enter                                       // worker busy, queue empty
	submitAsync(t, ts.URL+"/v1/plan", bodyFor(2)) // fills the queue

	resp, err := http.Post(ts.URL+"/v1/plan", "application/json", strings.NewReader(bodyFor(3)))
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-queue submit: status %d body %s, want 429", resp.StatusCode, b)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
}

// TestAsyncCancelMidRun pins cooperative cancellation over HTTP: a
// DELETE lands within 500ms on a job in the middle of a long fault
// simulation, via the engine's existing context polls. It also checks
// the job reported monotonic progress while it ran.
func TestAsyncCancelMidRun(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	body := `{"generate":"dag:gates=600,seed=7","options":{"patterns":1073741824,"keep_faults":true,"full_universe":true},"mode":"async"}`
	sub := submitAsync(t, ts.URL+"/v1/faultsim", body)
	// Wait until the engine has visibly started reporting progress.
	var seen jobStatusResponse
	waitFor(t, func() bool {
		_, js := getJob(t, ts.URL, sub.Job.ID)
		seen = js
		return js.State == jobs.Running && js.Progress != nil
	})
	if seen.Progress.Stage != "patterns" || seen.Progress.Total == 0 {
		t.Fatalf("implausible progress: %+v", *seen.Progress)
	}

	start := time.Now()
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+sub.Job.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE: status %d", resp.StatusCode)
	}
	waitJob(t, ts.URL, sub.Job.ID, jobs.Canceled)
	if elapsed := time.Since(start); elapsed > 500*time.Millisecond {
		t.Fatalf("cancellation took %v, want < 500ms", elapsed)
	}
}

// TestAsyncCancelQueuedJob pins pre-run cancellation: a DELETE on a
// still-queued job cancels it immediately and it never executes.
func TestAsyncCancelQueuedJob(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, JobQueue: 4})

	enter := make(chan struct{})
	release := make(chan struct{})
	ran := make(chan string, 4)
	testHookCompute = func(ep string) {
		ran <- ep
		close(enter)
		<-release
	}
	defer func() { testHookCompute = nil }()

	submitAsync(t, ts.URL+"/v1/plan", `{"generate":"dag:gates=120,seed=1","options":{"planner":"observe"},"mode":"async"}`)
	<-enter
	queued := submitAsync(t, ts.URL+"/v1/atpg", `{"generate":"c17","mode":"async"}`)

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+queued.Job.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var snap jobs.Snapshot
	if err := json.Unmarshal(b, &snap); err != nil {
		t.Fatal(err)
	}
	if snap.State != jobs.Canceled {
		t.Fatalf("queued job after DELETE: %s, want canceled immediately", snap.State)
	}
	close(release)
	waitFor(t, func() bool { return len(ran) == 1 }) // only the first job ever ran
}

// TestAsyncRestartRecovery is the serve-level durability pin: jobs
// interrupted by a dead server are re-queued by the next one on the
// same -job-dir, finish there, and return bytes identical to an
// independent synchronous run.
func TestAsyncRestartRecovery(t *testing.T) {
	dir := t.TempDir()

	// Server 1: one worker. A long simulation occupies it and a small
	// ATPG job sits queued behind it; the server dies with both
	// incomplete (Close journals nothing terminal, exactly like SIGKILL).
	s1, err := New(Config{Workers: 1, JobDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(s1.Handler())
	enter := make(chan struct{}, 4)
	testHookCompute = func(string) { enter <- struct{}{} }
	defer func() { testHookCompute = nil }()

	longBody := `{"generate":"dag:gates=600,seed=7","options":{"patterns":1073741824,"keep_faults":true,"full_universe":true},"mode":"async"}`
	long := submitAsync(t, ts1.URL+"/v1/faultsim", longBody)
	<-enter // the long job is running
	small := submitAsync(t, ts1.URL+"/v1/atpg", `{"generate":"c17","mode":"async"}`)
	ts1.Close()
	s1.Close() // aborts the long engine run via its context; no terminal record

	// Server 2: two workers, same directory. Both jobs come back
	// re-queued; the small one completes next to the re-running long one.
	s2, err := New(Config{Workers: 2, JobDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s2.Close)
	ts2 := httptest.NewServer(s2.Handler())
	t.Cleanup(ts2.Close)

	st, longSnap := getJob(t, ts2.URL, long.Job.ID)
	if st != http.StatusOK || !longSnap.Requeued {
		t.Fatalf("long job after restart: status %d snapshot %+v, want requeued", st, longSnap.Snapshot)
	}
	doneSmall := waitJob(t, ts2.URL, small.Job.ID, jobs.Done)
	if !doneSmall.Requeued {
		t.Error("recovered small job lost its requeued marker")
	}

	_, baseline := newTestServer(t, Config{})
	bst, _, want := post(t, baseline.URL+"/v1/atpg", `{"generate":"c17"}`)
	if bst != 200 {
		t.Fatalf("baseline: status %d", bst)
	}
	if !bytes.Equal(doneSmall.Result, want) {
		t.Fatalf("recovered result differs from sync baseline:\ngot:  %s\nwant: %s", doneSmall.Result, want)
	}

	// The re-running long job cancels cleanly on the new server.
	waitJob(t, ts2.URL, long.Job.ID, jobs.Running)
	req, _ := http.NewRequest(http.MethodDelete, ts2.URL+"/v1/jobs/"+long.Job.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	waitJob(t, ts2.URL, long.Job.ID, jobs.Canceled)
}

// TestJobEventsStream pins the streaming surface: the events endpoint
// emits JSON lines from the current state through the terminal one.
func TestJobEventsStream(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})

	enter := make(chan struct{})
	release := make(chan struct{})
	testHookCompute = func(string) {
		close(enter)
		<-release
	}
	defer func() { testHookCompute = nil }()

	sub := submitAsync(t, ts.URL+"/v1/faultsim", `{"generate":"c17","options":{"patterns":4096},"mode":"async"}`)
	<-enter // running, engine gated: the stream's first line is deterministic

	resp, err := http.Get(ts.URL + "/v1/jobs/" + sub.Job.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("Content-Type = %q", ct)
	}
	sc := bufio.NewScanner(resp.Body)
	var lines []jobs.Snapshot
	first := true
	for sc.Scan() {
		var snap jobs.Snapshot
		if err := json.Unmarshal(sc.Bytes(), &snap); err != nil {
			t.Fatalf("bad stream line %q: %v", sc.Text(), err)
		}
		lines = append(lines, snap)
		if first {
			first = false
			if snap.State != jobs.Running {
				t.Fatalf("first streamed state = %s, want running", snap.State)
			}
			close(release) // let the engine finish while we keep reading
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(lines) < 2 {
		t.Fatalf("stream produced %d lines, want at least running + done", len(lines))
	}
	if last := lines[len(lines)-1]; last.State != jobs.Done {
		t.Fatalf("stream ended on %s, want done", last.State)
	}
}

func TestJobListAndNotFound(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	sub := submitAsync(t, ts.URL+"/v1/atpg", `{"generate":"c17","mode":"async"}`)
	waitJob(t, ts.URL, sub.Job.ID, jobs.Done)

	resp, err := http.Get(ts.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var list map[string][]jobs.Snapshot
	if err := json.Unmarshal(b, &list); err != nil {
		t.Fatalf("decode list: %v\n%s", err, b)
	}
	if len(list["jobs"]) != 1 || list["jobs"][0].ID != sub.Job.ID {
		t.Fatalf("job list = %s", b)
	}

	if st, _ := getJob(t, ts.URL, "no-such-job"); st != http.StatusNotFound {
		t.Fatalf("GET unknown job: status %d, want 404", st)
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/no-such-job", nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusNotFound {
		t.Fatalf("DELETE unknown job: status %d, want 404", dresp.StatusCode)
	}
}

func TestPreferHeaderRequestsAsync(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/atpg", strings.NewReader(`{"generate":"c17"}`))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Prefer", "respond-async, wait=10")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("Prefer respond-async: status %d body %s, want 202", resp.StatusCode, b)
	}
	if loc := resp.Header.Get("Location"); !strings.HasPrefix(loc, "/v1/jobs/") {
		t.Fatalf("Location = %q", loc)
	}
}

func TestAsyncModeValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	if st, _, b := post(t, ts.URL+"/v1/plan", `{"generate":"c17","mode":"later"}`); st != 400 {
		t.Fatalf("unknown mode: status %d body %s, want 400", st, b)
	}
	if st, _, b := post(t, ts.URL+"/v1/lint", `{"generate":"c17","mode":"async"}`); st != 400 {
		t.Fatalf("async lint: status %d body %s, want 400", st, b)
	}
	// mode=sync is accepted and behaves synchronously.
	if st, _, _ := post(t, ts.URL+"/v1/plan", `{"generate":"c17","mode":"sync"}`); st != 200 {
		t.Fatalf("mode=sync: status %d, want 200", st)
	}
}

// TestDrainStreamsEndsEventSubscriber pins the shutdown-ordering
// contract: DrainStreams ends every open /v1/jobs/{id}/events stream
// cleanly even while the watched job is still running, so a graceful
// drain never blocks on a subscriber waiting for a snapshot that will
// not come.
func TestDrainStreamsEndsEventSubscriber(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})

	enter := make(chan struct{})
	release := make(chan struct{})
	testHookCompute = func(string) {
		close(enter)
		<-release
	}
	defer func() { testHookCompute = nil }()
	defer close(release) // ungate the engine so Close can join the worker

	sub := submitAsync(t, ts.URL+"/v1/faultsim", `{"generate":"c17","options":{"patterns":4096},"mode":"async"}`)
	<-enter // running, engine gated: the stream cannot end on its own

	resp, err := http.Get(ts.URL + "/v1/jobs/" + sub.Job.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	if !sc.Scan() {
		t.Fatalf("stream ended before its first line: %v", sc.Err())
	}
	var first jobs.Snapshot
	if err := json.Unmarshal(sc.Bytes(), &first); err != nil {
		t.Fatalf("bad stream line %q: %v", sc.Text(), err)
	}
	if first.State != jobs.Running {
		t.Fatalf("first streamed state = %s, want running", first.State)
	}

	// The subscriber is now parked on the watch channel. Draining must
	// end the stream cleanly (EOF, no error) without the job finishing.
	eof := make(chan error, 1)
	go func() {
		for sc.Scan() {
		}
		eof <- sc.Err()
	}()
	s.DrainStreams()
	select {
	case err := <-eof:
		if err != nil {
			t.Errorf("drained stream ended with %v, want clean EOF", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("DrainStreams did not end the blocked event stream")
	}

	// The job itself is untouched by the drain: still running until the
	// engine is released.
	if st, js := getJob(t, ts.URL, sub.Job.ID); st != http.StatusOK || js.State != jobs.Running {
		t.Errorf("after drain: status=%d state=%s, want 200 running", st, js.State)
	}

	// DrainStreams is idempotent, and post-drain subscriptions end
	// immediately instead of hanging a half-shut-down server.
	s.DrainStreams()
	resp2, err := http.Get(ts.URL + "/v1/jobs/" + sub.Job.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	done := make(chan struct{})
	go func() {
		_, _ = io.Copy(io.Discard, resp2.Body)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("post-drain subscription did not end promptly")
	}
}
