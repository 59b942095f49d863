package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/cli"
)

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(s.Close)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// post sends one engine request and returns status, X-Cache header, and
// body bytes.
func post(t *testing.T, url, body string) (int, string, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header.Get("X-Cache"), b
}

func TestPlanRoundTripAndCacheHit(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	body := `{"generate":"c17","options":{"planner":"hybrid"}}`

	st, xc, cold := post(t, ts.URL+"/v1/plan", body)
	if st != 200 || xc != "miss" {
		t.Fatalf("cold: status=%d X-Cache=%q body=%s", st, xc, cold)
	}
	var resp planResponse
	if err := json.Unmarshal(cold, &resp); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if resp.Circuit.Name != "c17" || resp.Planner != "hybrid" {
		t.Fatalf("unexpected response: %+v", resp)
	}

	st, xc, warm := post(t, ts.URL+"/v1/plan", body)
	if st != 200 || xc != "hit" {
		t.Fatalf("warm: status=%d X-Cache=%q", st, xc)
	}
	if !bytes.Equal(cold, warm) {
		t.Fatalf("cache hit not byte-identical:\ncold: %s\nwarm: %s", cold, warm)
	}
}

// Regression: hybrid and control plans pick points against successively
// modified circuits, so a point's signal ID can exceed the original gate
// count (an earlier control point inserted the gate it refers to). Naming
// the points against the original circuit used to panic on larger DAGs.
func TestPlanNamesPointsOnModifiedCircuit(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, planner := range []string{"hybrid", "control"} {
		body := fmt.Sprintf(`{"generate":"dag:gates=600,seed=7","options":{"planner":%q}}`, planner)
		st, _, b := post(t, ts.URL+"/v1/plan", body)
		if st != 200 {
			t.Fatalf("planner=%s: status=%d body=%s", planner, st, b)
		}
		var resp planResponse
		if err := json.Unmarshal(b, &resp); err != nil {
			t.Fatalf("planner=%s: decode: %v", planner, err)
		}
		if len(resp.Points) == 0 {
			t.Fatalf("planner=%s: no points returned", planner)
		}
		for _, p := range resp.Points {
			if p.Signal == "" {
				t.Fatalf("planner=%s: point with empty signal name: %+v", planner, p)
			}
		}
	}
}

func TestEquivalentRequestsShareCacheEntry(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	c17, err := cli.Generate("c17")
	if err != nil {
		t.Fatal(err)
	}
	text := string(canonicalNetlist(c17))
	// Mangle formatting: extra blank lines and spaces around commas
	// survive parsing and must not split the cache.
	mangled := strings.ReplaceAll(text, ", ", " ,  ")
	mangled = strings.ReplaceAll(mangled, "\n", "\n\n")

	req1, _ := json.Marshal(map[string]any{"bench": text})
	req2, _ := json.Marshal(map[string]any{
		"bench": mangled,
		// Explicitly spelled defaults must canonicalize to the same key.
		"options": map[string]any{"planner": "hybrid", "k": 4, "ncp": 3, "nop": 4, "dth": 1.0 / 4096},
	})
	st, xc, cold := post(t, ts.URL+"/v1/plan", string(req1))
	if st != 200 || xc != "miss" {
		t.Fatalf("cold: status=%d X-Cache=%q", st, xc)
	}
	st, xc, warm := post(t, ts.URL+"/v1/plan", string(req2))
	if st != 200 || xc != "hit" {
		t.Fatalf("equivalent request missed the cache: status=%d X-Cache=%q", st, xc)
	}
	if !bytes.Equal(cold, warm) {
		t.Fatal("equivalent requests returned different bytes")
	}
	if cs := s.cache.Stats(); cs.Entries != 1 {
		t.Fatalf("cache entries = %d, want 1", cs.Entries)
	}
}

// TestConcurrentIdenticalRequests is acceptance criterion (a): two
// identical concurrent /v1/plan requests produce byte-identical
// responses with exactly one engine execution — one miss, one hit.
func TestConcurrentIdenticalRequests(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 4})

	var mu sync.Mutex
	var executions []string
	enter := make(chan struct{})
	release := make(chan struct{})
	testHookCompute = func(ep string) {
		mu.Lock()
		executions = append(executions, ep)
		mu.Unlock()
		close(enter)
		<-release
	}
	defer func() { testHookCompute = nil }()

	body := `{"generate":"dag:gates=120,seed=3","options":{"planner":"observe","nop":3}}`

	// Recompute the cache key the server will use, so the test can
	// observe the waiter attach deterministically.
	c, err := cli.Generate("dag:gates=120,seed=3")
	if err != nil {
		t.Fatal(err)
	}
	keyOpts, _, _, err := parsePlan(json.RawMessage(`{"planner":"observe","nop":3}`))
	if err != nil {
		t.Fatal(err)
	}
	key, err := cacheKey("/v1/plan", c, keyOpts)
	if err != nil {
		t.Fatal(err)
	}

	type result struct {
		status int
		xcache string
		body   []byte
	}
	results := make([]result, 2)
	var wg sync.WaitGroup
	launch := func(i int) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			st, xc, b := post(t, ts.URL+"/v1/plan", body)
			results[i] = result{st, xc, b}
		}()
	}
	launch(0)
	<-enter // leader holds a worker slot, engine about to run
	launch(1)
	waitFor(t, func() bool { return s.cache.pendingWaiters(key) == 1 })
	close(release)
	wg.Wait()

	if len(executions) != 1 {
		t.Fatalf("engine executed %d times, want exactly 1", len(executions))
	}
	for i, r := range results {
		if r.status != 200 {
			t.Fatalf("request %d: status %d body %s", i, r.status, r.body)
		}
	}
	if !bytes.Equal(results[0].body, results[1].body) {
		t.Fatalf("responses differ:\n%s\n%s", results[0].body, results[1].body)
	}
	got := []string{results[0].xcache, results[1].xcache}
	if !(got[0] == "miss" && got[1] == "hit") && !(got[0] == "hit" && got[1] == "miss") {
		t.Fatalf("X-Cache = %v, want one miss and one hit", got)
	}
	cs := s.cache.Stats()
	if cs.Misses != 1 || cs.Hits != 1 {
		t.Fatalf("cache stats = %+v, want 1 miss / 1 hit", cs)
	}
}

// TestCancellationFreesSaturatedPool is acceptance criterion (b): a
// request cancelled mid-simulation returns within 500ms of the
// cancellation, and a request queued behind it on a saturated pool then
// completes normally with per-fault results identical to an unloaded
// run.
func TestCancellationFreesSaturatedPool(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, RequestTimeout: time.Minute})

	started := make(chan struct{}, 2)
	testHookCompute = func(string) { started <- struct{}{} }
	defer func() { testHookCompute = nil }()

	// Request A: effectively unbounded simulation on the single worker.
	longBody := `{"generate":"dag:gates=600,seed=7","options":{"patterns":1073741824,"keep_faults":true,"full_universe":true}}`
	ctxA, cancelA := context.WithCancel(context.Background())
	defer cancelA()
	aDone := make(chan error, 1)
	go func() {
		req, _ := http.NewRequestWithContext(ctxA, http.MethodPost, ts.URL+"/v1/faultsim", strings.NewReader(longBody))
		_, err := http.DefaultClient.Do(req)
		aDone <- err
	}()
	<-started // A's engine run began: the pool is saturated

	// Request B queues behind A.
	shortBody := `{"generate":"c17","options":{"patterns":64}}`
	type bres struct {
		status int
		body   []byte
	}
	bDone := make(chan bres, 1)
	go func() {
		st, _, b := post(t, ts.URL+"/v1/faultsim", shortBody)
		bDone <- bres{st, b}
	}()
	waitFor(t, func() bool { return s.pool.Stats().Queued >= 1 })

	// Cancel A mid-simulation; its client must observe the abort fast.
	cancelStart := time.Now()
	cancelA()
	err := <-aDone
	if elapsed := time.Since(cancelStart); elapsed > 500*time.Millisecond {
		t.Fatalf("cancelled request returned after %v, want <500ms", elapsed)
	}
	if err == nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled request error = %v, want context.Canceled", err)
	}

	// B now gets the freed worker and must match an unloaded baseline
	// per-fault (byte-identical response, including first_detect).
	b := <-bDone
	if b.status != 200 {
		t.Fatalf("queued request failed after cancellation: %d %s", b.status, b.body)
	}
	testHookCompute = nil
	_, baselineTS := newTestServer(t, Config{})
	st, _, want := post(t, baselineTS.URL+"/v1/faultsim", shortBody)
	if st != 200 {
		t.Fatalf("baseline failed: %d", st)
	}
	if !bytes.Equal(b.body, want) {
		t.Fatalf("per-fault results changed under cancellation:\ngot:  %s\nwant: %s", b.body, want)
	}
}

func TestRequestTimeout(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	body := `{"generate":"dag:gates=600,seed=7","options":{"patterns":1073741824,"keep_faults":true,"timeout_ms":100}}`
	start := time.Now()
	st, _, b := post(t, ts.URL+"/v1/faultsim", body)
	if st != http.StatusGatewayTimeout {
		t.Fatalf("status = %d body=%s, want 504", st, b)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("timeout enforcement took %v", elapsed)
	}
	var e map[string]string
	if err := json.Unmarshal(b, &e); err != nil || e["error"] == "" {
		t.Fatalf("expected JSON error body, got %s", b)
	}
}

// TestEndpointTimeouts is the deadline sweep: every endpoint and
// planner, sent with a 200 ms budget to a one-worker server, on the
// worst generator families at the 10,000-gate generator bound and on
// one inline body over it. Each row must answer 200 or 504 within the
// budget plus 250 ms of the engine's start (the clock starts after the
// circuit is parsed or generated, so the hook's timestamp is the
// reference), leave the worker free at once, and serve a c17 follow-up
// promptly. Two rows pin earlier overruns on their own:
//   - lint: the static implication pass on a circuit just under its
//     3000-gate limit;
//   - atpg: after each vector, the fault-drop loop simulates every
//     remaining fault of 21,244 collapsed ones.
//
// Generating and parsing the large circuits takes seconds, and -race
// slows the engines between their polls past the bound, so every row
// but the lint one runs only without -short.
func TestEndpointTimeouts(t *testing.T) {
	const budget = 200 * time.Millisecond
	const slack = 250 * time.Millisecond
	type row struct {
		name, endpoint, body string
		long                 bool
	}
	rows := []row{
		{"lint", "/v1/lint", `{"generate":"dag:gates=2980,seed=11","options":{"timeout_ms":200}}`, false},
		{"atpg", "/v1/atpg", `{"generate":"dag:gates=5000,seed=6","options":{"timeout_ms":200}}`, true},
	}
	engines := []struct{ name, endpoint, options string }{
		{"observe", "/v1/plan", `"planner":"observe",`},
		{"control", "/v1/plan", `"planner":"control",`},
		{"hybrid", "/v1/plan", `"planner":"hybrid",`},
		{"faultsim", "/v1/faultsim", ``},
		{"atpg", "/v1/atpg", ``},
		{"atpg-learn", "/v1/atpg", `"learn":true,`},
		{"lint", "/v1/lint", ``},
	}
	circuit := func(spec string) string { return fmt.Sprintf(`"generate":%q`, spec) }
	rca, err := cli.Generate("rca:width=2000")
	if err != nil {
		t.Fatal(err)
	}
	var text strings.Builder
	if err := bench.Write(&text, rca); err != nil {
		t.Fatal(err)
	}
	inline := fmt.Sprintf(`"bench":%q`, text.String())
	for _, family := range []struct{ name, circuit string }{
		{"dag", circuit("dag:gates=9900,seed=5")},
		{"mul", circuit("mul:width=40")},
		{"rpr", circuit("rpr:cones=40,width=40,glue=2000,seed=3")},
		{"inline-rca", inline},
	} {
		for _, e := range engines {
			rows = append(rows, row{e.name + "/" + family.name, e.endpoint,
				fmt.Sprintf(`{%s,"options":{%s"timeout_ms":200}}`, family.circuit, e.options), true})
		}
	}
	// One 64-pattern block on the multiplier outlasts the budget, so
	// the short run must stop inside its only block.
	rows = append(rows, row{"faultsim/mul-patterns=64", "/v1/faultsim",
		fmt.Sprintf(`{%s,"options":{"patterns":64,"timeout_ms":200}}`, circuit("mul:width=40")), true})
	for _, planner := range []string{"cuts", "observe", "control", "hybrid"} {
		rows = append(rows, row{planner + "/tree", "/v1/plan",
			fmt.Sprintf(`{%s,"options":{"planner":%q,"timeout_ms":200}}`, circuit("tree:leaves=3333,seed=3"), planner), true})
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			if row.long && testing.Short() {
				t.Skip("circuit generation is too slow, and -race too slow between polls, under -short")
			}
			s, ts := newTestServer(t, Config{Workers: 1})
			started := make(chan time.Time, 1)
			testHookCompute = func(string) {
				select {
				case started <- time.Now():
				default:
				}
			}
			defer func() { testHookCompute = nil }()
			st, _, b := post(t, ts.URL+row.endpoint, row.body)
			answered := time.Now()
			if st != http.StatusOK && st != http.StatusGatewayTimeout {
				t.Fatalf("status = %d body=%.200s, want 200 or 504", st, b)
			}
			var start time.Time
			select {
			case start = <-started:
			default:
				t.Fatal("the engine never started")
			}
			if elapsed := answered.Sub(start); elapsed > budget+slack {
				t.Fatalf("status %d answered %v after the engine started, want <= %v", st, elapsed, budget+slack)
			}
			if running := s.pool.Stats().Running; running != 0 {
				t.Fatalf("%d worker(s) still running after the answer", running)
			}
			t.Logf("status %d after %v", st, answered.Sub(start))
			follow := time.Now()
			if st, _, b := post(t, ts.URL+row.endpoint, `{"generate":"c17"}`); st != http.StatusOK {
				t.Fatalf("follow-up: status = %d body=%s", st, b)
			}
			if elapsed := time.Since(follow); elapsed > 500*time.Millisecond {
				t.Fatalf("follow-up took %v on the freed worker", elapsed)
			}
		})
	}
}

// badRequestCases are the malformed bodies every engine endpoint
// refuses with 400; TestErrorResponsesWriteOnce sends them too.
var badRequestCases = []struct {
	name, endpoint, body string
	want                 int
}{
	{"malformed json", "/v1/plan", `{`, 400},
	{"no circuit", "/v1/plan", `{}`, 400},
	{"both circuit forms", "/v1/plan", `{"bench":"INPUT(a)\nOUTPUT(a)","generate":"c17"}`, 400},
	{"bad bench", "/v1/plan", `{"bench":"INPUT(((("}`, 400},
	{"bad generator", "/v1/plan", `{"generate":"nosuch:x=1"}`, 400},
	{"unknown planner", "/v1/plan", `{"generate":"c17","options":{"planner":"magic"}}`, 400},
	{"unknown option", "/v1/plan", `{"generate":"c17","options":{"plannner":"hybrid"}}`, 400},
	{"negative budget", "/v1/plan", `{"generate":"c17","options":{"planner":"cuts","k":-1}}`, 400},
	{"zero patterns", "/v1/faultsim", `{"generate":"c17","options":{"patterns":-5}}`, 400},
	{"bad source", "/v1/faultsim", `{"generate":"c17","options":{"source":"dice"}}`, 400},
	{"negative backtracks", "/v1/atpg", `{"generate":"c17","options":{"backtrack_limit":-1}}`, 400},
}

func TestBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, tc := range badRequestCases {
		st, _, b := post(t, ts.URL+tc.endpoint, tc.body)
		if st != tc.want {
			t.Errorf("%s: status = %d body=%s, want %d", tc.name, st, b, tc.want)
		}
		var e map[string]string
		if err := json.Unmarshal(b, &e); err != nil || e["error"] == "" {
			t.Errorf("%s: expected JSON error body, got %s", tc.name, b)
		}
	}
}

// TestOversizedGeneratorRejected pins the generator budget: specs whose
// circuits would take minutes to build, before any deadline or pool
// slot applies, get a 400 at once on the sync and async paths alike.
func TestOversizedGeneratorRejected(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, spec := range []string{"dag:gates=1000000", "tree:leaves=1000000", "mul:width=100000"} {
		for _, mode := range []string{"sync", "async"} {
			body := fmt.Sprintf(`{"generate":%q,"mode":%q,"options":{"planner":"observe"}}`, spec, mode)
			start := time.Now()
			st, _, b := post(t, ts.URL+"/v1/plan", body)
			if d := time.Since(start); d > 100*time.Millisecond {
				t.Errorf("%s (%s): rejection took %v", spec, mode, d)
			}
			if st != http.StatusBadRequest || !bytes.Contains(b, []byte("over the limit")) {
				t.Errorf("%s (%s): status = %d body=%s, want 400 naming the gate limit", spec, mode, st, b)
			}
		}
	}
}

// TestGeneratorBudgetAdmitsRepoSpecs keeps the budget clear of every
// generator spec the repo's own clients and tests send.
func TestGeneratorBudgetAdmitsRepoSpecs(t *testing.T) {
	for _, spec := range []string{
		"dag:gates=1500,seed=2",               // largest spec the cmd/serve tests send
		"dag:gates=2000,seed=1",               // servebench plan-hit inline body
		"dag:gates=1000,seed=1",               // servebench plan-hit and plan-miss
		"tree:leaves=2000,seed=1",             // servebench plan-miss cuts
		"rpr:cones=3,width=10,glue=60,seed=1", // servebench ATPG
		"dag:gates=600,seed=7",                // the timeout and cancellation tests
	} {
		if _, err := parseCircuit(&netlistRequest{Generate: spec}); err != nil {
			t.Errorf("%s: %v", spec, err)
		}
	}
}

// TestObserveBudgetBeyondCircuit: an observation budget far beyond the
// circuit plans as the gate count does, at once, instead of holding its
// handler in budget-sized knapsacks past any deadline.
func TestObserveBudgetBeyondCircuit(t *testing.T) {
	_, ts := newTestServer(t, Config{RequestTimeout: 5 * time.Second})
	_, _, want := post(t, ts.URL+"/v1/plan", `{"generate":"c17","options":{"planner":"observe","nop":11}}`)
	start := time.Now()
	st, _, got := post(t, ts.URL+"/v1/plan", `{"generate":"c17","options":{"planner":"observe","nop":1000000}}`)
	if d := time.Since(start); d > 100*time.Millisecond {
		t.Errorf("nop=1000000 on c17 took %v", d)
	}
	if st != http.StatusOK {
		t.Fatalf("status %d body %s", st, got)
	}
	var a, b planResponse
	if err := json.Unmarshal(want, &a); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(got, &b); err != nil {
		t.Fatal(err)
	}
	if a.Circuit.Gates != 11 || fmt.Sprint(a.Points) != fmt.Sprint(b.Points) || a.CoveredAfter != b.CoveredAfter {
		t.Fatalf("nop=1000000 planned %v covering %d; nop=11 planned %v covering %d", b.Points, b.CoveredAfter, a.Points, a.CoveredAfter)
	}
}

func TestMethodNotAllowed(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/v1/plan")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("status = %d, want 405", resp.StatusCode)
	}
	if allow := resp.Header.Get("Allow"); allow != "POST" {
		t.Fatalf("Allow = %q, want POST", allow)
	}
}

func TestBodyTooLarge(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxBody: 512})
	big := fmt.Sprintf(`{"bench":%q}`, strings.Repeat("# filler\n", 200))
	st, _, _ := post(t, ts.URL+"/v1/plan", big)
	if st != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d, want 413", st)
	}
}

func TestFaultsimAndATPGAndLint(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	st, _, b := post(t, ts.URL+"/v1/faultsim", `{"generate":"c17","options":{"patterns":256}}`)
	if st != 200 {
		t.Fatalf("faultsim: %d %s", st, b)
	}
	var sim simResponse
	if err := json.Unmarshal(b, &sim); err != nil {
		t.Fatal(err)
	}
	if sim.Detected == 0 || sim.Coverage <= 0 || len(sim.FirstDetect) != sim.Detected {
		t.Fatalf("implausible sim response: %+v", sim)
	}

	st, _, b = post(t, ts.URL+"/v1/atpg", `{"generate":"c17"}`)
	if st != 200 {
		t.Fatalf("atpg: %d %s", st, b)
	}
	var at atpgResponse
	if err := json.Unmarshal(b, &at); err != nil {
		t.Fatal(err)
	}
	if at.Detected == 0 || len(at.Vectors) == 0 {
		t.Fatalf("implausible atpg response: %+v", at)
	}
	if want := at.Circuit.Inputs; len(at.Vectors[0]) != want {
		t.Fatalf("vector width = %d, want %d inputs", len(at.Vectors[0]), want)
	}
	// Learned implications prune the search; they never change a
	// fault's status on c17.
	st, _, b = post(t, ts.URL+"/v1/atpg", `{"generate":"c17","options":{"learn":true}}`)
	if st != 200 {
		t.Fatalf("atpg learn: %d %s", st, b)
	}
	var learned atpgResponse
	if err := json.Unmarshal(b, &learned); err != nil {
		t.Fatal(err)
	}
	if at.Detected != learned.Detected || at.Redundant != learned.Redundant || at.Aborted != learned.Aborted {
		t.Errorf("learning changed per-fault status: plain %d/%d/%d, learned %d/%d/%d",
			at.Detected, at.Redundant, at.Aborted, learned.Detected, learned.Redundant, learned.Aborted)
	}

	st, _, b = post(t, ts.URL+"/v1/lint", `{"generate":"c17"}`)
	if st != 200 {
		t.Fatalf("lint: %d %s", st, b)
	}
	var lr lintResponse
	if err := json.Unmarshal(b, &lr); err != nil {
		t.Fatal(err)
	}
	if lr.Circuit.Name != "c17" {
		t.Fatalf("lint response: %+v", lr)
	}
}

func TestHealthzAndStats(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 3})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 || !strings.Contains(string(b), `"ok"`) {
		t.Fatalf("healthz: %d %s", resp.StatusCode, b)
	}

	// Generate one engine request so stats have content.
	if st, _, _ := post(t, ts.URL+"/v1/plan", `{"generate":"c17"}`); st != 200 {
		t.Fatal("plan request failed")
	}

	resp, err = http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	b, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	var stats Stats
	if err := json.Unmarshal(b, &stats); err != nil {
		t.Fatalf("stats decode: %v\n%s", err, b)
	}
	ep, ok := stats.Endpoints["/v1/plan"]
	if !ok || ep.Requests != 1 || ep.ByStatus["2xx"] != 1 {
		t.Fatalf("plan endpoint stats = %+v", ep)
	}
	total := int64(0)
	for _, v := range ep.LatencyMS {
		total += v
	}
	if total != 1 {
		t.Fatalf("latency histogram total = %d, want 1: %+v", total, ep.LatencyMS)
	}
	if stats.Pool.Workers != 3 {
		t.Fatalf("pool workers = %d, want 3", stats.Pool.Workers)
	}
	if stats.Cache.Misses != 1 {
		t.Fatalf("cache stats = %+v", stats.Cache)
	}
}

// TestDeterministicAcrossServers guards the canonical-response
// property the cache depends on: a fresh server must produce the same
// bytes for the same request.
func TestDeterministicAcrossServers(t *testing.T) {
	body := `{"generate":"rpr:seed=5,cones=2,width=8,glue=30","options":{"planner":"hybrid","nop":2,"ncp":2}}`
	var prev []byte
	for i := 0; i < 2; i++ {
		_, ts := newTestServer(t, Config{})
		st, _, b := post(t, ts.URL+"/v1/plan", body)
		if st != 200 {
			t.Fatalf("server %d: status %d %s", i, st, b)
		}
		if prev != nil && !bytes.Equal(prev, b) {
			t.Fatalf("responses differ across servers:\n%s\n%s", prev, b)
		}
		prev = b
	}
}

// TestCounterSourceOverInputLimitRefused: a counter source over a
// circuit wider than pattern.NewCounter enumerates is refused with 400
// naming the limit, on the sync path and, before any job is accepted,
// on the async path. The engine used to panic on it.
func TestCounterSourceOverInputLimitRefused(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	for _, mode := range []string{"sync", "async"} {
		body := fmt.Sprintf(`{"generate":"mul:width=16","mode":%q,"options":{"source":"counter"}}`, mode)
		st, _, b := post(t, ts.URL+"/v1/faultsim", body)
		if st != http.StatusBadRequest || !bytes.Contains(b, []byte("supports 1 to 30 inputs, circuit has 32")) {
			t.Errorf("%s: status %d body %s, want 400 naming the 30-input limit", mode, st, b)
		}
	}
	if n := len(s.jobs.List()); n != 0 {
		t.Errorf("%d jobs accepted, want none", n)
	}
	if st, _, b := post(t, ts.URL+"/v1/faultsim", `{"generate":"c17","options":{"source":"counter"}}`); st != http.StatusOK {
		t.Errorf("counter source on c17: status %d body %s, want 200", st, b)
	}
}

// TestEnginePanicAnswers500: an engine run that panics answers 500 with
// a JSON error body, frees its worker slot and caches nothing, so the
// next identical request is computed.
func TestEnginePanicAnswers500(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	var runs atomic.Int32
	testHookCompute = func(string) {
		if runs.Add(1) == 1 {
			panic("engine fault")
		}
	}
	defer func() { testHookCompute = nil }()

	body := `{"generate":"c17","options":{"planner":"observe"}}`
	st, _, b := post(t, ts.URL+"/v1/plan", body)
	var e map[string]string
	if err := json.Unmarshal(b, &e); st != http.StatusInternalServerError || err != nil || e["error"] == "" {
		t.Errorf("panicking run: status %d body %s, want 500 with a JSON error", st, b)
	}
	st, xc, b := post(t, ts.URL+"/v1/plan", body)
	if st != http.StatusOK || xc != "miss" {
		t.Errorf("repeat: status %d X-Cache %q body %s, want a computed 200", st, xc, b)
	}
	if n := runs.Load(); n != 2 {
		t.Errorf("engine ran %d times, want 2", n)
	}
	if p := s.Stats().Pool; p.Running != 0 {
		t.Errorf("pool after the panic: %+v, want no slot held", p)
	}
}

// TestRequestPanicAnswers500: a panic before the engine runs, here in
// the options parser, is answered 500 with one JSON body on both the
// full path and a memoized body's re-materialization, holds no worker,
// and is counted under its endpoint.
func TestRequestPanicAnswers500(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	var panicking atomic.Bool
	parse := func(raw json.RawMessage) (any, int, runFunc, error) {
		if panicking.Load() {
			panic("parser fault")
		}
		return parsePlan(raw)
	}
	h := s.engineHandler("/v1/plan", parse)
	body := `{"generate":"c17","options":{"planner":"observe"}}`
	send := func() *httptest.ResponseRecorder {
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, httptest.NewRequest(http.MethodPost, "/v1/plan", strings.NewReader(body)))
		return rr
	}
	check := func(what string, rr *httptest.ResponseRecorder) {
		t.Helper()
		dec := json.NewDecoder(rr.Body)
		var e map[string]string
		if err := dec.Decode(&e); rr.Code != http.StatusInternalServerError || err != nil || e["error"] == "" {
			t.Fatalf("%s: status %d error %v body %v, want 500 with a JSON error", what, rr.Code, err, e)
		}
		if dec.More() {
			t.Fatalf("%s: more than one JSON value in the body", what)
		}
	}
	panicking.Store(true)
	check("full path", send())
	// Memoize the body, evict its result, and panic on the rebuild the
	// memo hit needs.
	panicking.Store(false)
	if rr := send(); rr.Code != http.StatusOK {
		t.Fatalf("status %d body %s, want 200", rr.Code, rr.Body)
	}
	s.cache = NewCache(1)
	panicking.Store(true)
	check("memo hit", send())
	if p := s.Stats().Pool; p.Running != 0 {
		t.Errorf("pool after the panics: %+v, want no slot held", p)
	}
	st := s.Stats()
	if got := st.Endpoints["/v1/plan"].ByStatus["5xx"]; got != 2 {
		t.Errorf("/v1/plan counted %d answers 5xx, want 2 (%+v)", got, st.Endpoints["/v1/plan"])
	}
	if st.InFlight != 0 {
		t.Errorf("%d requests still in flight", st.InFlight)
	}
}
