package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"expvar"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cli"
	"repro/internal/jobs"
)

// memoized peeks at the memo entry for one request body without
// counting a hit or a miss.
func memoized(s *Server, endpoint, body string) (memoEntry, bool) {
	s.memo.mu.Lock()
	defer s.memo.mu.Unlock()
	el, ok := s.memo.items[bodyDigest(endpoint, []byte(body))]
	if !ok {
		return memoEntry{}, false
	}
	return el.Value.(*memoItem).entry, true
}

// fullPathKey derives body's cache key the long way, independently of
// derive: cacheKey(endpoint, c, keyOpts).
func fullPathKey(t *testing.T, s *Server, endpoint, body string) string {
	t.Helper()
	var req netlistRequest
	if err := json.Unmarshal([]byte(body), &req); err != nil {
		t.Fatal(err)
	}
	c, err := parseCircuit(&req)
	if err != nil {
		t.Fatal(err)
	}
	keyOpts, _, _, err := s.parsers[endpoint](req.Options)
	if err != nil {
		t.Fatal(err)
	}
	key, err := cacheKey(endpoint, c, keyOpts)
	if err != nil {
		t.Fatal(err)
	}
	return key
}

// postPrefer posts body with a Prefer: respond-async header.
func postPrefer(t *testing.T, url, body string) (int, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Prefer", "respond-async")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, b
}

// TestMemoKeyEqualsFullPathKey: for inline and generator bodies on all
// four endpoints, with default, explicitly spelled default and
// non-default options, the memoized key is the full-path key, and the
// memo-served repeat is a byte-identical cache hit.
func TestMemoKeyEqualsFullPathKey(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	dag, err := cli.Generate("dag:gates=40,seed=2")
	if err != nil {
		t.Fatal(err)
	}
	circuits := []string{`"generate":"c17"`, fmt.Sprintf(`"bench":%q`, canonicalNetlist(dag))}
	options := map[string][]string{
		"/v1/plan": {``, `,"options":{"planner":"hybrid","k":4,"ncp":3,"nop":4,"dth":0.000244140625,"max_candidates":0}`,
			`,"options":{"planner":"observe","nop":2,"timeout_ms":60000}`, `,"options":{"planner":"control","ncp":1}`},
		"/v1/faultsim": {``, `,"options":{"patterns":4096,"source":"lfsr","seed":1}`,
			`,"options":{"patterns":64,"source":"counter","keep_faults":true,"count_detections":true}`},
		"/v1/atpg": {``, `,"options":{"backtrack_limit":0,"full_universe":false,"learn":false}`,
			`,"options":{"backtrack_limit":100,"learn":true}`},
		"/v1/lint": {``, `,"options":{}`, `,"options":{"timeout_ms":5000}`},
	}
	hits := int64(0)
	for _, endpoint := range []string{"/v1/plan", "/v1/faultsim", "/v1/atpg", "/v1/lint"} {
		for _, circuit := range circuits {
			for _, opts := range options[endpoint] {
				body := "{" + circuit + opts + "}"
				name := endpoint + " " + body[:min(len(body), 40)] + " " + opts
				st, _, cold := post(t, ts.URL+endpoint, body)
				if st != http.StatusOK {
					t.Fatalf("%s: cold status %d body %s", name, st, cold)
				}
				e, ok := memoized(s, endpoint, body)
				if !ok {
					t.Fatalf("%s: a successful body was not memoized", name)
				}
				if want := fullPathKey(t, s, endpoint, body); e.key != want {
					t.Fatalf("%s: memoized key %s, full-path key %s", name, e.key, want)
				}
				st, xc, warm := post(t, ts.URL+endpoint, body)
				hits++
				if st != http.StatusOK || xc != "hit" {
					t.Fatalf("%s: repeat status %d X-Cache %q", name, st, xc)
				}
				if !bytes.Equal(cold, warm) {
					t.Fatalf("%s: memo-served repeat differs from the cold response", name)
				}
				if got := s.memo.stats().Hits; got != hits {
					t.Fatalf("%s: key memo hits = %d, want %d", name, got, hits)
				}
			}
		}
	}
}

// TestMemoWhitespaceVariantTakesFullPath: a body differing only in
// whitespace misses the memo, takes the full path, and lands on the
// same canonical key and cached bytes.
func TestMemoWhitespaceVariantTakesFullPath(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	body := `{"generate":"c17","options":{"planner":"hybrid"}}`
	spaced := `{ "generate": "c17", "options": { "planner": "hybrid" } }`
	_, _, cold := post(t, ts.URL+"/v1/plan", body)
	before := s.Stats()
	st, xc, warm := post(t, ts.URL+"/v1/plan", spaced)
	if st != http.StatusOK || xc != "hit" || !bytes.Equal(cold, warm) {
		t.Fatalf("whitespace variant: status %d X-Cache %q, same bytes %v", st, xc, bytes.Equal(cold, warm))
	}
	after := s.Stats()
	if after.KeyMemo.Misses != before.KeyMemo.Misses+1 || after.KeyMemo.Hits != before.KeyMemo.Hits {
		t.Fatalf("key memo %+v -> %+v, want one more miss and no hit", before.KeyMemo, after.KeyMemo)
	}
	a, _ := memoized(s, "/v1/plan", body)
	b, _ := memoized(s, "/v1/plan", spaced)
	if a.key == "" || a.key != b.key || after.KeyMemo.Entries != 2 {
		t.Fatalf("variants memoized as %q and %q (%d entries), want one key under two entries", a.key, b.key, after.KeyMemo.Entries)
	}
}

// TestMemoSkipsRefusedBodies: a body that gets a 4xx answers the same
// way twice and never enters the memo, whether the envelope, the
// options, the engine or the async submission refused it.
func TestMemoSkipsRefusedBodies(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	cases := []struct{ endpoint, body string }{
		{"/v1/plan", `{`},
		{"/v1/plan", `{"generate":"c17","mode":"later"}`},
		{"/v1/plan", `{"generate":"nosuch:x=1"}`},
		{"/v1/plan", `{"generate":"c17","options":{"planner":"magic"}}`},
		{"/v1/plan", `{"generate":"c17","options":{"planner":"cuts","k":-1}}`},
		{"/v1/lint", `{"generate":"c17","mode":"async"}`},
	}
	for _, tc := range cases {
		st1, _, b1 := post(t, ts.URL+tc.endpoint, tc.body)
		st2, _, b2 := post(t, ts.URL+tc.endpoint, tc.body)
		if st1 != http.StatusBadRequest || st2 != st1 || !bytes.Equal(b1, b2) {
			t.Errorf("%s %s: answered %d %s then %d %s, want the same 400 twice", tc.endpoint, tc.body, st1, b1, st2, b2)
		}
	}
	if ms := s.memo.stats(); ms.Entries != 0 || ms.Hits != 0 {
		t.Fatalf("refused bodies reached the memo: %+v", ms)
	}
}

// TestMemoAsync: Prefer: respond-async turns a memoized sync body into
// a 202, a memoized "mode":"async" body is submitted again straight
// from the memo, and every job result is the sync response's bytes.
func TestMemoAsync(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	syncBody := `{"generate":"c17","options":{"planner":"observe"}}`
	asyncBody := `{"generate":"c17","mode":"async","options":{"planner":"observe"}}`
	st, _, want := post(t, ts.URL+"/v1/plan", syncBody)
	if st != http.StatusOK {
		t.Fatalf("sync: status %d", st)
	}

	st, b := postPrefer(t, ts.URL+"/v1/plan", syncBody)
	if st != http.StatusAccepted {
		t.Fatalf("Prefer: respond-async on a memoized sync body: status %d body %s, want 202", st, b)
	}
	var ids []string
	var sub submitResponse
	if err := json.Unmarshal(b, &sub); err != nil {
		t.Fatal(err)
	}
	ids = append(ids, sub.Job.ID)
	for i := 0; i < 2; i++ {
		ids = append(ids, submitAsync(t, ts.URL+"/v1/plan", asyncBody).Job.ID)
	}
	if _, ok := memoized(s, "/v1/plan", asyncBody); !ok {
		t.Fatal("an accepted async body was not memoized")
	}
	for _, id := range ids {
		if done := waitJob(t, ts.URL, id, jobs.Done); !bytes.Equal(done.Result, want) {
			t.Fatalf("job %s result differs from the sync response", id)
		}
	}
	// The Prefer POST and the second async POST hit the memo on the
	// request path, and each job hits it again when it re-derives its
	// key from the journaled body — except that the first async job may
	// start before its own submission's memo insert.
	if got := s.memo.stats().Hits; got < 4 || got > 5 {
		t.Fatalf("key memo hits = %d, want 4 or 5", got)
	}
}

// TestMemoHitResultMissRunsEngine: with a cache too small to keep any
// result, a memo hit finds no result, takes the full path, runs the
// engine again, and honours timeout_ms.
func TestMemoHitResultMissRunsEngine(t *testing.T) {
	s, ts := newTestServer(t, Config{CacheBytes: 1, Workers: 1})
	var runs atomic.Int64
	var stall atomic.Bool
	testHookCompute = func(string) {
		runs.Add(1)
		if stall.Load() {
			// Outlast timeout_ms, so the engine starts past its deadline.
			time.Sleep(300 * time.Millisecond)
		}
	}
	defer func() { testHookCompute = nil }()

	body := `{"generate":"c17","options":{"planner":"observe","timeout_ms":100}}`
	st, xc, cold := post(t, ts.URL+"/v1/plan", body)
	if st != http.StatusOK || xc != "miss" {
		t.Fatalf("cold: status %d X-Cache %q", st, xc)
	}
	st, xc, again := post(t, ts.URL+"/v1/plan", body)
	if st != http.StatusOK || xc != "miss" || !bytes.Equal(cold, again) {
		t.Fatalf("memo hit, result miss: status %d X-Cache %q, same bytes %v", st, xc, bytes.Equal(cold, again))
	}
	stall.Store(true)
	st, _, b := post(t, ts.URL+"/v1/plan", body)
	if st != http.StatusGatewayTimeout {
		t.Fatalf("memo hit past timeout_ms: status %d body %s, want 504", st, b)
	}
	if n := runs.Load(); n != 3 {
		t.Fatalf("engine ran %d times, want 3", n)
	}
	if ms, cs := s.memo.stats(), s.cache.Stats(); ms.Hits != 2 || cs.Misses != 3 || cs.Hits != 0 {
		t.Fatalf("key memo %+v, cache %+v: want 2 memo hits and 3 cache misses", ms, cs)
	}
}

// TestMemoHitResultMissKeepsKey: a memo hit whose result has left the
// cache rebuilds the circuit and runner but not the key. With the memo
// entry's key replaced, the engine's result lands under that key, so
// the body was neither canonicalized nor hashed again.
func TestMemoHitResultMissKeepsKey(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	body := `{"generate":"c17","options":{"planner":"observe"}}`
	st, _, cold := post(t, ts.URL+"/v1/plan", body)
	if st != http.StatusOK {
		t.Fatalf("cold: status %d", st)
	}
	e, _ := memoized(s, "/v1/plan", body)
	e.key = "planted"
	s.memo.put(bodyDigest("/v1/plan", []byte(body)), e)
	st, xc, again := post(t, ts.URL+"/v1/plan", body)
	if st != http.StatusOK || xc != "miss" || !bytes.Equal(cold, again) {
		t.Fatalf("memo hit, result miss: status %d X-Cache %q, same bytes %v", st, xc, bytes.Equal(cold, again))
	}
	if val, ok := s.cache.Get("planted"); !ok || !bytes.Equal(val, cold) {
		t.Fatal("the engine's result is not cached under the memoized key")
	}
}

// TestExecuteJobRederivesKey: a journal body that no longer matches its
// recorded key gets the key of what it says. Its digest is its own, so
// a memoized key for another body cannot leak onto it.
func TestExecuteJobRederivesKey(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	bodyA := `{"generate":"c17","options":{"planner":"observe"}}`
	bodyB := `{"generate":"c17","options":{"planner":"control","ncp":1}}`
	if st, _, _ := post(t, ts.URL+"/v1/plan", bodyA); st != http.StatusOK {
		t.Fatal("body A failed")
	}
	keyA, _ := memoized(s, "/v1/plan", bodyA)
	got, err := s.executeJob(context.Background(), jobs.Spec{Endpoint: "/v1/plan", Key: keyA.key, Request: []byte(bodyB)})
	if err != nil {
		t.Fatal(err)
	}
	_, xc, want := post(t, ts.URL+"/v1/plan", bodyB)
	if xc != "hit" || !bytes.Equal(got, want) {
		t.Fatalf("tampered job body: X-Cache %q, result matches body B %v", xc, bytes.Equal(got, want))
	}
	if keyB, _ := memoized(s, "/v1/plan", bodyB); keyB.key == keyA.key || keyB.key != fullPathKey(t, s, "/v1/plan", bodyB) {
		t.Fatalf("body B memoized under %s, want its own full-path key", keyB.key)
	}
}

// TestKeyMemoBounded: the memo holds at most its cap, evicting the
// least recently used entry, and a get refreshes recency.
func TestKeyMemoBounded(t *testing.T) {
	m := newKeyMemo(3)
	digest := func(i int) [32]byte { return bodyDigest("/v1/plan", []byte(fmt.Sprint(i))) }
	for i := 0; i < 3; i++ {
		m.put(digest(i), memoEntry{key: fmt.Sprint(i)})
	}
	if _, ok := m.get(digest(0)); !ok {
		t.Fatal("entry 0 missing before any eviction")
	}
	for i := 3; i < 10; i++ {
		m.put(digest(i), memoEntry{key: fmt.Sprint(i)})
		if n := m.stats().Entries; n > 3 {
			t.Fatalf("memo holds %d entries, cap 3", n)
		}
	}
	for i := 0; i < 10; i++ {
		_, ok := m.get(digest(i))
		if want := i >= 7; ok != want {
			t.Errorf("entry %d present = %v, want %v", i, ok, want)
		}
	}
	if s, _ := newTestServer(t, Config{}); s.memo.cap != memoCap {
		t.Errorf("server memo cap = %d, want %d", s.memo.cap, memoCap)
	}
}

// TestKeyMemoConcurrent drives one memo from many goroutines; run it
// under -race.
func TestKeyMemoConcurrent(t *testing.T) {
	m := newKeyMemo(8)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				d := bodyDigest("/v1/plan", []byte(fmt.Sprint((g*7+i)%20)))
				if e, ok := m.get(d); ok && e.timeoutMS != (g*7+i)%20 {
					t.Errorf("digest %d memoized timeout %d", (g*7+i)%20, e.timeoutMS)
				}
				m.put(d, memoEntry{timeoutMS: (g*7 + i) % 20})
			}
		}(g)
	}
	wg.Wait()
	ms := m.stats()
	if ms.Entries > 8 || ms.Hits+ms.Misses != 8*200 {
		t.Fatalf("stats %+v: want at most 8 entries and 1600 lookups", ms)
	}
}

// TestKeyMemoStatsPublished: /v1/stats and expvar carry the key_memo
// block.
func TestKeyMemoStatsPublished(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	body := `{"generate":"c17"}`
	post(t, ts.URL+"/v1/plan", body)
	post(t, ts.URL+"/v1/plan", body)
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats struct {
		KeyMemo map[string]int64 `json:"key_memo"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	want := map[string]int64{"hits": 1, "misses": 1, "entries": 1}
	for k, v := range want {
		if stats.KeyMemo[k] != v {
			t.Fatalf("key_memo = %v, want %v", stats.KeyMemo, want)
		}
	}
	// expvar publishes the first server's Stats once per process, so
	// only the block's presence is checked there.
	s.PublishExpvar()
	v := expvar.Get("serve")
	if v == nil || !strings.Contains(v.String(), `"key_memo":{"hits":`) {
		t.Fatalf("expvar serve lacks the key_memo block")
	}
}
