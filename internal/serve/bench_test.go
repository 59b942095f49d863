package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cli"
	"repro/internal/netlist"
)

const benchDAG = "dag:gates=600,seed=7"

func benchPost(url, body string) error {
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		return err
	}
	if resp.StatusCode != 200 {
		return fmt.Errorf("status %d", resp.StatusCode)
	}
	return nil
}

// BenchmarkPlanCached measures the full HTTP round-trip for a /v1/plan
// request served from the result cache.
func BenchmarkPlanCached(b *testing.B) {
	s, err := New(Config{})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	body := fmt.Sprintf(`{"generate":%q,"options":{"planner":"hybrid"}}`, benchDAG)
	if err := benchPost(ts.URL+"/v1/plan", body); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := benchPost(ts.URL+"/v1/plan", body); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPlanUncached measures the same round-trip with a distinct
// generator seed per request, so every request runs the engine.
func BenchmarkPlanUncached(b *testing.B) {
	s, err := New(Config{})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		body := fmt.Sprintf(`{"generate":"dag:gates=600,seed=%d","options":{"planner":"observe"}}`, i+1)
		if err := benchPost(ts.URL+"/v1/plan", body); err != nil {
			b.Fatal(err)
		}
	}
}

// hitPathSink keeps the hit-path stages' results live.
var hitPathSink any

// BenchmarkHitPath splits the cache-hit floor of one 2000-gate inline
// /v1/plan body into stages. decode, parse, canon and hash are what the
// full path runs before its cache lookup; memo is a whole in-process
// handler call served through the key memo, and full is the same call
// with the memo holding nothing, so it takes the full path against the
// warm result cache.
func BenchmarkHitPath(b *testing.B) {
	circuit, err := cli.Generate("dag:gates=2000,seed=1")
	if err != nil {
		b.Fatal(err)
	}
	text, err := canonicalNetlist(circuit)
	if err != nil {
		b.Fatal(err)
	}
	body, err := json.Marshal(netlistRequest{Bench: text, Options: json.RawMessage(`{"planner":"observe"}`)})
	if err != nil {
		b.Fatal(err)
	}
	s, err := New(Config{})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	h := s.Handler()
	serve := func(b *testing.B, want string) {
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, httptest.NewRequest(http.MethodPost, "/v1/plan", bytes.NewReader(body)))
		if rr.Code != http.StatusOK || rr.Header().Get("X-Cache") != want {
			b.Fatalf("status %d X-Cache %q, want 200 %s", rr.Code, rr.Header().Get("X-Cache"), want)
		}
	}
	serve(b, "miss")

	var req netlistRequest
	b.Run("decode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			req = netlistRequest{}
			if err := json.Unmarshal(body, &req); err != nil {
				b.Fatal(err)
			}
		}
	})
	var c *netlist.Circuit
	b.Run("parse", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if c, err = parseCircuit(&req); err != nil {
				b.Fatal(err)
			}
		}
	})
	var canon string
	b.Run("canon", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if canon, err = canonicalNetlist(c); err != nil {
				b.Fatal(err)
			}
		}
	})
	keyOpts, _, _, err := parsePlan(req.Options)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("hash", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if hitPathSink, err = cacheKey("/v1/plan", canon, keyOpts); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("memo", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			serve(b, "hit")
		}
	})
	s.memo = newKeyMemo(0)
	b.Run("full", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			serve(b, "hit")
		}
	})
}

// TestServingLatencyReport produces the req/s and p50/p99 figures
// quoted in EXPERIMENTS.md. It hammers /v1/plan on the 600-gate DAG
// cached and uncached, with 1 worker and with GOMAXPROCS workers, and
// is gated behind SERVE_BENCH=1 because it runs for tens of seconds.
func TestServingLatencyReport(t *testing.T) {
	if os.Getenv("SERVE_BENCH") == "" {
		t.Skip("set SERVE_BENCH=1 to run the serving latency report")
	}
	for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
		for _, mode := range []string{"uncached", "cached"} {
			s, err := New(Config{Workers: workers, RequestTimeout: 5 * time.Minute})
			if err != nil {
				t.Fatal(err)
			}
			ts := httptest.NewServer(s.Handler())
			n, clients := 24, workers
			bodyFor := func(i int) string {
				// Uncached requests use a distinct seed per request to
				// defeat the cache; cached requests repeat one body
				// after a warming call.
				return fmt.Sprintf(`{"generate":"dag:gates=600,seed=%d","options":{"planner":"hybrid"}}`, i+1)
			}
			if mode == "cached" {
				n = 400
				bodyFor = func(int) string {
					return fmt.Sprintf(`{"generate":%q,"options":{"planner":"hybrid"}}`, benchDAG)
				}
				if err := benchPost(ts.URL+"/v1/plan", bodyFor(0)); err != nil {
					t.Fatal(err)
				}
			}

			lat := make([]time.Duration, n)
			var next int
			var mu sync.Mutex
			var wg sync.WaitGroup
			start := time.Now()
			for c := 0; c < clients; c++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						mu.Lock()
						i := next
						next++
						mu.Unlock()
						if i >= n {
							return
						}
						t0 := time.Now()
						if err := benchPost(ts.URL+"/v1/plan", bodyFor(i)); err != nil {
							t.Error(err)
							return
						}
						lat[i] = time.Since(t0)
					}
				}()
			}
			wg.Wait()
			wall := time.Since(start)
			ts.Close()
			s.Close()

			sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
			p50 := lat[n/2]
			p99 := lat[n*99/100]
			t.Logf("workers=%d mode=%s n=%d req/s=%.1f p50=%v p99=%v",
				workers, mode, n, float64(n)/wall.Seconds(), p50, p99)
		}
	}
}
