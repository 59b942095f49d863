package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/cli"
	"repro/internal/netlist"
)

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
