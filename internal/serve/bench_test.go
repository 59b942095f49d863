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

// hitPathServer returns BenchmarkHitPath's body, one 2000-gate inline
// /v1/plan upload, and a server that has answered it once, so a repeat
// is a key memo hit.
func hitPathServer(tb testing.TB) (*Server, []byte) {
	tb.Helper()
	circuit, err := cli.Generate("dag:gates=2000,seed=1")
	if err != nil {
		tb.Fatal(err)
	}
	text := string(canonicalNetlist(circuit))
	body, err := json.Marshal(netlistRequest{Bench: text, Options: json.RawMessage(`{"planner":"observe"}`)})
	if err != nil {
		tb.Fatal(err)
	}
	s, err := New(Config{})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(s.Close)
	rr := httptest.NewRecorder()
	s.Handler().ServeHTTP(rr, httptest.NewRequest(http.MethodPost, "/v1/plan", bytes.NewReader(body)))
	if rr.Code != http.StatusOK || rr.Header().Get("X-Cache") != "miss" {
		tb.Fatalf("status %d X-Cache %q, want 200 miss", rr.Code, rr.Header().Get("X-Cache"))
	}
	return s, body
}

// BenchmarkHitPath splits the cache-hit floor of one 2000-gate inline
// /v1/plan body into stages. decode, parse and key (canonicalize and
// hash) are what the full path runs before its cache lookup; decode-fallback decodes a body
// that leaves the one-scan decoder late; memo is a whole in-process
// handler call served through the key memo, and full is the same call
// with the memo holding nothing, so it takes the full path against the
// warm result cache.
func BenchmarkHitPath(b *testing.B) {
	s, body := hitPathServer(b)
	h := s.Handler()
	serve := func(b *testing.B, want string) {
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, httptest.NewRequest(http.MethodPost, "/v1/plan", bytes.NewReader(body)))
		if rr.Code != http.StatusOK || rr.Header().Get("X-Cache") != want {
			b.Fatalf("status %d X-Cache %q, want 200 %s", rr.Code, rr.Header().Get("X-Cache"), want)
		}
	}

	var req netlistRequest
	var err error
	b.Run("decode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if req, err = decodeEnvelope(body); err != nil {
				b.Fatal(err)
			}
		}
	})
	// The same body with a '<' at the end of its netlist, which
	// json.Marshal writes as \u003c: the scan reads nearly all of it
	// before it falls back to json.Unmarshal, the decoder's worst case.
	var late netlistRequest
	if err := json.Unmarshal(body, &late); err != nil {
		b.Fatal(err)
	}
	late.Bench += "# <\n"
	lateBody, err := json.Marshal(late)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("decode-fallback", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if hitPathSink, err = decodeEnvelope(lateBody); err != nil {
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
	keyOpts, _, _, err := parsePlan(req.Options)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("key", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if hitPathSink, err = cacheKey("/v1/plan", c, keyOpts); err != nil {
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
