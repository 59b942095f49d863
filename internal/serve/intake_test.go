package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/cli"
)

// marshalledEnvelopes are json.Marshal's encodings of inline and
// generator envelopes, with and without options and mode: the shape of
// every body the repo's clients send. None holds a '<', '>', '&',
// U+2028 or U+2029, which json.Marshal writes as \u escapes.
func marshalledEnvelopes(tb testing.TB) [][]byte {
	tb.Helper()
	c, err := cli.Generate("dag:gates=200,seed=3")
	if err != nil {
		tb.Fatal(err)
	}
	var out [][]byte
	for _, circuit := range []netlistRequest{
		{Bench: string(canonicalNetlist(c))},
		{Bench: "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a, b)\n"},
		{Generate: "dag:gates=1000,seed=12345"},
		{Generate: "c17"},
	} {
		// No options, and the option objects servebench sends.
		for _, opts := range []string{
			"", `{"planner":"observe"}`, `{"planner":"cuts"}`, `{"planner":"hybrid"}`,
			`{"patterns":32768}`, `{"backtrack_limit":100}`, `{"backtrack_limit":100,"learn":true}`,
		} {
			for _, mode := range []string{"", "sync", "async"} {
				req := circuit
				if opts != "" {
					req.Options = json.RawMessage(opts)
				}
				req.Mode = mode
				body, err := json.Marshal(req)
				if err != nil {
					tb.Fatal(err)
				}
				out = append(out, body)
			}
		}
	}
	return out
}

// errText is err's message, or "" for nil.
func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// TestEnvelopeScanTakesMarshalledBodies: every marshalled envelope
// whose strings json.Marshal writes with no \u escape takes the
// one-scan path, so the decoder cannot fall back to json.Unmarshal on
// what clients send without a test failing, and it decodes each to
// what json.Unmarshal gives. decodeEnvelope is held to the scan by its
// allocations: one per non-empty string field, and at most one more,
// for the scanner json.Valid takes from a pool that may be empty (under
// -race it drops entries); json.Unmarshal makes at least five more than
// the strings. testing.AllocsPerRun counts the whole process's mallocs
// and floors their mean, so it runs each body 100 times: another
// goroutine's allocations then lift the mean by one only if it makes
// 100 of them meanwhile, while one more allocation per call still does.
func TestEnvelopeScanTakesMarshalledBodies(t *testing.T) {
	for _, body := range marshalledEnvelopes(t) {
		got, ok := scanEnvelope(body)
		if !ok {
			t.Errorf("%.80s...: one-scan decoder refused a marshalled envelope", body)
			continue
		}
		var want netlistRequest
		if err := json.Unmarshal(body, &want); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%.80s...: scanned %+v, json.Unmarshal %+v", body, got, want)
		}
		strs := 0
		for _, s := range []string{want.Bench, want.Generate, want.Mode} {
			if s != "" {
				strs++
			}
		}
		if n := testing.AllocsPerRun(100, func() { _, _ = decodeEnvelope(body) }); n > float64(strs+1) {
			t.Errorf("%.80s...: decodeEnvelope made %.0f allocations, want at most %d, one per string and a scanner", body, n, strs+1)
		}
	}
}

// FuzzEnvelopeMatchesJSON holds decodeEnvelope to json.Unmarshal: for
// any bytes both give the same netlistRequest and the same error text.
func FuzzEnvelopeMatchesJSON(f *testing.F) {
	for _, body := range marshalledEnvelopes(f) {
		f.Add(body)
	}
	for _, tc := range badRequestCases {
		f.Add([]byte(tc.body))
	}
	for _, body := range []string{
		// Keys in another case, repeated, unknown, or spelled with an
		// escape.
		`{"Bench":"INPUT(a)\nOUTPUT(a)"}`, `{"GENERATE":"c17"}`, `{"generate":"c17","Options":{}}`,
		`{"generate":"c17","generate":"c432"}`, `{"options":{},"options":{"k":1},"generate":"c17"}`,
		`{"generate":"c17","extra":1}`, `{"benchx":"a"}`, `{"bench":"x"}`, `{"bench\"":"x"}`,
		// \u escapes, among them json.Marshal's for '<', '>', '&' and
		// U+2028, surrogate pairs, lone surrogates.
		`{"bench":"# \u003c\u003e\u0026\u2028\n"}`, `{"generate":"c\u0031\u0037"}`,
		`{"bench":"😀"}`, `{"bench":"\ud83d\ude00"}`, `{"bench":"\ud800"}`, `{"mode":"async"}`,
		// Every short escape, and escapes in options.
		`{"bench":"\"\\\/\b\f\n\r\t","options":{"aé":"\n"}}`, `{"bench":"\x"}`, `{"bench":"\`,
		// Invalid UTF-8 and raw control bytes, in values and options.
		"{\"bench\":\"\xff\"}", "{\"bench\":\"\xed\xa0\x80\"}", "{\"bench\":\"a\x01b\"}",
		"{\"bench\":\"a\nb\"}", "{\"generate\":\"c17\",\"options\":{\"a\":\"\xff\"}}",
		"{\"bench\":\"é �\"}",
		// null values, non-object options, nested options.
		`null`, `{"bench":null}`, `{"options":null,"generate":"c17"}`, `{"mode":null}`,
		`{"options":[1]}`, `{"options":"x"}`, `{"options":1}`, `{"options":true}`, `{"bench":1}`,
		`{"options":{"a":{"b":[1,"}",{"c":null}]}},"generate":"c17"}`, `{"options":{"a":]}}`,
		`{"options":{]`, `{"options":{"a":"\"}"}}`,
		// Whitespace, trailing bytes, truncation, an empty body.
		" \t\r\n{ \"generate\" : \"c17\" , \"mode\" : \"async\" } \n", `{"generate":"c17"} x`,
		`{"generate":"c17"}{}`, `{"generate":"c17",}`, `{,"generate":"c17"}`, `{"generate" "c17"}`,
		`{"generate":"c17"`, `{"generate":`, `{"generate`, `{`, `{}`, ` {} `, `[]`, `""`, ``,
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var want netlistRequest
		wantErr := json.Unmarshal(body, &want)
		got, gotErr := decodeEnvelope(body)
		if errText(gotErr) != errText(wantErr) {
			t.Fatalf("%q: error %q, json.Unmarshal %q", body, errText(gotErr), errText(wantErr))
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%q: decoded %#v, json.Unmarshal %#v", body, got, want)
		}
	})
}

// bytesPerRun is the mean heap bytes one call of f allocates.
func bytesPerRun(runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// readSized reads src through readBody as a request declaring the
// given length (negative for unknown).
func readSized(t *testing.T, src []byte, declared int64) []byte {
	r := httptest.NewRequest(http.MethodPost, "/v1/plan", bytes.NewReader(src))
	r.ContentLength = declared
	body, err := readBody(nil, r, 8<<20)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// TestReadBodyBoundsPrealloc: a body that declares 8 MiB and sends
// nothing reserves 512 bytes, as io.ReadAll did, and one that stops
// after its first kilobyte reserves at most bodyPrealloc more; a sized
// body is read into the first 512 bytes and one buffer of its length
// plus the EOF byte, and a body of unknown length, or one longer than
// the bound, arrives whole, as does one that declares 1<<63 - 1 under
// a limit as large.
func TestReadBodyBoundsPrealloc(t *testing.T) {
	for _, tc := range []struct {
		sent  int
		bound float64
	}{{0, 1024}, {1024, 1024 + bodyPrealloc}} {
		// Each read gets a fresh reader over the same bytes.
		src := bytes.Repeat([]byte("x"), tc.sent)
		r := httptest.NewRequest(http.MethodPost, "/v1/plan", nil)
		r.ContentLength = 8 << 20
		if n := bytesPerRun(10, func() {
			r.Body = io.NopCloser(bytes.NewReader(src))
			if _, err := readBody(nil, r, 8<<20); err != nil {
				t.Fatal(err)
			}
		}); n > tc.bound+128 {
			t.Errorf("a declared 8 MiB body that sent %d bytes allocated %.0f bytes, over %.0f", tc.sent, n, tc.bound)
		}
	}
	text := bytes.Repeat([]byte("0123456789abcdef"), 40_000) // 640,000 bytes
	for _, size := range []int{0, 1, 511, 512, 513, 64_355, bodyPrealloc - 1, bodyPrealloc, len(text)} {
		src := text[:size]
		for _, declared := range []int64{int64(size), -1} {
			var body []byte
			n := bytesPerRun(5, func() { body = readSized(t, src, declared) })
			if !bytes.Equal(body, src) {
				t.Fatalf("size %d, declared %d: read %d bytes, not the body", size, declared, len(body))
			}
			// The first 512 bytes, one buffer of the body rounded up
			// to a page, and the test request's own few kilobytes.
			if declared >= 0 && size < bodyPrealloc && n > float64(size)+512+8192+4096 {
				t.Errorf("size %d, declared: allocated %.0f bytes, want one buffer of the body", size, n)
			}
		}
	}
	// The largest declared length, with no limit below it to clamp it.
	r := httptest.NewRequest(http.MethodPost, "/v1/plan", bytes.NewReader(text[:1000]))
	r.ContentLength = math.MaxInt64
	if body, err := readBody(nil, r, math.MaxInt64); err != nil || !bytes.Equal(body, text[:1000]) {
		t.Errorf("declared and limit 1<<63 - 1: read %d bytes, error %v; want the 1000-byte body", len(body), err)
	}
}

// rawPost sends head, a request line and headers, then body, on a new
// connection to ts, closes the connection's write side, and returns the
// answer's status and body.
func rawPost(t *testing.T, ts *httptest.Server, head, body string) (int, string) {
	t.Helper()
	conn, err := net.Dial("tcp", ts.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, head+"\r\n"+body); err != nil {
		t.Fatal(err)
	}
	if err := conn.(*net.TCPConn).CloseWrite(); err != nil {
		t.Fatal(err)
	}
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(b)
}

// TestBodyReadRefusals pins the answers to bodies the read refuses,
// with the text the io.ReadAll read gave: 413 for a body over MaxBody,
// 400 for one shorter than its declared length, also when it declares
// the largest length net/http takes, 1<<63 - 1.
func TestBodyReadRefusals(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxBody: 512})
	const (
		tooLarge = `{"error":"read request: http: request body too large"}` + "\n"
		short    = `{"error":"read request: unexpected EOF"}` + "\n"
	)
	big := `{"bench":"` + strings.Repeat("# filler\\n", 60) + `"}`
	st, _, b := post(t, ts.URL+"/v1/plan", big)
	if st != http.StatusRequestEntityTooLarge || string(b) != tooLarge {
		t.Errorf("oversized body: status %d body %q, want 413 %q", st, b, tooLarge)
	}
	for _, tc := range []struct {
		name, length, body string
		status             int
		want               string
	}{
		{"short body", "100", `{"generate":`, http.StatusBadRequest, short},
		{"short body, largest length", "9223372036854775807", `{"generate":`, http.StatusBadRequest, short},
		{"oversized body, largest length", "9223372036854775807", big, http.StatusRequestEntityTooLarge, tooLarge},
	} {
		head := "POST /v1/plan HTTP/1.1\r\nHost: serve\r\nContent-Length: " + tc.length + "\r\n"
		if st, got := rawPost(t, ts, head, tc.body); st != tc.status || got != tc.want {
			t.Errorf("%s: status %d body %q, want %d %q", tc.name, st, got, tc.status, tc.want)
		}
	}
}

// TestChunkedBodyReadsLikeSized: a body sent chunked, with no declared
// length, is read to the same bytes as the same body sized: the sized
// repeat hits the key memo, whose address is the SHA-256 of the bytes
// read, and replays the chunked request's response.
func TestChunkedBodyReadsLikeSized(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	c, err := cli.Generate("dag:gates=300,seed=5")
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(netlistRequest{Bench: string(canonicalNetlist(c)), Options: json.RawMessage(`{"planner":"observe"}`)})
	if err != nil {
		t.Fatal(err)
	}
	// A reader of no known length makes the client send the body
	// chunked.
	resp, err := http.Post(ts.URL+"/v1/plan", "application/json", io.MultiReader(bytes.NewReader(body)))
	if err != nil {
		t.Fatal(err)
	}
	chunked, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Cache") != "miss" {
		t.Fatalf("chunked: status %d X-Cache %q body %s", resp.StatusCode, resp.Header.Get("X-Cache"), chunked)
	}
	st, xc, sized := post(t, ts.URL+"/v1/plan", string(body))
	if st != http.StatusOK || xc != "hit" || !bytes.Equal(sized, chunked) {
		t.Errorf("sized repeat: status %d X-Cache %q, identical %v; want 200, a memo hit and the chunked response", st, xc, bytes.Equal(sized, chunked))
	}
}

// TestMemoHitAllocatesAboutTheBody pins the hit path's read: a memo hit
// on BenchmarkHitPath's 2000-gate inline body allocates under 1.5 times
// the body. Read with io.ReadAll it allocated 4.5 times.
func TestMemoHitAllocatesAboutTheBody(t *testing.T) {
	s, body := hitPathServer(t)
	h := s.Handler()
	serve := func() {
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, httptest.NewRequest(http.MethodPost, "/v1/plan", bytes.NewReader(body)))
		if rr.Code != http.StatusOK || rr.Header().Get("X-Cache") != "hit" {
			t.Fatalf("status %d X-Cache %q, want a 200 hit", rr.Code, rr.Header().Get("X-Cache"))
		}
	}
	n := bytesPerRun(20, serve)
	t.Logf("memo hit on a %d-byte body allocated %.0f bytes", len(body), n)
	if n >= 1.5*float64(len(body)) {
		t.Errorf("memo hit on a %d-byte body allocated %.0f bytes, want under 1.5 times the body", len(body), n)
	}
}
