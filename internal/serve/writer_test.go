package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/jobs"
)

// The tests in this file drive handlers through Handler().ServeHTTP
// with ResponseWriters that record what the handler does to them: the
// event stream must flush after every line even behind a wrapper that
// hides http.Flusher, must stop at the first failed write, and every
// error response must be one WriteHeader and one JSON object.

// recordingWriter logs every Write and Flush in order, and calls first
// before the first Write.
type recordingWriter struct {
	header  http.Header
	events  []string // "write:<bytes>" or "flush"
	onWrite sync.Once
	first   func()
}

func (w *recordingWriter) Header() http.Header { return w.header }
func (w *recordingWriter) WriteHeader(int)     {}
func (w *recordingWriter) Flush()              { w.events = append(w.events, "flush") }

func (w *recordingWriter) Write(b []byte) (int, error) {
	w.onWrite.Do(w.first)
	w.events = append(w.events, "write:"+string(b))
	return len(b), nil
}

// unwrapOnly hides http.Flusher from the handler but exposes the writer
// underneath through Unwrap, as middleware wrappers do.
type unwrapOnly struct{ w http.ResponseWriter }

func (u unwrapOnly) Header() http.Header         { return u.w.Header() }
func (u unwrapOnly) Write(b []byte) (int, error) { return u.w.Write(b) }
func (u unwrapOnly) WriteHeader(code int)        { u.w.WriteHeader(code) }
func (u unwrapOnly) Unwrap() http.ResponseWriter { return u.w }

// failingWriter accepts limit bytes, then fails every write. It calls
// first before the first Write, and records every call the handler
// makes after the first failure.
type failingWriter struct {
	header  http.Header
	limit   int
	written int
	failed  bool
	after   []string
	onWrite sync.Once
	first   func()
}

var errWriterClosed = errors.New("writer closed")

func (w *failingWriter) Header() http.Header { return w.header }

func (w *failingWriter) WriteHeader(code int) {
	if w.failed {
		w.after = append(w.after, fmt.Sprintf("WriteHeader(%d)", code))
	}
}

func (w *failingWriter) Flush() {
	if w.failed {
		w.after = append(w.after, "Flush")
	}
}

func (w *failingWriter) Write(b []byte) (int, error) {
	w.onWrite.Do(w.first)
	if w.failed {
		w.after = append(w.after, fmt.Sprintf("Write(%q)", b))
		return 0, errWriterClosed
	}
	if w.written+len(b) > w.limit {
		w.failed = true
		return 0, errWriterClosed
	}
	w.written += len(b)
	return len(b), nil
}

// gatedJob starts a one-worker server and an async faultsim job that
// reports progress, and returns once the job is running with its engine
// held at the compute hook. release lets the engine go; it is
// idempotent and also runs at cleanup.
func gatedJob(t *testing.T, cfg Config) (s *Server, id string, release func()) {
	t.Helper()
	enter := make(chan struct{}, 1)
	gate := make(chan struct{})
	var once sync.Once
	release = func() { once.Do(func() { close(gate) }) }
	testHookCompute = func(string) {
		select {
		case enter <- struct{}{}:
		default:
		}
		<-gate
	}
	t.Cleanup(func() { testHookCompute = nil })
	cfg.Workers = 1
	s, ts := newTestServer(t, cfg)
	t.Cleanup(release)
	sub := submitAsync(t, ts.URL+"/v1/faultsim", `{"generate":"c17","options":{"patterns":640,"keep_faults":true},"mode":"async"}`)
	<-enter
	return s, sub.Job.ID, release
}

// serveRecovering runs one request through the handler and reports a
// panic as a test error.
func serveRecovering(t *testing.T, h http.Handler, w http.ResponseWriter, r *http.Request) {
	t.Helper()
	defer func() {
		if p := recover(); p != nil {
			t.Errorf("handler panicked: %v", p)
		}
	}()
	h.ServeHTTP(w, r)
}

// TestEventStreamFlushesThroughWrapper streams a job's events through a
// wrapper that hides http.Flusher but has Unwrap: every line must be
// one write followed by a flush, and the last line is the terminal
// snapshot.
func TestEventStreamFlushesThroughWrapper(t *testing.T) {
	s, id, release := gatedJob(t, Config{})
	rec := &recordingWriter{header: http.Header{}, first: release}
	serveRecovering(t, s.Handler(), unwrapOnly{rec}, httptest.NewRequest(http.MethodGet, "/v1/jobs/"+id+"/events", nil))

	if len(rec.events) < 4 {
		t.Fatalf("stream made %d calls, want at least running and done, each written and flushed: %q", len(rec.events), rec.events)
	}
	var last jobs.Snapshot
	for i := 0; i < len(rec.events); i += 2 {
		line, ok := strings.CutPrefix(rec.events[i], "write:")
		if !ok || strings.Count(line, "\n") != 1 || !strings.HasSuffix(line, "\n") {
			t.Fatalf("call %d is %q, want one whole line", i, rec.events[i])
		}
		if i+1 >= len(rec.events) || rec.events[i+1] != "flush" {
			t.Fatalf("line %d is not followed by a flush: %q", i/2, rec.events[i:])
		}
		last = jobs.Snapshot{}
		if err := json.Unmarshal([]byte(line), &last); err != nil {
			t.Fatalf("line %d does not decode: %v", i/2, err)
		}
		if i == 0 && last.State != jobs.Running {
			t.Errorf("first line state %s, want running", last.State)
		}
	}
	if last.State != jobs.Done {
		t.Errorf("last line state %s, want done", last.State)
	}
}

// noFlusher passes writes to w but can neither flush nor unwrap.
type noFlusher struct{ w *failingWriter }

func (n noFlusher) Header() http.Header         { return n.w.Header() }
func (n noFlusher) Write(b []byte) (int, error) { return n.w.Write(b) }
func (n noFlusher) WriteHeader(code int)        { n.w.WriteHeader(code) }

// TestEventStreamStopsAtFailedWrite streams to a writer that fails
// after N bytes: at once, and after the first line. After the first
// failed write the handler must return without another call. A writer
// that takes every write but cannot flush must get the first line only.
func TestEventStreamStopsAtFailedWrite(t *testing.T) {
	for _, row := range []string{"first-line", "second-line", "unflushable"} {
		t.Run(row, func(t *testing.T) {
			s, id, release := gatedJob(t, Config{})
			w := &failingWriter{header: http.Header{}, first: release}
			// The engine is held, so the first line is exactly the
			// current snapshot.
			snap, _ := s.jobs.Get(id)
			b, err := json.Marshal(snap)
			if err != nil {
				t.Fatal(err)
			}
			var rw http.ResponseWriter = w
			switch row {
			case "second-line":
				w.limit = len(b) + 1
			case "unflushable":
				w.limit = 1 << 20
				rw = noFlusher{w}
			}
			serveRecovering(t, s.Handler(), rw, httptest.NewRequest(http.MethodGet, "/v1/jobs/"+id+"/events", nil))
			if row == "unflushable" {
				if w.written != len(b)+1 {
					t.Errorf("handler wrote %d bytes to a writer it cannot flush, want the first line's %d", w.written, len(b)+1)
				}
				return
			}
			if !w.failed {
				t.Fatal("the writer never failed; the stream wrote too little to test")
			}
			if len(w.after) > 0 {
				t.Errorf("handler kept going after a failed write: %q", w.after)
			}
		})
	}
}

// TestErrorResponsesWriteOnce sends every error row of the handlers:
// the malformed bodies of TestBadRequests, an unknown job, a wrong
// method, an oversized body, a full job queue and a deadline. Each must
// call WriteHeader exactly once with its status, and its body must be
// exactly one JSON object with an error field.
func TestErrorResponsesWriteOnce(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	small, _ := newTestServer(t, Config{MaxBody: 512})
	type row struct {
		name   string
		h      http.Handler
		method string
		path   string
		body   string
		want   int
	}
	var rows []row
	for _, tc := range badRequestCases {
		rows = append(rows, row{"bad request/" + tc.name, s.Handler(), http.MethodPost, tc.endpoint, tc.body, tc.want})
	}
	rows = append(rows,
		row{"unknown job", s.Handler(), http.MethodGet, "/v1/jobs/nosuch", "", http.StatusNotFound},
		row{"unknown job events", s.Handler(), http.MethodGet, "/v1/jobs/nosuch/events", "", http.StatusNotFound},
		row{"unknown job cancel", s.Handler(), http.MethodDelete, "/v1/jobs/nosuch", "", http.StatusNotFound},
		row{"wrong method", s.Handler(), http.MethodGet, "/v1/plan", "", http.StatusMethodNotAllowed},
		row{"body too large", small.Handler(), http.MethodPost, "/v1/plan",
			fmt.Sprintf(`{"bench":%q}`, strings.Repeat("# filler\n", 200)), http.StatusRequestEntityTooLarge},
		row{"deadline", s.Handler(), http.MethodPost, "/v1/faultsim",
			`{"generate":"dag:gates=600,seed=7","options":{"patterns":1073741824,"keep_faults":true,"timeout_ms":100}}`, http.StatusGatewayTimeout},
	)
	for _, r := range rows {
		checkErrorResponse(t, r.name, r.h, httptest.NewRequest(r.method, r.path, strings.NewReader(r.body)), r.want)
	}

	// Queue full: one job runs held at the hook, one fills the queue.
	full, _, _ := gatedJob(t, Config{JobQueue: 1})
	queued := `{"generate":"c17","options":{"patterns":64},"mode":"async"}`
	rec := httptest.NewRecorder()
	full.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/faultsim", strings.NewReader(queued)))
	if rec.Code != http.StatusAccepted {
		t.Fatalf("filling the queue: status %d body %s", rec.Code, rec.Body)
	}
	checkErrorResponse(t, "queue full", full.Handler(),
		httptest.NewRequest(http.MethodPost, "/v1/faultsim", strings.NewReader(queued)), http.StatusTooManyRequests)
}

// headerCounter records every WriteHeader call and the body.
type headerCounter struct {
	header http.Header
	codes  []int
	body   bytes.Buffer
}

func (w *headerCounter) Header() http.Header         { return w.header }
func (w *headerCounter) WriteHeader(code int)        { w.codes = append(w.codes, code) }
func (w *headerCounter) Write(b []byte) (int, error) { return w.body.Write(b) }

func checkErrorResponse(t *testing.T, name string, h http.Handler, r *http.Request, want int) {
	t.Helper()
	w := &headerCounter{header: http.Header{}}
	serveRecovering(t, h, w, r)
	if len(w.codes) != 1 || w.codes[0] != want {
		t.Errorf("%s: WriteHeader calls %v, want exactly [%d]", name, w.codes, want)
	}
	dec := json.NewDecoder(&w.body)
	var e map[string]any
	if err := dec.Decode(&e); err != nil {
		t.Errorf("%s: body is not a JSON object: %v", name, err)
		return
	}
	if msg, ok := e["error"].(string); !ok || msg == "" {
		t.Errorf("%s: body %v has no error field", name, e)
	}
	if err := dec.Decode(new(json.RawMessage)); err != io.EOF {
		t.Errorf("%s: body holds more than one JSON value (next decode: %v)", name, err)
	}
}
