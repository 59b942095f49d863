package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/cli"
	"repro/internal/serve"
)

// goodConfig returns a config that passes validation.
func goodConfig() config {
	return config{
		addr:           ":0",
		workers:        0,
		cacheBytes:     1 << 20,
		requestTimeout: time.Second,
		maxBody:        1 << 20,
		drainTimeout:   time.Second,
		jobQueue:       64,
		maxJobs:        1024,
		jobRetention:   time.Hour,
		jobTimeout:     10 * time.Minute,
	}
}

// TestValidateRejectsBadConfig pins the usage contract: every invalid
// flag combination maps to exit code 2 through cli.ExitCode, and the
// message names the offending flag.
func TestValidateRejectsBadConfig(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*config)
		flag   string
	}{
		{"empty addr", func(c *config) { c.addr = "" }, "-addr"},
		{"negative workers", func(c *config) { c.workers = -1 }, "-workers"},
		{"negative cache", func(c *config) { c.cacheBytes = -1 }, "-cache-bytes"},
		{"zero request timeout", func(c *config) { c.requestTimeout = 0 }, "-request-timeout"},
		{"zero max body", func(c *config) { c.maxBody = 0 }, "-max-body"},
		{"negative drain", func(c *config) { c.drainTimeout = -time.Second }, "-drain-timeout"},
		{"debug addr shadows public addr", func(c *config) { c.addr = ":8080"; c.debugAddr = ":8080" }, "-debug-addr"},
		{"zero job queue", func(c *config) { c.jobQueue = 0 }, "-job-queue"},
		{"zero max jobs", func(c *config) { c.maxJobs = 0 }, "-max-jobs"},
		{"negative retention", func(c *config) { c.jobRetention = -time.Hour }, "-job-retention"},
		{"zero job timeout", func(c *config) { c.jobTimeout = 0 }, "-job-timeout"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := goodConfig()
			tc.mutate(&cfg)
			err := cfg.validate()
			if err == nil {
				t.Fatal("validate accepted an invalid config")
			}
			if code := cli.ExitCode(err); code != cli.ExitUsage {
				t.Errorf("exit code = %d, want %d", code, cli.ExitUsage)
			}
			if !strings.Contains(err.Error(), tc.flag) {
				t.Errorf("error %q does not name %s", err, tc.flag)
			}
		})
	}
}

func TestValidateAcceptsDefaults(t *testing.T) {
	if err := goodConfig().validate(); err != nil {
		t.Errorf("good config rejected: %v", err)
	}
}

// TestRunListenFailure exercises the runtime-failure path: a listen
// error is a runtime fault (exit 1), not a usage error.
func TestRunListenFailure(t *testing.T) {
	cfg := goodConfig()
	cfg.addr = "256.256.256.256:99999" // unresolvable
	err := run(cfg)
	if err == nil {
		t.Fatal("run succeeded on an unresolvable address")
	}
	if code := cli.ExitCode(err); code != cli.ExitFailure {
		t.Errorf("exit code = %d, want %d", code, cli.ExitFailure)
	}
}

// TestRunRejectsBeforeListening asserts validation happens before any
// socket is opened, so a bad config never binds a port.
func TestRunRejectsBeforeListening(t *testing.T) {
	cfg := goodConfig()
	cfg.maxBody = -1
	err := run(cfg)
	if code := cli.ExitCode(err); code != cli.ExitUsage {
		t.Errorf("exit code = %d, want %d (err %v)", code, cli.ExitUsage, err)
	}
}

// TestDebugHandlerServesPprofAndExpvar probes the debug mux directly:
// the pprof index and the expvar counters must answer, and nothing is
// mounted at the root — the debug listener carries only /debug paths.
func TestDebugHandlerServesPprofAndExpvar(t *testing.T) {
	ts := httptest.NewServer(debugHandler())
	defer ts.Close()
	get := func(path string) int {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if _, err := io.Copy(io.Discard, resp.Body); err != nil {
			t.Fatalf("GET %s: read body: %v", path, err)
		}
		return resp.StatusCode
	}
	for _, path := range []string{"/debug/pprof/", "/debug/pprof/cmdline", "/debug/vars"} {
		if code := get(path); code != http.StatusOK {
			t.Errorf("GET %s = %d, want %d", path, code, http.StatusOK)
		}
	}
	if code := get("/"); code == http.StatusOK {
		t.Error("debug listener serves the root path; it must only expose /debug")
	}
}

// TestRunDebugListenFailure pins that a broken -debug-addr surfaces as
// a runtime failure naming the debug listener, not a silent drop.
func TestRunDebugListenFailure(t *testing.T) {
	cfg := goodConfig()
	cfg.debugAddr = "256.256.256.256:99999" // unresolvable
	err := run(cfg)
	if err == nil {
		t.Fatal("run succeeded with an unresolvable debug address")
	}
	if !strings.Contains(err.Error(), "debug listener") {
		t.Errorf("error %q does not name the debug listener", err)
	}
	if code := cli.ExitCode(err); code != cli.ExitFailure {
		t.Errorf("exit code = %d, want %d", code, cli.ExitFailure)
	}
}

// freeAddr reserves a localhost port and returns it as host:port. The
// listener is closed before returning, so the address is free for the
// server under test to bind.
func freeAddr(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	return addr
}

// TestShutdownOrderingDrainsBlockedSubscriber is the end-to-end
// shutdown pin: with the single worker occupied and a second job
// queued, a subscriber blocked on the queued job's event stream must
// not hold SIGTERM shutdown open. The drain ends the stream, the
// public and debug listeners close, and run returns nil well inside
// the (deliberately generous) drain window.
func TestShutdownOrderingDrainsBlockedSubscriber(t *testing.T) {
	if testing.Short() {
		t.Skip("starts a real server and sends SIGTERM")
	}
	cfg := goodConfig()
	cfg.addr = freeAddr(t)
	cfg.debugAddr = freeAddr(t)
	cfg.workers = 1
	cfg.drainTimeout = 30 * time.Second
	cfg.jobTimeout = 10 * time.Minute

	// Absorb SIGTERM in the test too: delivery must never depend on
	// whether run has reached its NotifyContext yet.
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGTERM)
	defer signal.Stop(sigs)

	runErr := make(chan error, 1)
	go func() { runErr <- run(cfg) }()
	base := "http://" + cfg.addr
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(base + "/healthz")
		if err == nil {
			resp.Body.Close()
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("server never came up: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Occupy the worker with a heavy job, then queue a second one and
	// subscribe to its events: the subscriber parks on a state change
	// that will not arrive before the drain.
	submit := func(body string) string {
		t.Helper()
		resp, err := http.Post(base+"/v1/faultsim", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit: status %d body %s", resp.StatusCode, b)
		}
		var sub struct {
			Job struct {
				ID string `json:"id"`
			} `json:"job"`
		}
		if err := json.Unmarshal(b, &sub); err != nil || sub.Job.ID == "" {
			t.Fatalf("bad 202 body %s: %v", b, err)
		}
		return sub.Job.ID
	}
	submit(`{"generate":"dag:gates=1500,seed=1","options":{"patterns":1048576},"mode":"async"}`)
	queued := submit(`{"generate":"dag:gates=1500,seed=2","options":{"patterns":1048576},"mode":"async"}`)

	stream, err := http.Get(base + "/v1/jobs/" + queued + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Body.Close()
	sc := bufio.NewScanner(stream.Body)
	if !sc.Scan() {
		t.Fatalf("event stream ended before its first line: %v", sc.Err())
	}
	streamDone := make(chan error, 1)
	go func() {
		for sc.Scan() {
		}
		streamDone <- sc.Err()
	}()

	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-streamDone:
		if err != nil {
			t.Errorf("drained stream ended with %v, want clean EOF", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("SIGTERM left the blocked event subscriber hanging")
	}
	select {
	case err := <-runErr:
		if err != nil {
			t.Errorf("run returned %v after SIGTERM, want nil", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("run did not return within the drain window after SIGTERM")
	}

	// Both listeners are down after the drain.
	for _, addr := range []string{cfg.addr, cfg.debugAddr} {
		if conn, err := net.DialTimeout("tcp", addr, time.Second); err == nil {
			conn.Close()
			t.Errorf("listener %s still accepts connections after shutdown", addr)
		}
	}
}

// TestReadDeadlinesDropStalledClients runs the public listener's
// deadlines, shortened, over serve's handler. A client that stalls in
// its headers, or after 512 B of a body that declares a megabyte, has
// its connection dropped once its deadline passes, and not before; a
// whole upload is answered, and so is a request whose handler runs past
// the read deadline after reading its body.
func TestReadDeadlinesDropStalledClients(t *testing.T) {
	const header, read = 200 * time.Millisecond, 1500 * time.Millisecond
	s, err := serve.New(serve.Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	mux := http.NewServeMux()
	mux.Handle("/", s.Handler())
	mux.HandleFunc("/slow", func(w http.ResponseWriter, r *http.Request) {
		if _, err := io.ReadAll(r.Body); err != nil {
			t.Errorf("slow handler: read body: %v", err)
		}
		time.Sleep(read + 200*time.Millisecond)
		if err := r.Context().Err(); err != nil {
			t.Errorf("slow handler's context ended after the body was read: %v", err)
		}
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := publicServer("", mux, header, read)
	go srv.Serve(ln)
	defer srv.Close()
	base := "http://" + ln.Addr().String()

	// dropAfter sends prefix on a new connection, stalls, and returns
	// how long the server took to close the connection.
	dropAfter := func(t *testing.T, prefix string) time.Duration {
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		start := time.Now()
		if _, err := io.WriteString(conn, prefix); err != nil {
			t.Fatal(err)
		}
		if err := conn.SetReadDeadline(start.Add(10 * time.Second)); err != nil {
			t.Fatal(err)
		}
		if _, err := io.Copy(io.Discard, conn); err != nil {
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				t.Fatal("the server kept a stalled connection open for 10 s")
			}
		}
		return time.Since(start)
	}
	body := `{"generate":"c17","options":{"planner":"observe"},"pad":"`
	body += strings.Repeat("x", 512-len(body))
	// Each deadline must be the one that drops its client: the header
	// deadline is well inside the whole-request one.
	for _, tc := range []struct {
		name, prefix string
		deadline     time.Duration
	}{
		{"headers", "POST /v1/plan HTTP/1.1\r\nHost: serve\r\n", header},
		{"body", "POST /v1/plan HTTP/1.1\r\nHost: serve\r\nContent-Type: application/json\r\nContent-Length: 1000000\r\n\r\n" + body, read},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if d := dropAfter(t, tc.prefix); d < tc.deadline || d > tc.deadline+time.Second {
				t.Errorf("stalled connection dropped after %v, want between %v and %v", d, tc.deadline, tc.deadline+time.Second)
			}
		})
	}
	t.Run("upload", func(t *testing.T) {
		resp, err := http.Post(base+"/v1/plan", "application/json",
			strings.NewReader(`{"generate":"dag:gates=300,seed=2","options":{"planner":"observe"}}`))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if b, _ := io.ReadAll(resp.Body); resp.StatusCode != http.StatusOK {
			t.Errorf("upload: status %d body %s", resp.StatusCode, b)
		}
	})
	t.Run("handler-past-deadline", func(t *testing.T) {
		resp, err := http.Post(base+"/slow", "text/plain", strings.NewReader("body"))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("slow handler: status %d", resp.StatusCode)
		}
	})
}
