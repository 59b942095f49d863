package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"time"

	"repro/internal/fault"
	"repro/internal/fsim"
	"repro/internal/implic"
	"repro/internal/jobs"
	"repro/internal/lint"
	"repro/internal/netlist"
	"repro/internal/pattern"
	"repro/internal/tpi"

	"repro/internal/atpg"
)

// statusClientClosed is the status class recorded when the client went
// away before a response could be written (nginx's 499 convention; it
// is never sent on the wire).
const statusClientClosed = 499

// Config configures a Server. Zero values select defaults.
type Config struct {
	// Workers bounds concurrent engine executions (default GOMAXPROCS).
	Workers int
	// CacheBytes bounds the result cache (default 64 MiB).
	CacheBytes int64
	// RequestTimeout is the per-request deadline (default 30s). A
	// request's options.timeout_ms may shorten but never extend it.
	RequestTimeout time.Duration
	// MaxBody bounds request body size (default 8 MiB).
	MaxBody int64
	// JobDir is the persistent job store directory. Empty keeps async
	// jobs in memory only (they do not survive restarts).
	JobDir string
	// JobQueue bounds queued async jobs; submissions beyond it get 429
	// (default 64).
	JobQueue int
	// MaxJobs caps retained async jobs before the oldest terminal ones
	// are garbage-collected (default 1024).
	MaxJobs int
	// JobRetention is how long finished async jobs stay queryable
	// (default 1h).
	JobRetention time.Duration
	// JobTimeout is the per-job execution deadline, independent of any
	// HTTP request deadline (default 10m).
	JobTimeout time.Duration
}

// Server serves the repro engines over HTTP/JSON. Create with New,
// mount Handler, and Close when done.
type Server struct {
	cfg     Config
	pool    *Pool
	cache   *Cache
	memo    *keyMemo
	metrics *Metrics
	jobs    *jobs.Manager
	parsers map[string]parseFunc
	start   time.Time
	// draining is closed by DrainStreams to unblock every live
	// long-lived stream (the job event subscribers), so a graceful
	// shutdown is never held hostage by a subscriber waiting on a job
	// that will not finish before the drain deadline.
	draining  chan struct{}
	drainOnce sync.Once
}

// New returns a Server with defaults applied. It opens the persistent
// job store (when cfg.JobDir is set) and recovers jobs interrupted by
// a previous crash, so it can fail on an unusable store directory.
func New(cfg Config) (*Server, error) {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.CacheBytes <= 0 {
		cfg.CacheBytes = 64 << 20
	}
	if cfg.RequestTimeout <= 0 {
		cfg.RequestTimeout = 30 * time.Second
	}
	if cfg.MaxBody <= 0 {
		cfg.MaxBody = 8 << 20
	}
	s := &Server{
		cfg:      cfg,
		pool:     NewPool(cfg.Workers),
		cache:    NewCache(cfg.CacheBytes),
		memo:     newKeyMemo(memoCap),
		metrics:  NewMetrics(),
		start:    time.Now(),
		draining: make(chan struct{}),
	}
	s.parsers = map[string]parseFunc{
		"/v1/plan":     parsePlan,
		"/v1/faultsim": parseFaultsim,
		"/v1/atpg":     parseATPG,
		"/v1/lint":     parseLint,
	}
	m, err := jobs.New(jobs.Config{
		Dir:        cfg.JobDir,
		Workers:    cfg.Workers,
		QueueDepth: cfg.JobQueue,
		MaxJobs:    cfg.MaxJobs,
		Retention:  cfg.JobRetention,
		Timeout:    cfg.JobTimeout,
	}, s.executeJob)
	if err != nil {
		return nil, err
	}
	s.jobs = m
	return s, nil
}

// DrainStreams ends every live job-event stream: subscribers get the
// snapshots written so far and a clean end of body. Callers invoke it
// before http.Server.Shutdown — Shutdown waits for active requests,
// and an events subscriber blocked on a non-terminal job would
// otherwise hold the drain open until its deadline. Idempotent.
func (s *Server) DrainStreams() {
	s.drainOnce.Do(func() { close(s.draining) })
}

// Close ends live event streams and stops the async job scheduler.
// Jobs interrupted mid-run keep their journal in the running state and
// are re-queued by the next server on the same job directory.
func (s *Server) Close() {
	s.DrainStreams()
	s.jobs.Close()
}

// Handler returns the service mux: the four engine endpoints, the
// async job API, /healthz, and /v1/stats.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/v1/stats", s.handleStats)
	mux.HandleFunc("/v1/plan", s.engineHandler("/v1/plan", parsePlan))
	mux.HandleFunc("/v1/faultsim", s.engineHandler("/v1/faultsim", parseFaultsim))
	mux.HandleFunc("/v1/atpg", s.engineHandler("/v1/atpg", parseATPG))
	mux.HandleFunc("/v1/lint", s.engineHandler("/v1/lint", parseLint))
	mux.HandleFunc("GET /v1/jobs", s.handleJobList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJobGet)
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleJobEvents)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleJobCancel)
	return mux
}

// Stats is the /v1/stats (and expvar) payload.
type Stats struct {
	UptimeSeconds float64                     `json:"uptime_s"`
	InFlight      int64                       `json:"in_flight"`
	Endpoints     map[string]EndpointSnapshot `json:"endpoints"`
	Cache         CacheStats                  `json:"cache"`
	KeyMemo       MemoStats                   `json:"key_memo"`
	Pool          PoolStats                   `json:"pool"`
	Jobs          jobs.Stats                  `json:"jobs"`
}

// Stats snapshots the service counters.
func (s *Server) Stats() Stats {
	return Stats{
		UptimeSeconds: time.Since(s.start).Seconds(),
		InFlight:      s.metrics.inFlight.Load(),
		Endpoints:     s.metrics.Snapshot(),
		Cache:         s.cache.Stats(),
		KeyMemo:       s.memo.stats(),
		Pool:          s.pool.Stats(),
		Jobs:          s.jobs.Stats(),
	}
}

var expvarOnce sync.Once

// PublishExpvar publishes the service counters under the expvar key
// "serve" (visible at /debug/vars when the expvar handler is mounted).
// Only the serving binary should call this; the package-level expvar
// registry panics on duplicate names, so publication is once-guarded
// and later servers in the same process are ignored.
func (s *Server) PublishExpvar() {
	expvarOnce.Do(func() {
		expvar.Publish("serve", expvar.Func(func() any { return s.Stats() }))
	})
}

// testHookCompute, when set, is invoked by the cache-miss leader after
// it acquires a worker slot and immediately before the engine runs.
// Tests use it to count and coordinate engine executions.
var testHookCompute func(endpoint string)

// runFunc executes one engine invocation against the parsed circuit.
type runFunc func(ctx context.Context, c *netlist.Circuit) (any, error)

// parseFunc decodes endpoint options: it returns the canonicalized
// options value hashed into the cache key (timeout stripped), the
// requested timeout in milliseconds (0 = server default), and the
// engine runner.
type parseFunc func(raw json.RawMessage) (keyOpts any, timeoutMS int, run runFunc, err error)

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintln(w, `{"status":"ok"}`)
	s.metrics.record("/healthz", http.StatusOK, time.Since(start).Milliseconds())
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	// A failed write here means the client is gone; there is no better
	// channel to report that on.
	_ = enc.Encode(s.Stats())
	s.metrics.record("/v1/stats", http.StatusOK, time.Since(start).Milliseconds())
}

func writeError(w http.ResponseWriter, status int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": msg})
}

// engineHandler wraps one engine endpoint with the shared request glue:
// body limit, key derivation (memo first), cache lookup with
// single-flight, worker pool admission, deadline handling, and metrics.
func (s *Server) engineHandler(name string, parse parseFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		s.metrics.inFlight.Add(1)
		status := http.StatusOK
		defer func() {
			s.metrics.inFlight.Add(-1)
			s.metrics.record(name, status, time.Since(start).Milliseconds())
		}()
		// A panic outside the engine run (decoding, parsing or
		// generating, canonicalizing, decoding options) is the server's
		// fault as an engine panic is: answer it 500 with one JSON body,
		// as execute does, rather than let net/http drop the connection.
		// Each path below writes its answer last (the async path then
		// only memoizes the key), so a panic recovered here has written
		// nothing.
		defer func() {
			if r := recover(); r != nil {
				fmt.Fprintf(os.Stderr, "serve: %s: request panic: %v\n%s", name, r, debug.Stack())
				status = http.StatusInternalServerError
				writeError(w, status, errRequestPanic.Error())
			}
		}()

		if r.Method != http.MethodPost {
			status = http.StatusMethodNotAllowed
			w.Header().Set("Allow", http.MethodPost)
			writeError(w, status, "POST required")
			return
		}
		// The body is read whole (not stream-decoded) because the key
		// memo digests it and an async submission journals the
		// verbatim envelope for replay after a restart.
		body, err := readBody(w, r, s.cfg.MaxBody)
		if err != nil {
			var mbe *http.MaxBytesError
			if errors.As(err, &mbe) {
				status = http.StatusRequestEntityTooLarge
			} else {
				status = http.StatusBadRequest
			}
			writeError(w, status, "read request: "+err.Error())
			return
		}
		inv, err := s.resolve(name, parse, body)
		if err != nil {
			status = writeFailure(w, err)
			return
		}

		if inv.async || preferAsync(r) {
			status = s.submitJob(w, name, inv.key, body, inv.timeoutMS)
			if status == http.StatusAccepted {
				s.memo.put(inv.digest, inv.memoEntry)
			}
			return
		}

		timeout := s.cfg.RequestTimeout
		if inv.timeoutMS > 0 {
			if d := time.Duration(inv.timeoutMS) * time.Millisecond; d < timeout {
				timeout = d
			}
		}
		ctx, cancel := context.WithTimeout(r.Context(), timeout)
		defer cancel()

		val, hit, err := s.execute(ctx, inv)
		if err != nil {
			status = writeFailure(w, err)
			return
		}
		h := w.Header()
		h.Set("Content-Type", "application/json")
		if hit {
			h.Set("X-Cache", "hit")
		} else {
			h.Set("X-Cache", "miss")
		}
		_, _ = w.Write(val)
	}
}

// errEnginePanic is the error of an engine run that panicked. The
// fault is the server's, not the request's, so it is answered 500.
var errEnginePanic = errors.New("internal error: the engine failed on this request")

// errRequestPanic answers a request whose handling panicked outside the
// engine run.
var errRequestPanic = errors.New("internal error: the server failed on this request")

// writeFailure answers a failed engine request and returns its status:
// the refused body's own status, 500 for an engine that panicked, 504
// at the deadline, 499 (nothing written) when the client went away, and
// 400 for an engine that rejected its input.
func writeFailure(w http.ResponseWriter, err error) int {
	var rerr *requestError
	switch {
	case errors.As(err, &rerr):
		writeError(w, rerr.status, rerr.msg)
		return rerr.status
	case errors.Is(err, errEnginePanic):
		writeError(w, http.StatusInternalServerError, err.Error())
		return http.StatusInternalServerError
	case errors.Is(err, context.DeadlineExceeded):
		writeError(w, http.StatusGatewayTimeout, "deadline exceeded before the engine finished")
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		// The client disconnected; there is no one to write to.
		return statusClientClosed
	default:
		writeError(w, http.StatusBadRequest, err.Error())
		return http.StatusBadRequest
	}
}

// resolve derives the invocation for one request body, memo first. A
// body that succeeded before yields its memoized entry without being
// decoded, parsed or generated, canonicalized, or re-hashed; any other
// body takes the full path.
func (s *Server) resolve(endpoint string, parse parseFunc, body []byte) (*invocation, error) {
	digest := bodyDigest(endpoint, body)
	if e, ok := s.memo.get(digest); ok {
		return &invocation{memoEntry: e, endpoint: endpoint, body: body, digest: digest, parse: parse}, nil
	}
	return derive(endpoint, parse, body, digest)
}

// execute answers inv from the result cache, running the engine on a
// miss, and memoizes inv's key once the answer is in hand. A memoized
// invocation whose result is no longer cached (evicted, or still being
// computed) re-materializes its circuit and runner first but keeps the
// memoized key: derivation is deterministic in the body, so
// canonicalizing and hashing again would give the same key. Get peeks
// only at completed entries, so GetOrCompute counts the miss or joins
// the in-flight computation exactly as for a body the memo never saw.
func (s *Server) execute(ctx context.Context, inv *invocation) (val []byte, hit bool, err error) {
	if inv.c == nil {
		if val, ok := s.cache.Get(inv.key); ok {
			return val, true, nil
		}
		full, _, err := materialize(inv.endpoint, inv.parse, inv.body, inv.digest)
		if err != nil {
			return nil, false, err
		}
		full.memoEntry = inv.memoEntry
		inv = full
	}
	// Copy out what the engine run and the memo insert need, so the
	// request body is garbage while the engine runs.
	endpoint, c, run := inv.endpoint, inv.c, inv.run
	digest, entry := inv.digest, inv.memoEntry
	val, hit, err = s.cache.GetOrCompute(ctx, entry.key, func() (resp []byte, err error) {
		if err := s.pool.Acquire(ctx); err != nil {
			return nil, err
		}
		defer s.pool.Release()
		// A panic ends this flight with an error, so its waiters wake
		// and nothing is cached or memoized.
		defer func() {
			if r := recover(); r != nil {
				fmt.Fprintf(os.Stderr, "serve: %s: engine panic: %v\n%s", endpoint, r, debug.Stack())
				resp, err = nil, errEnginePanic
			}
		}()
		if h := testHookCompute; h != nil {
			h(endpoint)
		}
		out, err := run(ctx, c)
		if err != nil {
			return nil, err
		}
		return json.Marshal(out)
	})
	if err == nil {
		s.memo.put(digest, entry)
	}
	return val, hit, err
}

// circuitInfo is the common response header describing the circuit the
// engine ran on.
type circuitInfo struct {
	Name    string `json:"name"`
	Gates   int    `json:"gates"`
	Inputs  int    `json:"inputs"`
	Outputs int    `json:"outputs"`
}

func describe(c *netlist.Circuit) circuitInfo {
	return circuitInfo{
		Name:    c.Name(),
		Gates:   c.NumGates(),
		Inputs:  c.NumInputs(),
		Outputs: c.NumOutputs(),
	}
}

// ---- /v1/plan ----

// planOptions selects and parameterizes a test point planner. Field
// order is the canonical options encoding — do not reorder.
type planOptions struct {
	// Planner is one of "cuts" (P1 full-test-point DP), "observe" (P2
	// observation point DP), "control" (greedy control points), or
	// "hybrid" (control then observe; the default).
	Planner string `json:"planner"`
	// K is the cut budget for "cuts" (default 4).
	K int `json:"k"`
	// NCP / NOP are the control / observation point budgets for
	// "control", "observe", and "hybrid" (defaults 3 / 4).
	NCP int `json:"ncp"`
	NOP int `json:"nop"`
	// Dth is the COP detection-probability threshold, in (0, 1]
	// (default 1/4096).
	Dth float64 `json:"dth"`
	// MaxCandidates caps the control-point candidates evaluated per
	// greedy iteration for "control" and "hybrid" (0 = engine default,
	// 64).
	MaxCandidates int `json:"max_candidates"`
	// TimeoutMS optionally shortens the server request deadline. It is
	// excluded from the cache key.
	TimeoutMS int `json:"timeout_ms,omitempty"`
}

type testPointJSON struct {
	Signal string `json:"signal"`
	Kind   string `json:"kind"`
}

type planResponse struct {
	Circuit  circuitInfo     `json:"circuit"`
	Planner  string          `json:"planner"`
	Points   []testPointJSON `json:"points"`
	MaxCost  int             `json:"max_cost,omitempty"`
	BaseCost int             `json:"base_cost,omitempty"`
	// CoveredBefore and CoveredAfter count the faults whose COP-modelled
	// detection probability reaches dth, without and with the points.
	// They are not exact fault coverage: on 1000- and 2000-gate 16-input
	// DAGs they read 7–12 points above exhaustive simulation.
	CoveredBefore int   `json:"covered_before,omitempty"`
	CoveredAfter  int   `json:"covered_after,omitempty"`
	TotalFaults   int   `json:"total_faults,omitempty"`
	PrunedFaults  int   `json:"pruned_faults,omitempty"`
	StatesVisited int64 `json:"states_visited,omitempty"`
}

func namedPoints(c *netlist.Circuit, pts []netlist.TestPoint) []testPointJSON {
	out := make([]testPointJSON, len(pts))
	for i, p := range pts {
		out[i] = testPointJSON{Signal: c.GateName(p.Signal), Kind: p.Kind.String()}
	}
	return out
}

func parsePlan(raw json.RawMessage) (any, int, runFunc, error) {
	opts := planOptions{Planner: "hybrid", K: 4, NCP: 3, NOP: 4, Dth: 1.0 / 4096}
	if err := decodeOptions(raw, &opts); err != nil {
		return nil, 0, nil, err
	}
	switch opts.Planner {
	case "cuts", "observe", "control", "hybrid":
	default:
		return nil, 0, nil, fmt.Errorf("unknown planner %q", opts.Planner)
	}
	if opts.MaxCandidates < 0 {
		return nil, 0, nil, fmt.Errorf("max_candidates must be non-negative, got %d", opts.MaxCandidates)
	}
	if !(opts.Dth > 0 && opts.Dth <= 1) {
		return nil, 0, nil, fmt.Errorf("dth must be in (0, 1], got %g", opts.Dth)
	}
	timeoutMS := opts.TimeoutMS
	opts.TimeoutMS = 0
	run := func(ctx context.Context, c *netlist.Circuit) (any, error) {
		resp := planResponse{Circuit: describe(c), Planner: opts.Planner}
		switch opts.Planner {
		case "cuts":
			p, err := tpi.PlanCutsDPContext(ctx, c, opts.K)
			if err != nil {
				return nil, err
			}
			resp.Points = namedPoints(c, p.TestPoints())
			resp.MaxCost, resp.BaseCost, resp.StatesVisited = p.MaxCost, p.BaseCost, p.StatesVisited
		case "observe":
			faults := fault.CollapsedUniverse(c)
			p, err := tpi.PlanObservationPointsDPContext(ctx, c, faults, opts.NOP, opts.Dth, tpi.OPOptions{})
			if err != nil {
				return nil, err
			}
			resp.Points = namedPoints(c, p.TestPoints())
			resp.CoveredBefore, resp.CoveredAfter = p.CoveredBefore, p.CoveredAfter
			resp.TotalFaults, resp.StatesVisited = p.TotalFaults, p.StatesVisited
		case "control":
			faults := fault.CollapsedUniverse(c)
			p, err := tpi.PlanControlPointsGreedyContext(ctx, c, faults, opts.NCP, opts.Dth, tpi.CPOptions{MaxCandidates: opts.MaxCandidates})
			if err != nil {
				return nil, err
			}
			// Later points may reference gates inserted by earlier ones;
			// the modified circuit holds all of them.
			resp.Points = namedPoints(p.Modified, p.Points)
			resp.CoveredBefore, resp.CoveredAfter = p.CoveredBefore, p.CoveredAfter
			resp.TotalFaults, resp.StatesVisited = p.TotalFaults, p.Evaluations
		case "hybrid":
			faults := fault.CollapsedUniverse(c)
			p, err := tpi.PlanHybridContext(ctx, c, faults, opts.NCP, opts.NOP, opts.Dth, tpi.CPOptions{MaxCandidates: opts.MaxCandidates}, tpi.OPOptions{})
			if err != nil {
				return nil, err
			}
			// Signal IDs from both stages refer to intermediate circuits
			// (control points to successive control insertions, observe
			// points to the control-modified circuit); the final Modified
			// circuit preserves all of their gate IDs and names.
			resp.Points = append(namedPoints(p.Modified, p.Control.Points), namedPoints(p.Modified, p.Observe.TestPoints())...)
			resp.CoveredBefore, resp.CoveredAfter = p.Observe.CoveredBefore, p.Observe.CoveredAfter
			resp.TotalFaults, resp.PrunedFaults = p.Observe.TotalFaults, p.PrunedFaults
		}
		return &resp, nil
	}
	return opts, timeoutMS, run, nil
}

// ---- /v1/faultsim ----

type simOptions struct {
	// Patterns bounds the random test length (default 4096).
	Patterns int `json:"patterns"`
	// Source is "lfsr" (default) or "counter" (exhaustive).
	Source string `json:"source"`
	// Seed seeds the LFSR (default 1; ignored for "counter").
	Seed uint64 `json:"seed"`
	// FullUniverse simulates the uncollapsed fault universe.
	FullUniverse bool `json:"full_universe"`
	// KeepFaults disables fault dropping after first detection.
	KeepFaults bool `json:"keep_faults"`
	// CountDetections reports how many patterns detect each fault.
	// Meaningful beyond the first detection only with keep_faults.
	CountDetections bool `json:"count_detections"`
	TimeoutMS       int  `json:"timeout_ms,omitempty"`
}

type detectJSON struct {
	Fault   string `json:"fault"`
	Pattern int    `json:"pattern"`
}

type detectCountJSON struct {
	Fault string `json:"fault"`
	Count int    `json:"count"`
}

type simResponse struct {
	Circuit      circuitInfo       `json:"circuit"`
	Faults       int               `json:"faults"`
	Patterns     int               `json:"patterns"`
	Detected     int               `json:"detected"`
	Coverage     float64           `json:"coverage"`
	FirstDetect  []detectJSON      `json:"first_detect"`
	Undetected   []string          `json:"undetected"`
	DetectCounts []detectCountJSON `json:"detect_counts,omitempty"`
}

func parseFaultsim(raw json.RawMessage) (any, int, runFunc, error) {
	opts := simOptions{Patterns: 4096, Source: "lfsr", Seed: 1}
	if err := decodeOptions(raw, &opts); err != nil {
		return nil, 0, nil, err
	}
	if opts.Source != "lfsr" && opts.Source != "counter" {
		return nil, 0, nil, fmt.Errorf("unknown pattern source %q", opts.Source)
	}
	if opts.Patterns < 1 {
		return nil, 0, nil, fmt.Errorf("patterns must be positive, got %d", opts.Patterns)
	}
	timeoutMS := opts.TimeoutMS
	opts.TimeoutMS = 0
	run := func(ctx context.Context, c *netlist.Circuit) (any, error) {
		faults := fault.CollapsedUniverse(c)
		if opts.FullUniverse {
			faults = fault.Universe(c)
		}
		var src pattern.Source = pattern.NewLFSR(opts.Seed)
		if opts.Source == "counter" {
			src = pattern.NewCounter(c.NumInputs())
		}
		res, err := fsim.RunContext(ctx, c, faults, src, fsim.Options{
			MaxPatterns:     opts.Patterns,
			DropFaults:      !opts.KeepFaults,
			CountDetections: opts.CountDetections,
		})
		if err != nil {
			return nil, err
		}
		resp := simResponse{
			Circuit:     describe(c),
			Faults:      len(res.Faults),
			Patterns:    res.Patterns,
			Detected:    len(res.FirstDetect),
			Coverage:    res.Coverage(),
			FirstDetect: make([]detectJSON, 0, len(res.FirstDetect)),
			Undetected:  []string{},
		}
		for f, p := range res.FirstDetect {
			resp.FirstDetect = append(resp.FirstDetect, detectJSON{Fault: f.Name(c), Pattern: p})
		}
		sort.Slice(resp.FirstDetect, func(i, j int) bool {
			a, b := resp.FirstDetect[i], resp.FirstDetect[j]
			if a.Pattern != b.Pattern {
				return a.Pattern < b.Pattern
			}
			return a.Fault < b.Fault
		})
		for _, f := range res.Undetected() {
			resp.Undetected = append(resp.Undetected, f.Name(c))
		}
		for f, n := range res.DetectCount {
			resp.DetectCounts = append(resp.DetectCounts, detectCountJSON{Fault: f.Name(c), Count: n})
		}
		sort.Slice(resp.DetectCounts, func(i, j int) bool {
			return resp.DetectCounts[i].Fault < resp.DetectCounts[j].Fault
		})
		return &resp, nil
	}
	return opts, timeoutMS, run, nil
}

// fitCircuit refuses options that decoded but ask for more than the
// request's circuit allows: today a counter source over more inputs
// than pattern.NewCounter enumerates. materialize calls it, so the
// refusal comes before any engine runs or any job is accepted.
func fitCircuit(keyOpts any, c *netlist.Circuit) error {
	if o, ok := keyOpts.(simOptions); ok && o.Source == "counter" {
		return pattern.CheckCounterInputs(c.NumInputs())
	}
	return nil
}

// ---- /v1/atpg ----

type atpgOptions struct {
	// BacktrackLimit bounds the PODEM search per fault (0 = engine
	// default, 20000).
	BacktrackLimit int `json:"backtrack_limit"`
	// FullUniverse targets the uncollapsed fault universe.
	FullUniverse bool `json:"full_universe"`
	// Learn builds a static implication database (dominators plus
	// contrapositive learning) over the circuit and hands it to the
	// PODEM search for learned-implication pruning.
	Learn     bool `json:"learn"`
	TimeoutMS int  `json:"timeout_ms,omitempty"`
}

type atpgResponse struct {
	Circuit         circuitInfo `json:"circuit"`
	Faults          int         `json:"faults"`
	Vectors         []string    `json:"vectors"`
	Detected        int         `json:"detected"`
	Redundant       int         `json:"redundant"`
	Aborted         int         `json:"aborted"`
	RedundantFaults []string    `json:"redundant_faults"`
	AbortedFaults   []string    `json:"aborted_faults"`
}

func parseATPG(raw json.RawMessage) (any, int, runFunc, error) {
	var opts atpgOptions
	if err := decodeOptions(raw, &opts); err != nil {
		return nil, 0, nil, err
	}
	if opts.BacktrackLimit < 0 {
		return nil, 0, nil, fmt.Errorf("backtrack_limit must be non-negative, got %d", opts.BacktrackLimit)
	}
	timeoutMS := opts.TimeoutMS
	opts.TimeoutMS = 0
	run := func(ctx context.Context, c *netlist.Circuit) (any, error) {
		faults := fault.CollapsedUniverse(c)
		if opts.FullUniverse {
			faults = fault.Universe(c)
		}
		eng, err := learnEngine(ctx, c, opts.Learn)
		if err != nil {
			return nil, err
		}
		ts, err := atpg.GenerateTestsContext(ctx, c, faults, atpg.Options{BacktrackLimit: opts.BacktrackLimit, Learn: eng})
		if err != nil {
			return nil, err
		}
		resp := atpgResponse{
			Circuit:         describe(c),
			Faults:          len(faults),
			Vectors:         make([]string, len(ts.Vectors)),
			Detected:        len(ts.Detected),
			Redundant:       len(ts.Redundant),
			Aborted:         len(ts.Aborted),
			RedundantFaults: []string{},
			AbortedFaults:   []string{},
		}
		for i, v := range ts.Vectors {
			b := make([]byte, len(v))
			for j, bit := range v {
				b[j] = '0'
				if bit {
					b[j] = '1'
				}
			}
			resp.Vectors[i] = string(b)
		}
		for _, f := range ts.Redundant {
			resp.RedundantFaults = append(resp.RedundantFaults, f.Name(c))
		}
		for _, f := range ts.Aborted {
			resp.AbortedFaults = append(resp.AbortedFaults, f.Name(c))
		}
		return &resp, nil
	}
	return opts, timeoutMS, run, nil
}

// learnEngine builds the optional static-learning implication engine for
// /v1/atpg. The build honors ctx: the dominator fixpoint and the
// implication sweeps abort with the context's error once it is done.
func learnEngine(ctx context.Context, c *netlist.Circuit, learn bool) (*implic.Engine, error) {
	if !learn {
		return nil, nil
	}
	return implic.NewContext(ctx, c, implic.Options{})
}

// ---- /v1/lint ----

type lintOptions struct {
	TimeoutMS int `json:"timeout_ms,omitempty"`
}

type lintResponse struct {
	Circuit  circuitInfo  `json:"circuit"`
	Findings int          `json:"findings"`
	Report   *lint.Report `json:"report"`
}

func parseLint(raw json.RawMessage) (any, int, runFunc, error) {
	var opts lintOptions
	if err := decodeOptions(raw, &opts); err != nil {
		return nil, 0, nil, err
	}
	timeoutMS := opts.TimeoutMS
	opts.TimeoutMS = 0
	run := func(ctx context.Context, c *netlist.Circuit) (any, error) {
		rep, err := lint.AnalyzeContext(ctx, c, lint.Options{})
		if err != nil {
			return nil, err
		}
		return &lintResponse{Circuit: describe(c), Findings: len(rep.Findings), Report: rep}, nil
	}
	return opts, timeoutMS, run, nil
}

// decodeOptions strictly decodes raw options over the defaults already
// set in dst; unknown fields are rejected so typos fail loudly instead
// of silently selecting defaults (and splitting the cache).
func decodeOptions(raw json.RawMessage, dst any) error {
	if len(raw) == 0 {
		return nil
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	return dec.Decode(dst)
}
