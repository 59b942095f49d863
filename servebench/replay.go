package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/atpg"
	"repro/internal/bench"
	"repro/internal/cli"
	"repro/internal/fault"
	"repro/internal/fsim"
	"repro/internal/implic"
	"repro/internal/netlist"
	"repro/internal/pattern"
	"repro/internal/progress"
	"repro/internal/serve"
	"repro/internal/tpi"
)

// The traced run. Spans are recorded from this file around calls into
// each layer's public entry points; nothing inside the program is
// instrumented. Each request is first served whole through an
// in-process serve.Handler ("handler"), then its stages are replayed
// one by one (under "replay"): envelope decode, circuit generation or
// parse, canonicalization, key hashing, cache lookup and, for requests
// that miss, the engine calls serve makes.

// counters accumulates the engines' work counts across replays.
type counters struct {
	dpRuns, hybridRuns, simRuns, atpgRuns int
	dpStates, cpEvals, simPatterns        int64
	podemCalls, aborted                   int64
	dpNS, controlNS, simNS, atpgNS        int64
	simPatternGates                       float64
}

// tracer replays request lists with spans.
type tracer struct {
	rec   *recorder
	cache *serve.Cache // lookup target for serve.cache_lookup
	mu    sync.Mutex
	work  counters
}

// placeholder is what replayed lookups insert on a miss; the engine
// result is not needed for timing.
var placeholder = []byte("{}")

// replay re-runs r's stages under parent and returns the summed stage
// time. engine selects whether the engine calls are replayed too.
func (t *tracer) replay(r request, parent int, id string, engine bool) (time.Duration, error) {
	var total time.Duration
	var err error
	step := func(name string, f func() error) {
		if err == nil {
			total += t.rec.timed(name, parent, id, func() { err = f() })
		}
	}
	var env envelope
	step("serve.decode", func() error {
		if err := json.Unmarshal(r.Body, &env); err != nil {
			return err
		}
		var opts map[string]any
		if len(env.Options) == 0 {
			return nil
		}
		return json.Unmarshal(env.Options, &opts)
	})
	var c *netlist.Circuit
	if env.Generate != "" {
		step("gen.generate", func() (err error) {
			c, err = cli.Generate(env.Generate)
			return err
		})
	} else {
		step("bench.parse", func() (err error) {
			if c, err = bench.ParseString(env.Bench, "request"); err != nil {
				return err
			}
			return c.Validate()
		})
	}
	var canon strings.Builder
	step("bench.canon", func() error { return bench.Write(&canon, c) })
	var key string
	step("serve.hash", func() error {
		h := sha256.New()
		fmt.Fprintf(h, "%s\n%d\n", r.Endpoint, canon.Len())
		_, _ = io.WriteString(h, canon.String()) // hash writes never fail
		h.Write(env.Options)
		key = fmt.Sprintf("%x", h.Sum(nil))
		return nil
	})
	step("serve.cache_lookup", func() error {
		_, _, err := t.cache.GetOrCompute(context.Background(), key, func() ([]byte, error) { return placeholder, nil })
		return err
	})
	if err != nil || !engine {
		return total, err
	}
	d, err := t.engine(r.Class, c, parent, id)
	return total + d, err
}

// engine replays the engine calls serve makes for a request class, with
// the options the workload sends.
func (t *tracer) engine(class string, c *netlist.Circuit, parent int, id string) (time.Duration, error) {
	ctx := context.Background()
	var err error
	if class == "cuts" {
		// The cuts planner takes no fault list.
		var p *tpi.CutPlan
		d := t.rec.timed("tpi.cuts", parent, id, func() { p, err = tpi.PlanCutsDPContext(ctx, c, 4) })
		if err == nil {
			t.count(func(w *counters) { w.dpRuns++; w.dpStates += p.StatesVisited; w.dpNS += d.Nanoseconds() })
		}
		return d, err
	}
	var faults []fault.Fault
	total := t.rec.timed("fault.collapse", parent, id, func() { faults = fault.CollapsedUniverse(c) })
	switch class {
	case "observe":
		var p *tpi.OPPlan
		d := t.rec.timed("tpi.observe", parent, id, func() {
			p, err = tpi.PlanObservationPointsDPContext(ctx, c, faults, 4, 1.0/4096, tpi.OPOptions{})
		})
		if err == nil {
			t.count(func(w *counters) { w.dpRuns++; w.dpStates += p.StatesVisited; w.dpNS += d.Nanoseconds() })
		}
		return total + d, err
	case "hybrid":
		// Split the planner into its stages by the first progress sample
		// of each: prune runs until the control greedy reports, the
		// greedy until the observation DP reports.
		var firstCP, firstOP time.Time
		pctx := progress.With(ctx, func(stage string, _, _ int64) {
			switch {
			case stage == "control-points" && firstCP.IsZero():
				firstCP = time.Now()
			case stage == "op-regions" && firstOP.IsZero():
				firstOP = time.Now()
			}
		})
		start := time.Now()
		p, err := tpi.PlanHybridContext(pctx, c, faults, 3, 4, 1.0/4096, tpi.CPOptions{}, tpi.OPOptions{})
		end := time.Now()
		if err != nil {
			return total, err
		}
		if firstCP.IsZero() {
			firstCP = end
		}
		if firstOP.IsZero() {
			firstOP = end
		}
		h := t.rec.add("tpi.hybrid", parent, id, start, end)
		t.rec.add("tpi.prune", h, id, start, firstCP)
		t.rec.add("tpi.control", h, id, firstCP, firstOP)
		t.rec.add("tpi.opdp", h, id, firstOP, end)
		t.count(func(w *counters) {
			w.hybridRuns++
			w.cpEvals += int64(p.Control.Evaluations)
			w.controlNS += firstOP.Sub(firstCP).Nanoseconds()
		})
		return total + end.Sub(start), nil
	case "faultsim":
		var res *fsim.Result
		d := t.rec.timed("fsim.run", parent, id, func() {
			res, err = fsim.RunContext(ctx, c, faults, pattern.NewLFSR(1), fsim.Options{MaxPatterns: 32768, DropFaults: true})
		})
		if err == nil {
			t.count(func(w *counters) {
				w.simRuns++
				w.simPatterns += int64(res.Patterns)
				w.simNS += d.Nanoseconds()
				w.simPatternGates += float64(res.Patterns) * float64(c.NumGates())
			})
		}
		return total + d, err
	case "atpg", "atpg-learn":
		var eng *implic.Engine
		if class == "atpg-learn" {
			total += t.rec.timed("implic.build", parent, id, func() { eng, err = implic.NewContext(ctx, c, implic.Options{}) })
			if err != nil {
				return total, err
			}
		}
		var calls int64
		pctx := progress.With(ctx, func(stage string, _, _ int64) {
			if stage == "faults" {
				calls++
			}
		})
		var ts *atpg.TestSet
		d := t.rec.timed("atpg.run", parent, id, func() {
			ts, err = atpg.GenerateTestsContext(pctx, c, faults, atpg.Options{BacktrackLimit: 100, Learn: eng})
		})
		if err == nil {
			t.count(func(w *counters) {
				w.atpgRuns++
				w.podemCalls += calls
				w.aborted += int64(len(ts.Aborted))
				w.atpgNS += d.Nanoseconds()
			})
		}
		return total + d, err
	}
	return total, fmt.Errorf("no engine replay for class %q", class)
}

func (t *tracer) count(f func(*counters)) {
	t.mu.Lock()
	f(&t.work)
	t.mu.Unlock()
}

func serveOnce(h http.Handler, method, target string, body []byte) *httptest.ResponseRecorder {
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest(method, target, bytes.NewReader(body)))
	return rr
}

// listTrace is what one in-process list replay measured.
type listTrace struct {
	rootMS []float64 // per request: handler (sync) or submit to done (async)
	glueMS []float64 // per sync request: handler minus replayed stages
	stats  [2]serve.Stats
	n      int
}

func newServer(w *workload, dir string) (*serve.Server, error) {
	return serve.New(serve.Config{Workers: serverWorkers, CacheBytes: w.CacheBytes, JobDir: filepath.Join(dir, "inproc-"+w.Name), MaxJobs: 1 << 20})
}

// syncList serves each request of the pass in-process, then replays its
// stages; engine calls are replayed for workloads that miss the cache.
func (t *tracer) syncList(w *workload, srv *serve.Server, ck *checker, passes int) (listTrace, error) {
	var lt listTrace
	h := srv.Handler()
	want := wantCache(w.Name)
	warm := &tracer{rec: &recorder{}, cache: t.cache}
	for _, r := range w.Warm {
		serveOnce(h, http.MethodPost, r.Endpoint, r.Body)
		if _, err := warm.replay(r, 0, "", false); err != nil {
			return lt, err
		}
	}
	lt.stats[0] = srv.Stats()
	for p := 0; p < passes; p++ {
		for i, r := range w.Pass {
			id := fmt.Sprintf("%s/%d/%d", w.Name, p, i)
			root := t.rec.begin("request", 0, id)
			var start, end time.Time
			var rr *httptest.ResponseRecorder
			handle := func() {
				start = time.Now()
				rr = serveOnce(h, http.MethodPost, r.Endpoint, r.Body)
				end = time.Now()
				t.rec.add("handler", root, id, start, end)
			}
			var stages time.Duration
			var err error
			replay := func() {
				rp := t.rec.begin("replay", root, id)
				stages, err = t.replay(r, rp, id, want != "hit")
				t.rec.end(rp)
			}
			// Alternate which runs first, so warm caches and heap growth
			// favour neither side of serve.glue_ms.
			if i%2 == 0 {
				handle()
				replay()
			} else {
				replay()
				handle()
			}
			t.rec.end(root)
			if err != nil {
				return lt, err
			}
			if rr.Code != http.StatusOK || (want != "" && rr.Header().Get("X-Cache") != want) {
				return lt, fmt.Errorf("%s: in-process status %d, X-Cache %q", id, rr.Code, rr.Header().Get("X-Cache"))
			}
			if err := ck.check(i, rr.Body.Bytes()); err != nil {
				return lt, err
			}
			lt.rootMS = append(lt.rootMS, ms(end.Sub(start)))
			lt.glueMS = append(lt.glueMS, ms(end.Sub(start)-stages))
			lt.n++
		}
	}
	lt.stats[1] = srv.Stats()
	return lt, nil
}

// eventWriter is a streaming ResponseWriter for the job events handler
// that timestamps the first non-queued and the terminal snapshot.
type eventWriter struct {
	header        http.Header
	buf           []byte
	running, done time.Time
	last          jobSnapshot
}

func (e *eventWriter) Header() http.Header { return e.header }
func (e *eventWriter) WriteHeader(int)     {}
func (e *eventWriter) Flush()              {}
func (e *eventWriter) Write(p []byte) (int, error) {
	e.buf = append(e.buf, p...)
	for {
		i := bytes.IndexByte(e.buf, '\n')
		if i < 0 {
			return len(p), nil
		}
		if err := json.Unmarshal(e.buf[:i], &e.last); err != nil {
			return 0, err
		}
		e.buf = e.buf[i+1:]
		now := time.Now()
		if e.running.IsZero() && e.last.State != "queued" {
			e.running = now
		}
		if e.last.State == "done" || e.last.State == "failed" || e.last.State == "canceled" {
			e.done = now
		}
	}
}

// asyncJob submits r in-process and follows its events to the end,
// returning the job ID and the 202, running and terminal times.
func asyncJob(h http.Handler, r request) (string, [3]time.Time, error) {
	var at [3]time.Time
	rr := serveOnce(h, http.MethodPost, r.Endpoint, r.Body)
	at[0] = time.Now()
	var sub struct{ Job jobSnapshot }
	if rr.Code != http.StatusAccepted {
		return "", at, fmt.Errorf("in-process submit: status %d", rr.Code)
	}
	if err := json.Unmarshal(rr.Body.Bytes(), &sub); err != nil {
		return "", at, err
	}
	ew := &eventWriter{header: http.Header{}}
	h.ServeHTTP(ew, httptest.NewRequest(http.MethodGet, "/v1/jobs/"+sub.Job.ID+"/events", nil))
	if ew.last.State != "done" {
		return sub.Job.ID, at, fmt.Errorf("in-process job %s ended %q: %s", sub.Job.ID, ew.last.State, ew.last.Error)
	}
	at[1], at[2] = ew.running, ew.done
	return sub.Job.ID, at, nil
}

// asyncList runs the pass as in-process async jobs from one client, then
// replays each job's stages through a worker pool of the server's size
// from as many goroutines, timing the pool wait.
func (t *tracer) asyncList(w *workload, srv *serve.Server, ck *checker) (listTrace, error) {
	var lt listTrace
	h := srv.Handler()
	for _, r := range w.Warm {
		if _, _, err := asyncJob(h, r); err != nil {
			return lt, err
		}
	}
	lt.stats[0] = srv.Stats()
	root := make([]float64, len(w.Pass))
	err := forEach(len(w.Pass), 1, func(i int) error {
		r := w.Pass[i]
		id := fmt.Sprintf("%s/0/%d", w.Name, i)
		start := time.Now()
		jobID, at, err := asyncJob(h, r)
		if err != nil {
			return err
		}
		rr := serveOnce(h, http.MethodGet, "/v1/jobs/"+jobID, nil)
		var st struct {
			Result json.RawMessage `json:"result"`
		}
		if err := json.Unmarshal(rr.Body.Bytes(), &st); err != nil {
			return err
		}
		if err := ck.check(i, st.Result); err != nil {
			return err
		}
		rt := t.rec.add("request", 0, id, start, at[2])
		t.rec.add("jobs.submit", rt, id, start, at[0])
		t.rec.add("jobs.queue_wait", rt, id, at[0], at[1])
		t.rec.add("jobs.run", rt, id, at[1], at[2])
		root[i] = ms(at[2].Sub(start))
		return nil
	})
	if err != nil {
		return lt, err
	}
	lt.stats[1] = srv.Stats()
	lt.rootMS, lt.n = root, len(w.Pass)
	pool := serve.NewPool(serverWorkers)
	err = forEach(len(w.Pass), serverWorkers, func(i int) error {
		id := fmt.Sprintf("%s/0/%d", w.Name, i)
		rp := t.rec.begin("replay", 0, id)
		defer t.rec.end(rp)
		start := time.Now()
		if err := pool.Acquire(context.Background()); err != nil {
			return err
		}
		defer pool.Release()
		t.rec.add("serve.pool_wait", rp, id, start, time.Now())
		_, err := t.replay(w.Pass[i], rp, id, true)
		return err
	})
	return lt, err
}

// forEach runs f(0..n-1) from the given number of closed-loop workers
// and returns the first error.
func forEach(n, workers int, f func(int) error) error {
	var mu sync.Mutex
	next, firstErr := 0, error(nil)
	var wg sync.WaitGroup
	for k := 0; k < workers; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				stop := i >= n || firstErr != nil
				mu.Unlock()
				if stop {
					return
				}
				if err := f(i); err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	return firstErr
}

// overhead times the plan-hit handler loop with span recording off and
// on, alternating, and returns median(on)/median(off) - 1.
func overhead(h http.Handler, w *workload, rounds int) float64 {
	var off, on []float64
	for k := 0; k < rounds; k++ {
		for _, record := range []bool{false, true} {
			rec := &recorder{on: record, t0: time.Now()}
			start := time.Now()
			for i, r := range w.Pass {
				id := fmt.Sprintf("%s/%d", w.Name, i)
				root := rec.begin("request", 0, id)
				hs := time.Now()
				serveOnce(h, http.MethodPost, r.Endpoint, r.Body)
				rec.add("handler", root, id, hs, time.Now())
				rec.end(root)
			}
			if record {
				on = append(on, ms(time.Since(start)))
			} else {
				off = append(off, ms(time.Since(start)))
			}
		}
	}
	return median(on)/median(off) - 1
}

// runTraced measures the named workload end to end briefly (for the
// transport and runtime figures), then replays all three workloads'
// request lists in-process with spans and reports per-layer metrics.
func runTraced(s *runner, rec *record) (result, error) {
	o := s.o
	digests, err := loadDigests(filepath.Join(o.root, "servebench", "digests.json"))
	if err != nil {
		return result{}, err
	}
	res := result{Correct: true, Metrics: map[string]metric{}}

	// End to end, untraced: the named workload on a child server.
	ck, err := newChecker(s.w.Pass, digests.lookup(o.seed, o.workload))
	if err != nil {
		return result{}, err
	}
	if err := s.prefillJobs(); err != nil {
		return result{}, err
	}
	srv, _, err := s.setUp()
	if err != nil {
		return result{}, err
	}
	v0, err := srv.vars(s.hc)
	if err != nil {
		srv.kill()
		return result{}, err
	}
	outs := closedLoop(s.hc, srv.base, s.w, s.w.passes(o.seconds/3, 1), wantCache(o.workload), nil)
	v1, err := srv.vars(s.hc)
	if err != nil {
		srv.kill()
		return result{}, err
	}
	var e2e []float64
	for _, out := range outs {
		err, body := out.Err, out.Body
		if err == nil && out.JobID != "" {
			body, err = fetchResult(s.hc, srv.base, out.JobID)
		}
		if err == nil {
			err = ck.check(out.Idx, body)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "servebench: failed:", err)
			res.Failed++
			continue
		}
		e2e = append(e2e, ms(out.Latency))
	}
	sound := true
	if err := srv.stop(); err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		sound = false
	}
	res.Attempted = len(outs)
	n := float64(len(outs))
	res.Metrics["runtime.gc_per_req"] = metric{float64(v1.Memstats.NumGC-v0.Memstats.NumGC) / n, "count"}
	res.Metrics["runtime.gc_cpu_frac"] = metric{v1.Memstats.GCCPUFraction, "frac"}

	// In-process, traced: every workload's list.
	t := &tracer{rec: newRecorder()}
	traces := map[string]listTrace{}
	// The plan-hit server stays up for the tracing-overhead loop.
	var hitServer *serve.Server
	var hitW *workload
	defer func() {
		if hitServer != nil {
			hitServer.Close()
		}
	}()
	for _, name := range workloadNames {
		w := s.w
		if name != o.workload {
			if w, err = buildWorkload(name, o.seed); err != nil {
				return result{}, err
			}
		}
		ck, err := newChecker(w.Pass, digests.lookup(o.seed, name))
		if err != nil {
			return result{}, err
		}
		srv, err := newServer(w, s.dir)
		if err != nil {
			return result{}, err
		}
		t.cache = serve.NewCache(cacheCapacity(w))
		var lt listTrace
		switch name {
		case "plan-hit":
			lt, err = t.syncList(w, srv, ck, 2)
			hitServer, hitW = srv, w
		case "plan-miss":
			lt, err = t.syncList(w, srv, ck, 1)
		default:
			lt, err = t.asyncList(w, srv, ck)
		}
		if name != "plan-hit" {
			srv.Close()
		}
		if err != nil {
			return result{}, fmt.Errorf("traced %s: %w", name, err)
		}
		traces[name] = lt
		res.Attempted += lt.n
	}
	res.Metrics["trace.overhead_frac"] = metric{overhead(hitServer.Handler(), hitW, 3), "frac"}

	spans := t.rec.snapshot()
	sum := summarize(spans)
	addLayerMetrics(res.Metrics, sum, traces, t.work)
	res.Metrics["http.transport_ms"] = metric{median(e2e) - median(traces[o.workload].rootMS), "ms"}
	res.Metrics["trace.dominant_share"] = metric{dominantShare(spans, o.workload), "frac"}

	traceDir := filepath.Join(o.root, ".bench_build", "trace")
	if err := os.MkdirAll(traceDir, 0o755); err != nil {
		return result{}, err
	}
	base := filepath.Join(traceDir, fmt.Sprintf("%s-seed%d", o.workload, o.seed))
	if err := writeJSONL(base+".jsonl", spans); err != nil {
		return result{}, err
	}
	b, err := json.MarshalIndent(sum, "", "  ")
	if err != nil {
		return result{}, err
	}
	if err := os.WriteFile(base+".summary.json", b, 0o644); err != nil {
		return result{}, err
	}
	printLayers(spans)
	samples := map[string]int{}
	for name, st := range sum.Names {
		samples[name+"_ms"] = st.Count
	}
	printTable(o.workload, res.Metrics, samples, res.Attempted)
	fmt.Printf("spans: %s.jsonl (%d spans), summary: %s.summary.json\n", base, len(spans), base)
	res.Correct = res.Failed == 0 && sound
	return res, nil
}

// cacheCapacity mirrors the server's default when the workload sets no
// cache size.
func cacheCapacity(w *workload) int64 {
	if w.CacheBytes > 0 {
		return w.CacheBytes
	}
	return 64 << 20
}

// addLayerMetrics derives the per-layer metrics from the span summary,
// the list traces and the engines' work counts. Every ratio names its
// base in README.md.
func addLayerMetrics(m map[string]metric, sum summary, traces map[string]listTrace, w counters) {
	set := func(name string, v float64, unit string) { m[name] = metric{v, unit} }
	for _, name := range []string{"serve.decode", "gen.generate", "bench.parse", "bench.canon", "serve.hash", "serve.cache_lookup",
		"fault.collapse", "tpi.observe", "tpi.cuts", "tpi.prune", "tpi.control", "tpi.opdp", "fsim.run", "atpg.run", "implic.build",
		"jobs.submit", "jobs.queue_wait", "jobs.run", "serve.pool_wait"} {
		set(name+"_ms", sum.medianMS(name), "ms")
	}
	hit := traces["plan-hit"]
	set("serve.handler_ms", median(append([]float64(nil), hit.rootMS...)), "ms")
	set("serve.glue_ms", median(append([]float64(nil), hit.glueMS...)), "ms")
	hs := hit.stats
	lookups := float64(hs[1].Cache.Hits - hs[0].Cache.Hits + hs[1].Cache.Misses - hs[0].Cache.Misses)
	set("serve.cache_hit_ratio", float64(hs[1].Cache.Hits-hs[0].Cache.Hits)/lookups, "frac")
	miss := traces["plan-miss"]
	set("serve.cache_evictions_per_req", float64(miss.stats[1].Cache.Evictions-miss.stats[0].Cache.Evictions)/float64(miss.n), "count")
	ga := traces["grade-async"]
	set("jobs.fsyncs_per_job", float64(ga.stats[1].Jobs.JournalFsyncs-ga.stats[0].Jobs.JournalFsyncs)/float64(ga.n), "count")

	div := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	set("tpi.states_visited", div(float64(w.dpStates), float64(w.dpRuns)), "count")
	set("tpi.ns_per_state", div(float64(w.dpNS), float64(w.dpStates)), "ns")
	set("tpi.cp_evaluations", div(float64(w.cpEvals), float64(w.hybridRuns)), "count")
	set("tpi.us_per_cp_eval", div(float64(w.controlNS)/1e3, float64(w.cpEvals)), "us")
	set("fsim.patterns", div(float64(w.simPatterns), float64(w.simRuns)), "count")
	set("fsim.ns_per_pattern_gate", div(float64(w.simNS), w.simPatternGates), "ns")
	set("atpg.podem_calls", div(float64(w.podemCalls), float64(w.atpgRuns)), "count")
	set("atpg.aborted", div(float64(w.aborted), float64(w.atpgRuns)), "count")
	set("atpg.us_per_podem_call", div(float64(w.atpgNS)/1e3, float64(w.podemCalls)), "us")
}

// dominantLayers are the layers predicted to take most of each
// workload's handler time.
var dominantLayers = map[string][]string{
	"plan-hit":    {"serve", "gen", "bench"},
	"plan-miss":   {"tpi", "fault"},
	"grade-async": {"fsim", "atpg", "implic"},
}

// dominantShare is the self time of the workload's predicted-dominant
// layers in its replays, over its requests' handler (or submit-to-done)
// time.
func dominantShare(spans []span, workload string) float64 {
	self := selfTimes(spans)
	var dom, base int64
	prefix := workload + "/"
	for _, s := range spans {
		if !strings.HasPrefix(s.Req, prefix) {
			continue
		}
		switch {
		case s.Name == "handler" || (s.Name == "request" && s.Parent == 0 && workload == "grade-async"):
			base += s.dur()
		case s.Name != "replay" && s.Name != "request":
			for _, l := range dominantLayers[workload] {
				if s.layer() == l {
					dom += self[s.ID]
				}
			}
		}
	}
	if base == 0 {
		return 0
	}
	return float64(dom) / float64(base)
}

// printLayers prints each workload's self time per layer and its share
// of that workload's handler time.
func printLayers(spans []span) {
	self := selfTimes(spans)
	for _, wl := range workloadNames {
		layers := map[string]int64{}
		for _, s := range spans {
			if strings.HasPrefix(s.Req, wl+"/") {
				layers[s.layer()] += self[s.ID]
			}
		}
		names := make([]string, 0, len(layers))
		for l := range layers {
			names = append(names, l)
		}
		sort.Strings(names)
		fmt.Printf("layers %-12s", wl)
		for _, l := range names {
			fmt.Printf(" %s=%.1fms", l, float64(layers[l])/1e6)
		}
		fmt.Printf(" dominant_share=%.3f\n", dominantShare(spans, wl))
	}
}
