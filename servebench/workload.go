package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"strings"

	"repro/internal/bench"
	"repro/internal/cli"
)

// DefaultSeed is the seed baselines are measured with; its response
// digests are committed in digests.json.
const DefaultSeed = 1

// HeldOutSeed is reserved for validating a claimed gain after the change
// was written against DefaultSeed. Its digests are committed too, and it
// yields the same class mix and circuit sizes as every other seed.
const HeldOutSeed = 7

// request is one entry of a workload's request list, encoded once up
// front so the client loop only sends bytes.
type request struct {
	// Class groups requests with the same endpoint, options and circuit
	// size; percentiles are sized so each falls inside one class.
	Class    string
	Endpoint string
	Async    bool
	Body     []byte
}

// envelope mirrors the serve request envelope.
type envelope struct {
	Bench    string          `json:"bench,omitempty"`
	Generate string          `json:"generate,omitempty"`
	Options  json.RawMessage `json:"options,omitempty"`
	Mode     string          `json:"mode,omitempty"`
}

// workload is a fixed, seeded request list plus the server flags and
// set-up traffic it needs.
type workload struct {
	Name string
	Why  string
	// CacheBytes is the server's result cache budget (0 = its default).
	CacheBytes int64
	// Pass is the measured list; runs replay it in whole passes, and a
	// response is identified by its index in the pass.
	Pass []request
	// PassSeconds is how long one pass took on the reference host (2
	// vCPUs of a 2.0 GHz Xeon); it turns --seconds into a pass count, so
	// a run does the same work however fast the host is that day.
	PassSeconds float64
	// Warm is sent during set-up, after /healthz answers.
	Warm []request
	// Prefill is submitted as async jobs to a throwaway server before
	// set-up, so the measured server starts by recovering a journal.
	Prefill []request
}

var workloadNames = []string{"plan-hit", "plan-miss", "grade-async"}

// passes is how many passes a run of about seconds replays on the
// reference host: at least one, and enough for minN samples.
func (w *workload) passes(seconds float64, minN int) int {
	n := max(1, int(math.Round(seconds/w.PassSeconds)))
	for n*len(w.Pass) < minN {
		n++
	}
	return n
}

// setupSeed draws the set-up traffic of plan-miss and grade-async, which
// need not match the pass: with the same warm-up and journal on every
// seed, setup_s varies with the host alone.
const setupSeed = 0

// buildWorkload returns the named workload's request lists for seed.
// The seed picks circuit seeds and request order only: every seed gives
// the same classes, counts and circuit sizes.
func buildWorkload(name string, seed int64) (*workload, error) {
	g := newGen(seed, name)
	fixed := newGen(setupSeed, name)
	w := &workload{Name: name}
	switch name {
	case "plan-hit":
		w.Why = "16 distinct plan bodies warmed in set-up: every measured request is a cache hit, isolating the hit floor"
		// Twelve inline 2000-gate uploads and four 1000-gate generator
		// specs, each sent four times: 3/4 inline puts p50 in the inline
		// class and p95 in the generator class.
		var distinct []request
		for i := 0; i < 12; i++ {
			distinct = append(distinct, g.inline("hit-inline", "/v1/plan", fmt.Sprintf("dag:gates=2000,seed=%d", g.circuitSeed()), planObserve))
		}
		for i := 0; i < 4; i++ {
			distinct = append(distinct, g.spec("hit-gen", "/v1/plan", fmt.Sprintf("dag:gates=1000,seed=%d", g.circuitSeed()), planObserve))
		}
		w.Warm = distinct
		w.PassSeconds = 0.5
		for r := 0; r < 4; r++ {
			w.Pass = append(w.Pass, distinct...)
		}
	case "plan-miss":
		w.Why = "distinct circuits through a small cache: planners dominate and every insert evicts"
		w.CacheBytes = 16384
		// 35% observe, 50% cuts, 15% hybrid: p50 sits in the cuts class,
		// p95 in the hybrid class.
		mix := func(g *gen, nObs, nCuts, nHyb int) []request {
			var out []request
			for i := 0; i < nObs; i++ {
				out = append(out, g.inline("observe", "/v1/plan", fmt.Sprintf("dag:gates=1000,seed=%d", g.circuitSeed()), planObserve))
			}
			for i := 0; i < nCuts; i++ {
				out = append(out, g.inline("cuts", "/v1/plan", fmt.Sprintf("tree:leaves=2000,seed=%d", g.circuitSeed()), planCuts))
			}
			for i := 0; i < nHyb; i++ {
				out = append(out, g.inline("hybrid", "/v1/plan", fmt.Sprintf("dag:gates=300,seed=%d", g.circuitSeed()), planHybrid))
			}
			return out
		}
		w.Pass = mix(g, 28, 40, 12)
		w.PassSeconds = 4
		w.Warm = mix(fixed, 2, 2, 2)
	case "grade-async":
		w.Why = "async fault grading and ATPG: fsim, PODEM, implic and the job journal dominate"
		// A cache too small to hold a result: every pass recomputes.
		w.CacheBytes = 1
		// 2/3 faultsim, 1/6 atpg, 1/6 atpg with learning: p50 sits in the
		// faultsim class, p95 in the learning class.
		mix := func(g *gen, nSim, nATPG int) []request {
			var out []request
			for i := 0; i < nSim; i++ {
				out = append(out, g.async(g.spec("faultsim", "/v1/faultsim", fmt.Sprintf("dag:gates=300,seed=%d", g.circuitSeed()), simOpts)))
			}
			for i := 0; i < nATPG; i++ {
				out = append(out, g.async(g.spec("atpg", "/v1/atpg", fmt.Sprintf("rpr:cones=3,width=10,glue=60,seed=%d", g.circuitSeed()), atpgOpts)))
			}
			for i := 0; i < nATPG; i++ {
				out = append(out, g.async(g.spec("atpg-learn", "/v1/atpg", fmt.Sprintf("rpr:cones=3,width=10,glue=60,seed=%d", g.circuitSeed()), atpgLearnOpts)))
			}
			return out
		}
		w.Pass = mix(g, 32, 8)
		w.PassSeconds = 1.5
		w.Warm = mix(fixed, 1, 1)[:2]
		w.Prefill = mix(fixed, 12, 2)
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames, ", "))
	}
	for _, e := range []error{g.err, fixed.err} {
		if e != nil {
			return nil, e
		}
	}
	g.rng.Shuffle(len(w.Pass), func(i, j int) { w.Pass[i], w.Pass[j] = w.Pass[j], w.Pass[i] })
	return w, nil
}

const (
	planObserve   = `{"planner":"observe"}`
	planCuts      = `{"planner":"cuts"}`
	planHybrid    = `{"planner":"hybrid"}`
	simOpts       = `{"patterns":32768}`
	atpgOpts      = `{"backtrack_limit":100}`
	atpgLearnOpts = `{"backtrack_limit":100,"learn":true}`
)

// gen draws circuit seeds and encodes requests, keeping the first error.
type gen struct {
	rng *rand.Rand
	err error
}

func newGen(seed int64, workload string) *gen {
	return &gen{rng: rand.New(rand.NewSource(seed*1_000_003 + int64(len(workload))))}
}

func (g *gen) circuitSeed() int64 { return g.rng.Int63n(1<<31) + 1 }

// spec is a request carrying a generator spec.
func (g *gen) spec(class, endpoint, spec, opts string) request {
	return g.encode(class, endpoint, envelope{Generate: spec, Options: json.RawMessage(opts)})
}

// inline is a request uploading the generated circuit as .bench text.
func (g *gen) inline(class, endpoint, spec, opts string) request {
	c, err := cli.Generate(spec)
	if err != nil {
		g.fail(err)
		return request{}
	}
	var b strings.Builder
	if err := bench.Write(&b, c); err != nil {
		g.fail(err)
		return request{}
	}
	return g.encode(class, endpoint, envelope{Bench: b.String(), Options: json.RawMessage(opts)})
}

// async re-encodes r as an async submission.
func (g *gen) async(r request) request {
	var env envelope
	if err := json.Unmarshal(r.Body, &env); err != nil {
		g.fail(err)
		return r
	}
	env.Mode = "async"
	out := g.encode(r.Class, r.Endpoint, env)
	out.Async = true
	return out
}

func (g *gen) encode(class, endpoint string, env envelope) request {
	body, err := json.Marshal(env)
	if err != nil {
		g.fail(err)
	}
	return request{Class: class, Endpoint: endpoint, Body: body}
}

func (g *gen) fail(err error) {
	if g.err == nil {
		g.err = err
	}
}
