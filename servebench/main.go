// Command servebench is the repository's end-to-end benchmark: it starts
// cmd/serve as a child process, drives one closed-loop workload against
// it, verifies every response, and prints the end-to-end metrics. With
// -trace 1 it instead replays the workloads' request lists in-process,
// timing each layer's public entry points, and prints per-layer metrics.
//
// Run it through run.sh from the repository root, which builds both
// binaries from the tree under test:
//
//	bash servebench/run.sh --workload plan-hit --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. README.md lists the metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/cli"
)

// setupRuns is how many times a run starts and warms a server; setup_s
// is their median and the last server is the one measured.
const setupRuns = 5

type options struct {
	workload     string
	seed         int64
	seconds      float64
	trace        int
	root         string
	serveBin     string
	writeDigests bool
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final stdout line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// record tags a result with what it ran on, so host drift is not read
// as a regression.
type record struct {
	Workload  string     `json:"workload"`
	Seed      int64      `json:"seed"`
	Trace     int        `json:"trace"`
	NProc     int        `json:"nproc"`
	GoVersion string     `json:"go_version"`
	Commit    string     `json:"commit"`
	HostRefMS [2]float64 `json:"host_ref_ms"` // before, after
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "plan-hit", "workload: "+strings.Join(workloadNames, ", "))
	flag.Int64Var(&o.seed, "seed", DefaultSeed, fmt.Sprintf("input seed (default %d; %d is held out for validating claims)", DefaultSeed, HeldOutSeed))
	flag.Float64Var(&o.seconds, "seconds", 10, "measured time per run on the reference host; sets how many passes a run replays")
	flag.IntVar(&o.trace, "trace", 0, "1 = traced in-process run printing per-layer metrics")
	flag.StringVar(&o.root, "root", ".", "repository checkout root")
	flag.StringVar(&o.serveBin, "serve", "", "cmd/serve binary built from the checkout")
	flag.BoolVar(&o.writeDigests, "write-digests", false, "record this seed's response digests in servebench/digests.json instead of checking them")
	flag.Parse()
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		os.Exit(cli.ExitCode(err))
	}
}

func run(o options) error {
	if o.serveBin == "" {
		return errors.New("-serve is required (use run.sh)")
	}
	if o.trace != 0 && o.trace != 1 {
		return fmt.Errorf("-trace must be 0 or 1, got %d", o.trace)
	}
	rec := record{Workload: o.workload, Seed: o.seed, Trace: o.trace, NProc: runtime.NumCPU(), GoVersion: runtime.Version(), Commit: commitOf(o.root)}
	rec.HostRefMS[0] = ms(hostRef())
	w, err := buildWorkload(o.workload, o.seed)
	if err != nil {
		return err
	}
	dir := filepath.Join(o.root, ".bench_build", fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	s := &runner{o: o, w: w, hc: newHTTPClient(), dir: dir}

	var res result
	if o.trace == 1 {
		res, err = runTraced(s, &rec)
	} else {
		res, err = runE2E(s)
	}
	if err != nil {
		return err
	}
	rec.HostRefMS[1] = ms(hostRef())
	if o.trace == 1 {
		res.Metrics["host.ref_ms"] = metric{(rec.HostRefMS[0] + rec.HostRefMS[1]) / 2, "ms"}
	}
	b, err := json.Marshal(map[string]record{"record": rec})
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	for k, m := range res.Metrics {
		// A run whose requests all failed has no latency samples; the
		// result still has to encode, and correct is false anyway.
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			res.Metrics[k] = metric{0, m.Unit}
		}
	}
	b, err = json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	if !res.Correct {
		return fmt.Errorf("%d of %d requests failed verification", res.Failed, res.Attempted)
	}
	return nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// commitOf names the code under test: the git commit when the checkout
// is a repository, else a digest of its Go sources.
func commitOf(root string) string {
	out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output()
	if err == nil {
		return strings.TrimSpace(string(out))
	}
	return sourceDigest(root)
}

// runner owns one run's working directory and the servers it starts.
type runner struct {
	o       options
	w       *workload
	hc      *http.Client
	dir     string
	started int
	prefill string // pre-filled job directory, when the workload has one
}

func (s *runner) start(jobDir string) (*child, error) {
	s.started++
	return startServer(s.o.serveBin, jobDir, filepath.Join(s.dir, fmt.Sprintf("serve-%d.log", s.started)), s.w.CacheBytes)
}

// prefillJobs runs the workload's untimed prefill batch to completion on
// a throwaway server, leaving its journal for the measured servers to
// recover.
func (s *runner) prefillJobs() error {
	if len(s.w.Prefill) == 0 {
		return nil
	}
	s.prefill = filepath.Join(s.dir, "prefill")
	c, err := s.start(s.prefill)
	if err != nil {
		return err
	}
	if err := c.waitHealthy(s.hc, time.Minute); err != nil {
		c.kill()
		return err
	}
	for _, r := range s.w.Prefill {
		if o := send(s.hc, c.base, r, ""); o.Err != nil {
			c.kill()
			return fmt.Errorf("prefill: %w", o.Err)
		}
	}
	return c.stop()
}

// setUp starts a server (on a fresh copy of the prefilled journal),
// waits for /healthz and sends the warm-up requests. The returned
// duration is set-up time: start to warm-up done.
func (s *runner) setUp() (*child, time.Duration, error) {
	jobDir := filepath.Join(s.dir, fmt.Sprintf("jobs-%d", s.started+1))
	if s.prefill != "" {
		if err := copyDir(s.prefill, jobDir); err != nil {
			return nil, 0, err
		}
	}
	start := time.Now()
	c, err := s.start(jobDir)
	if err != nil {
		return nil, 0, err
	}
	if err := c.waitHealthy(s.hc, time.Minute); err != nil {
		c.kill()
		return nil, 0, err
	}
	for _, r := range s.w.Warm {
		if o := send(s.hc, c.base, r, ""); o.Err != nil {
			c.kill()
			return nil, 0, fmt.Errorf("warm-up: %w", o.Err)
		}
	}
	return c, time.Since(start), nil
}

// wantCache is the X-Cache value a workload's premise requires of every
// measured request.
func wantCache(workload string) string {
	switch workload {
	case "plan-hit":
		return "hit"
	case "plan-miss":
		return "miss"
	}
	return ""
}

func runE2E(s *runner) (result, error) {
	o, w := s.o, s.w
	digestPath := filepath.Join(o.root, "servebench", "digests.json")
	digests, err := loadDigests(digestPath)
	if err != nil {
		return result{}, err
	}
	expected := digests.lookup(o.seed, o.workload)
	if o.writeDigests {
		expected = nil
	}
	ck, err := newChecker(w.Pass, expected)
	if err != nil {
		return result{}, err
	}
	if err := s.prefillJobs(); err != nil {
		return result{}, err
	}
	var setups []float64
	var srv *child
	for k := 0; k < setupRuns; k++ {
		c, d, err := s.setUp()
		if err != nil {
			return result{}, err
		}
		setups = append(setups, d.Seconds())
		if k == setupRuns-1 {
			srv = c
		} else if err := c.stop(); err != nil {
			return result{}, err
		}
	}
	pid := srv.cmd.Process.Pid
	v0, err := srv.vars(s.hc)
	if err != nil {
		srv.kill()
		return result{}, err
	}
	cpu0, err := procCPU(pid)
	if err != nil {
		srv.kill()
		return result{}, err
	}
	// The server's CPU time at each pass boundary.
	cpu := []time.Duration{cpu0}
	var cpuErr error
	passDone := func() {
		c, err := procCPU(pid)
		cpuErr = errors.Join(cpuErr, err)
		cpu = append(cpu, c)
	}
	var outs []outcome
	rssSamples := withRSS(pid, 20*time.Millisecond, func() {
		outs = closedLoop(s.hc, srv.base, w, w.passes(o.seconds, minSamples(0.95)), wantCache(o.workload), passDone)
	})
	sort.Float64s(rssSamples)
	if cpuErr != nil {
		srv.kill()
		return result{}, cpuErr
	}
	v1, err := srv.vars(s.hc)
	if err != nil {
		srv.kill()
		return result{}, err
	}
	hwm, err := procMem(pid, "VmHWM")
	if err != nil {
		srv.kill()
		return result{}, err
	}

	// Verify after the timed phase: async results are fetched now.
	var lat []float64
	failed := 0
	for _, out := range outs {
		err := out.Err
		body := out.Body
		if err == nil && out.JobID != "" {
			body, err = fetchResult(s.hc, srv.base, out.JobID)
		}
		if err == nil {
			err = ck.check(out.Idx, body)
		}
		if err != nil {
			if failed < 5 {
				fmt.Fprintln(os.Stderr, "servebench: failed:", err)
			}
			failed++
			continue
		}
		lat = append(lat, ms(out.Latency))
	}
	// A server that fails its drain, or too few samples for p95, makes
	// the run incorrect without failing any one request.
	sound := true
	if err := srv.stop(); err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		sound = false
	}
	if o.writeDigests && failed == 0 && sound {
		ds, err := ck.digests()
		if err != nil {
			return result{}, err
		}
		if err := digests.store(digestPath, o.seed, o.workload, ds); err != nil {
			return result{}, err
		}
		fmt.Fprintf(os.Stderr, "servebench: wrote %d digests for %s seed %d\n", len(ds), o.workload, o.seed)
	}

	// Throughput and CPU time are medians over whole passes, which do
	// identical work, so a burst of host steal that slows a few passes
	// does not move them.
	n := float64(len(outs))
	passLen := float64(len(w.Pass))
	pt := passTimes(outs, len(w.Pass))
	passCPU := make([]float64, len(cpu)-1)
	for i := range passCPU {
		passCPU[i] = ms(cpu[i+1] - cpu[i])
	}
	p50, p95 := percentileOf(lat, 0.5), percentileOf(lat, 0.95)
	m := map[string]metric{
		"throughput_rps":   {passLen / median(append([]float64(nil), pt...)), "1/s"},
		"latency_p50_ms":   {p50, "ms"},
		"latency_p95_ms":   {p95, "ms"},
		"setup_s":          {median(setups), "s"},
		"rss_mb":           {percentile(rssSamples, 0.9), "MiB"},
		"alloc_mb_per_req": {float64(v1.Memstats.TotalAlloc-v0.Memstats.TotalAlloc) / (1 << 20) / n, "MiB"},
		"cpu_ms_per_req":   {median(passCPU) / passLen, "ms"},
		"coverage_frac":    {ck.coverage(), "frac"},
	}
	samples := map[string]int{"setup_s": len(setups), "latency_p50_ms": len(lat), "latency_p95_ms": len(lat), "coverage_frac": len(w.Pass), "rss_mb": len(rssSamples),
		"throughput_rps": len(pt), "cpu_ms_per_req": len(passCPU)}
	printTable(o.workload, m, samples, len(outs))
	fmt.Printf("%-12s %-18s %14.6f %-6s n=%d\n", o.workload, "error_frac", float64(failed)/n, "frac", len(outs))
	printClasses(o.workload, w, outs)
	fmt.Printf("%-12s pass_s min %.3f median %.3f max %.3f  n=%d (host noise within the run; not a metric)\n", o.workload, pt[0], median(pt), pt[len(pt)-1], len(pt))
	fmt.Printf("%-12s %-18s %14.6f %-6s (VmHWM, set-up included; not a metric)\n", o.workload, "rss_peak_mb", hwm, "MiB")
	if !supports(len(lat), 0.95) {
		fmt.Fprintf(os.Stderr, "servebench: only %d latency samples; p95 needs %d\n", len(lat), minSamples(0.95))
		sound = false
	}
	return result{Correct: failed == 0 && sound, Attempted: len(outs), Failed: failed, Metrics: m}, nil
}

func percentileOf(values []float64, q float64) float64 {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	return percentile(s, q)
}

// printTable prints one line per metric: name, value, unit and the
// number of samples behind it (requests, unless samples says otherwise).
func printTable(workload string, m map[string]metric, samples map[string]int, requests int) {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		n, ok := samples[k]
		if !ok {
			n = requests
		}
		fmt.Printf("%-12s %-18s %14.6f %-6s n=%d\n", workload, k, m[k].Value, m[k].Unit, n)
	}
}

// passTimes returns how long each pass took, from the completion of the
// previous pass's last request to that of its own, sorted.
func passTimes(outs []outcome, passLen int) []float64 {
	ends := make([]float64, (len(outs)+passLen-1)/passLen)
	for _, o := range outs {
		p := o.Seq / passLen
		ends[p] = max(ends[p], o.Done.Seconds())
	}
	d := make([]float64, len(ends))
	for p := range ends {
		d[p] = ends[p]
		if p > 0 {
			d[p] -= ends[p-1]
		}
	}
	sort.Float64s(d)
	return d
}

// printClasses prints each request class's share of the pass and its
// latency median, so a reader can see which class each percentile
// falls in.
func printClasses(workload string, w *workload, outs []outcome) {
	byClass := map[string][]float64{}
	for _, out := range outs {
		if out.Err == nil {
			c := w.Pass[out.Idx].Class
			byClass[c] = append(byClass[c], ms(out.Latency))
		}
	}
	names := make([]string, 0, len(byClass))
	for c := range byClass {
		names = append(names, c)
	}
	sort.Strings(names)
	for _, c := range names {
		fmt.Printf("%-12s class %-12s share %.3f  p50 %10.3f ms  n=%d\n", workload, c, float64(len(byClass[c]))/float64(len(outs)), median(byClass[c]), len(byClass[c]))
	}
}
