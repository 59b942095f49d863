package perf

import (
	"bytes"
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"
)

// tinySuite is a synthetic registry for runner tests: real engine work
// is exercised by the suite smoke test below and by cmd/bench.
func tinySuite(counter *int) []Benchmark {
	return []Benchmark{
		{
			Name: "tpi/noop", Group: GroupTPI,
			Setup: func() (func() error, func(), error) {
				return func() error { *counter++; return nil }, nil, nil
			},
		},
		{
			Name: "fsim/noop", Group: GroupFsim,
			Setup: func() (func() error, func(), error) {
				return func() error { return nil }, nil, nil
			},
		},
		{
			Name: "atpg/noop", Group: GroupATPG,
			Setup: func() (func() error, func(), error) {
				return func() error { return nil }, nil, nil
			},
		},
		{
			Name: "serve/noop", Group: GroupServe,
			Setup: func() (func() error, func(), error) {
				return func() error { return nil }, nil, nil
			},
		},
	}
}

func TestRunFixedIterations(t *testing.T) {
	var calls int
	rep, err := Run(tinySuite(&calls), Config{Iterations: 5, Warmup: 2})
	if err != nil {
		t.Fatal(err)
	}
	if calls != 7 {
		t.Errorf("op called %d times, want 7 (2 warmup + 5 measured)", calls)
	}
	if err := Validate(rep); err != nil {
		t.Errorf("report invalid: %v", err)
	}
	if len(rep.Benchmarks) != 4 {
		t.Fatalf("got %d benchmarks, want 4", len(rep.Benchmarks))
	}
	if got := rep.Benchmarks[0].Iterations; got != 5 {
		t.Errorf("iterations = %d, want 5", got)
	}
}

func TestRunFilter(t *testing.T) {
	var calls int
	rep, err := Run(tinySuite(&calls), Config{Iterations: 1, Filter: "tpi/"})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Benchmarks) != 1 || rep.Benchmarks[0].Name != "tpi/noop" {
		t.Errorf("filter selected %v", rep.Benchmarks)
	}
	if _, err := Run(tinySuite(&calls), Config{Iterations: 1, Filter: "nonexistent"}); err == nil {
		t.Error("empty filter result did not error")
	}
}

func TestRunSetupAndOpErrors(t *testing.T) {
	boom := errors.New("boom")
	bad := []Benchmark{{
		Name: "fsim/bad", Group: GroupFsim,
		Setup: func() (func() error, func(), error) { return nil, nil, boom },
	}}
	if _, err := Run(bad, Config{Iterations: 1}); !errors.Is(err, boom) {
		t.Errorf("setup error not surfaced: %v", err)
	}
	cleaned := false
	failing := []Benchmark{{
		Name: "fsim/fail", Group: GroupFsim,
		Setup: func() (func() error, func(), error) {
			return func() error { return boom }, func() { cleaned = true }, nil
		},
	}}
	if _, err := Run(failing, Config{Iterations: 1}); !errors.Is(err, boom) {
		t.Errorf("op error not surfaced: %v", err)
	}
	if !cleaned {
		t.Error("cleanup not called after op failure")
	}
}

func TestCalibrateTargetsMinTime(t *testing.T) {
	iters, err := calibrate(func() error {
		time.Sleep(time.Millisecond)
		return nil
	}, 20*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if iters < 10 {
		t.Errorf("calibrated %d iterations for a 1ms op at 20ms target", iters)
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	var calls int
	rep, err := Run(tinySuite(&calls), Config{Iterations: 2})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rep.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rep, back) {
		t.Errorf("round trip diverged:\n%v\n%v", rep, back)
	}
}

func TestDecodeRejectsUnknownFields(t *testing.T) {
	if _, err := Decode(strings.NewReader(`{"schema":"x","bogus":1}`)); err == nil {
		t.Error("unknown field accepted")
	}
}

// validReport builds a minimal schema-valid report for mutation tests.
func validReport() *Report {
	res := func(name, group string) Result {
		return Result{Name: name, Group: group, GOMAXPROCS: 1, Iterations: 1,
			TotalNs: 100, NsPerOp: 100}
	}
	return &Report{
		Schema: Schema,
		Suite:  SuiteName,
		Meta:   Meta{GoVersion: "go1.x", GOOS: "linux", GOARCH: "amd64", NumCPU: 1, GOMAXPROCS: 1},
		Benchmarks: []Result{
			res("fsim/a", GroupFsim), res("atpg/a", GroupATPG),
			res("tpi/a", GroupTPI), res("serve/a", GroupServe),
		},
	}
}

func TestValidateRejections(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mutate func(*Report)
	}{
		{"wrong schema", func(r *Report) { r.Schema = "other" }},
		{"empty suite", func(r *Report) { r.Suite = "" }},
		{"no benchmarks", func(r *Report) { r.Benchmarks = nil }},
		{"missing meta", func(r *Report) { r.Meta.GoVersion = "" }},
		{"bad cpu count", func(r *Report) { r.Meta.NumCPU = 0 }},
		{"unnamed benchmark", func(r *Report) { r.Benchmarks[0].Name = "" }},
		{"duplicate name", func(r *Report) { r.Benchmarks[1].Name = r.Benchmarks[0].Name }},
		{"unknown group", func(r *Report) { r.Benchmarks[0].Group = "warp" }},
		{"zero iterations", func(r *Report) { r.Benchmarks[0].Iterations = 0 }},
		{"negative ns", func(r *Report) { r.Benchmarks[0].NsPerOp = -1 }},
		{"zero gomaxprocs", func(r *Report) { r.Benchmarks[0].GOMAXPROCS = 0 }},
		{"missing group coverage", func(r *Report) { r.Benchmarks = r.Benchmarks[:3] }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := validReport()
			tc.mutate(r)
			if err := Validate(r); err == nil {
				t.Error("mutation accepted")
			}
		})
	}
	if err := Validate(validReport()); err != nil {
		t.Errorf("valid report rejected: %v", err)
	}
}

func TestComparePassWithinTolerance(t *testing.T) {
	base, cur := validReport(), validReport()
	cur.Benchmarks[0].NsPerOp = base.Benchmarks[0].NsPerOp * 9 // < 10x default
	if v := Compare(base, cur, 0); len(v) != 0 {
		t.Errorf("violations within tolerance: %v", v)
	}
}

func TestCompareFailBeyondTolerance(t *testing.T) {
	base, cur := validReport(), validReport()
	cur.Benchmarks[2].NsPerOp = base.Benchmarks[2].NsPerOp * 50
	vs := Compare(base, cur, 10)
	if len(vs) != 1 || vs[0].Kind != KindSlower || vs[0].Benchmark != "tpi/a" {
		t.Fatalf("violations = %v", vs)
	}
	if vs[0].Factor < 49 || vs[0].Factor > 51 {
		t.Errorf("factor = %v, want ~50", vs[0].Factor)
	}
}

func TestCompareMissingBenchmark(t *testing.T) {
	base, cur := validReport(), validReport()
	cur.Benchmarks = cur.Benchmarks[1:] // drop fsim/a
	vs := Compare(base, cur, 10)
	if len(vs) != 1 || vs[0].Kind != KindMissing || vs[0].Benchmark != "fsim/a" {
		t.Errorf("violations = %v", vs)
	}
}

func TestCompareNewBenchmarkIsNotViolation(t *testing.T) {
	base, cur := validReport(), validReport()
	cur.Benchmarks = append(cur.Benchmarks, Result{
		Name: "fsim/new", Group: GroupFsim, GOMAXPROCS: 1, Iterations: 1, NsPerOp: 5})
	if vs := Compare(base, cur, 10); len(vs) != 0 {
		t.Errorf("new benchmark flagged: %v", vs)
	}
}

func TestCompareModeAndSchemaMismatch(t *testing.T) {
	base, cur := validReport(), validReport()
	cur.Meta.Short = true
	vs := Compare(base, cur, 10)
	if len(vs) != 1 || vs[0].Kind != KindModeMismatch {
		t.Errorf("violations = %v", vs)
	}
	cur = validReport()
	cur.Schema = "tpi-dp/bench/v999"
	vs = Compare(base, cur, 10)
	if len(vs) != 1 || vs[0].Kind != KindSchemaMismatch {
		t.Errorf("violations = %v", vs)
	}
}

func TestStripMeasurements(t *testing.T) {
	r := validReport()
	r.StripMeasurements()
	for _, b := range r.Benchmarks {
		if b.TotalNs != 0 || b.NsPerOp != 0 || b.AllocsPerOp != 0 || b.BytesPerOp != 0 {
			t.Errorf("%s still carries measurements: %+v", b.Name, b)
		}
	}
}

// TestSuiteShape pins the canonical registry contract: unique names in
// fixed order, all four engine groups covered, the worker sweep and
// the learn/prune toggles present, and both modes sharing one name
// set (baselines pair by name across machines, never across modes).
func TestSuiteShape(t *testing.T) {
	short := Suite(true)
	full := Suite(false)
	if len(short) != len(full) {
		t.Fatalf("short suite has %d benchmarks, full %d", len(short), len(full))
	}
	if len(short) < 8 {
		t.Fatalf("suite has %d benchmarks, want >= 8", len(short))
	}
	groups := make(map[string]int)
	for i := range short {
		if short[i].Name != full[i].Name {
			t.Errorf("suite order diverges between modes: %s vs %s", short[i].Name, full[i].Name)
		}
		if short[i].Setup == nil {
			t.Errorf("%s has no Setup", short[i].Name)
		}
		groups[short[i].Group]++
	}
	for _, g := range []string{GroupFsim, GroupATPG, GroupTPI, GroupServe} {
		if groups[g] == 0 {
			t.Errorf("suite covers no %s benchmarks", g)
		}
	}
	for _, name := range []string{
		"fsim/serial", "fsim/parallel/w1", "fsim/parallel/w8",
		"atpg/podem/learn=off", "atpg/podem/learn=on",
		"tpi/cuts-dp", "tpi/observe-dp/prune=off", "tpi/observe-dp/prune=on",
		"tpi/observe-greedy/prune=off", "tpi/observe-greedy/prune=on",
		"tpi/hybrid", "serve/plan/cache=hit", "serve/plan/cache=miss",
	} {
		found := false
		for i := range short {
			if short[i].Name == name {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("canonical benchmark %s missing from suite", name)
		}
	}
}

// TestSuiteSmoke runs the real short-mode suite once end to end — the
// same path CI's bench-smoke job drives through cmd/bench.
func TestSuiteSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every engine once")
	}
	rep, err := Run(Suite(true), Config{Iterations: 1, Warmup: 1, Short: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := Validate(rep); err != nil {
		t.Errorf("suite report invalid: %v", err)
	}
}
