package perf

import (
	"bytes"
	"errors"
	"fmt"
	"os"
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
			Setup: func() (func() error, error) {
				return func() error { *counter++; return nil }, nil
			},
		},
		{
			Name: "fsim/noop", Group: GroupFsim,
			Setup: func() (func() error, error) {
				return func() error { return nil }, nil
			},
		},
		{
			Name: "atpg/noop", Group: GroupATPG,
			Setup: func() (func() error, error) {
				return func() error { return nil }, nil
			},
		},
		{
			Name: "exp/noop", Group: GroupExp,
			Setup: func() (func() error, error) {
				return func() error { return nil }, nil
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
		Setup: func() (func() error, error) { return nil, boom },
	}}
	if _, err := Run(bad, Config{Iterations: 1}); !errors.Is(err, boom) {
		t.Errorf("setup error not surfaced: %v", err)
	}
	failing := []Benchmark{{
		Name: "fsim/fail", Group: GroupFsim,
		Setup: func() (func() error, error) {
			return func() error { return boom }, nil
		},
	}}
	if _, err := Run(failing, Config{Iterations: 1}); !errors.Is(err, boom) {
		t.Errorf("op error not surfaced: %v", err)
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
			res("tpi/a", GroupTPI), res("exp/a", GroupExp),
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
		{"missing group coverage", func(r *Report) { r.Benchmarks = r.Benchmarks[1:] }},
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
// fixed order, every engine group covered and none of serve (servebench
// times serving), the worker sweep, the oracles, the learn/prune
// toggles and the experiment rows present, and both modes sharing one
// name set (baselines pair by name across machines, never across
// modes). The exp rows run at the quick scale, so they are identical in
// both modes.
func TestSuiteShape(t *testing.T) {
	short := Suite(true)
	full := Suite(false)
	if len(short) != 24 || len(full) != 24 {
		t.Fatalf("short suite has %d benchmarks, full %d, want 24", len(short), len(full))
	}
	groups := make(map[string]int)
	index := make(map[string]int)
	for i := range short {
		if short[i].Name != full[i].Name {
			t.Errorf("suite order diverges between modes: %s vs %s", short[i].Name, full[i].Name)
		}
		if short[i].Setup == nil {
			t.Errorf("%s has no Setup", short[i].Name)
		}
		if _, dup := index[short[i].Name]; dup {
			t.Errorf("duplicate benchmark %s", short[i].Name)
		}
		index[short[i].Name] = i
		groups[short[i].Group]++
	}
	for _, g := range []string{GroupFsim, GroupATPG, GroupTPI, GroupExp} {
		if groups[g] == 0 {
			t.Errorf("suite covers no %s benchmarks", g)
		}
	}
	if groups[GroupServe] != 0 {
		t.Errorf("suite registers %d serve benchmarks, want none", groups[GroupServe])
	}
	for _, name := range []string{
		"fsim/serial", "fsim/parallel/w1", "fsim/parallel/w8", "fsim/deductive", "fsim/cpt",
		"atpg/podem/learn=off", "atpg/podem/learn=on",
		"tpi/cuts-dp", "tpi/observe-dp/prune=off", "tpi/observe-dp/prune=on",
		"tpi/observe-greedy/prune=off", "tpi/observe-greedy/prune=on", "tpi/hybrid",
	} {
		if _, ok := index[name]; !ok {
			t.Errorf("canonical benchmark %s missing from suite", name)
		}
	}
	serial := short[index["fsim/serial"]]
	for _, name := range []string{"fsim/deductive", "fsim/cpt"} {
		if i, ok := index[name]; ok && !reflect.DeepEqual(short[i].Params, serial.Params) {
			t.Errorf("%s params %v, want fsim/serial's %v", name, short[i].Params, serial.Params)
		}
	}
	for n := 1; n <= 9; n++ {
		name := fmt.Sprintf("exp/E%d", n)
		i, ok := index[name]
		if !ok {
			t.Errorf("experiment benchmark %s missing from suite", name)
			continue
		}
		s, f := short[i], full[i]
		if s.Group != GroupExp || s.Info != f.Info || !reflect.DeepEqual(s.Params, f.Params) {
			t.Errorf("%s: short (%s, %q, %v) and full (%q, %v) differ or leave the exp group",
				name, s.Group, s.Info, s.Params, f.Info, f.Params)
		}
	}
}

// TestCommittedReportsDecode keeps every committed report readable by
// Decode, which cmd/bench -check and -baseline go through: the BENCH_*
// reports (whose serve rows predate servebench) and the CI baseline.
func TestCommittedReportsDecode(t *testing.T) {
	for _, path := range []string{"../../BENCH_5.json", "../../BENCH_6.json", "../../testdata/bench/baseline.json"} {
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		_, err = Decode(f)
		f.Close()
		if err != nil {
			t.Errorf("%s: %v", path, err)
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
