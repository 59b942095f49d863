package main

import (
	"bytes"
	"errors"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/perf"
)

// runJSON drives one in-process invocation that writes the JSON report
// to stdout.
func runJSON(t *testing.T, cfg config) *perf.Report {
	t.Helper()
	var out bytes.Buffer
	failed, err := run(&out, io.Discard, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if failed {
		t.Fatal("run reported failure")
	}
	rep, err := perf.Decode(&out)
	if err != nil {
		t.Fatalf("output is not a valid report: %v", err)
	}
	return rep
}

// TestDeterministicModuloTimings is the regression test the JSON
// contract rests on: two runs with -iterations fixed must produce
// schema-identical reports once the measured fields are stripped —
// same benchmarks, same order, same params, same iteration counts.
func TestDeterministicModuloTimings(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the engine suite twice")
	}
	cfg := config{jsonOut: true, short: true, iterations: 1, warmup: 1,
		minTime: time.Second, tolerance: 10}
	a := runJSON(t, cfg)
	b := runJSON(t, cfg)
	a.StripMeasurements()
	b.StripMeasurements()
	if !reflect.DeepEqual(a, b) {
		t.Errorf("reports differ beyond timing fields:\n%+v\n%+v", a, b)
	}
}

// TestRunWritesValidReportFile checks -o emits a file that -check
// accepts and that self-comparison passes the tolerance gate.
func TestRunWritesValidReportFile(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the engine suite")
	}
	dir := t.TempDir()
	out := filepath.Join(dir, "bench.json")
	cfg := config{out: out, short: true, iterations: 1, warmup: 1,
		minTime: time.Second, tolerance: 10, only: "", jsonOut: false}
	var table bytes.Buffer
	if failed, err := run(&table, io.Discard, cfg); err != nil || failed {
		t.Fatalf("run: failed=%v err=%v", failed, err)
	}
	if !strings.Contains(table.String(), "fsim/serial") {
		t.Error("table output missing fsim/serial row")
	}

	var check bytes.Buffer
	cfg2 := config{check: out, baseline: out, tolerance: 10, minTime: time.Second, warmup: 1}
	failed, err := run(&check, io.Discard, cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if failed {
		t.Errorf("self-comparison failed the gate:\n%s", check.String())
	}
	if !strings.Contains(check.String(), "within 10.0x tolerance") {
		t.Errorf("check output = %q", check.String())
	}
}

// TestCheckRejectsBrokenReport covers the -check validation path.
func TestCheckRejectsBrokenReport(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte(`{"schema":"nope"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := run(io.Discard, io.Discard, config{check: bad, tolerance: 10, minTime: time.Second}); err == nil {
		t.Error("invalid report accepted")
	}
	if _, err := run(io.Discard, io.Discard, config{check: filepath.Join(dir, "absent.json"), tolerance: 10, minTime: time.Second}); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("missing report: err = %v, want fs.ErrNotExist", err)
	}
}

// TestBaselineGateFails pins that a genuine order-of-magnitude
// regression trips the gate (exit path returns failed=true).
func TestBaselineGateFails(t *testing.T) {
	dir := t.TempDir()
	fast := validTestReport()
	slow := validTestReport()
	slow.Benchmarks[0].NsPerOp *= 100
	fastPath := writeReport(t, filepath.Join(dir, "fast.json"), fast)
	slowPath := writeReport(t, filepath.Join(dir, "slow.json"), slow)
	var out bytes.Buffer
	failed, err := run(&out, io.Discard, config{check: slowPath, baseline: fastPath,
		tolerance: 10, minTime: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if !failed {
		t.Errorf("100x regression passed the gate:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "slower") {
		t.Errorf("violation output = %q", out.String())
	}
}

// TestParamStringKeyOrder: the params column lists its pairs in key
// order, whatever order the map yields them in.
func TestParamStringKeyOrder(t *testing.T) {
	params := map[string]string{}
	var want []string
	for i := 0; i < 26; i++ {
		k := string(rune('a' + i))
		params[k] = strconv.Itoa(i)
		want = append(want, k+"="+strconv.Itoa(i))
	}
	if got := paramString(params); got != strings.Join(want, " ") {
		t.Errorf("paramString = %q", got)
	}
}

// TestUsageErrors pins the flag-validation exit contract.
func TestUsageErrors(t *testing.T) {
	for _, cfg := range []config{
		{iterations: -1, warmup: 1, minTime: time.Second, tolerance: 10},
		{warmup: -1, minTime: time.Second, tolerance: 10},
		{minTime: 0, tolerance: 10},
		{minTime: time.Second, tolerance: 0.5},
		{minTime: time.Second, tolerance: 10, check: "x.json", list: true},
	} {
		if _, err := run(io.Discard, io.Discard, cfg); err == nil {
			t.Errorf("config %+v accepted", cfg)
		}
	}
}

// TestListMode checks -list enumerates without running.
func TestListMode(t *testing.T) {
	var out bytes.Buffer
	failed, err := run(&out, io.Discard, config{list: true, short: true,
		minTime: time.Second, tolerance: 10})
	if err != nil || failed {
		t.Fatalf("list: failed=%v err=%v", failed, err)
	}
	for _, name := range []string{"fsim/serial", "fsim/cpt", "atpg/podem/learn=on", "tpi/hybrid", "exp/E9"} {
		if !strings.Contains(out.String(), name) {
			t.Errorf("list output missing %s", name)
		}
	}
}

// validTestReport builds a small schema-valid report.
func validTestReport() *perf.Report {
	res := func(name, group string) perf.Result {
		return perf.Result{Name: name, Group: group, GOMAXPROCS: 1, Iterations: 1,
			TotalNs: 1000, NsPerOp: 1000}
	}
	return &perf.Report{
		Schema: perf.Schema,
		Suite:  perf.SuiteName,
		Meta: perf.Meta{GoVersion: "go1.x", GOOS: "linux", GOARCH: "amd64",
			NumCPU: 1, GOMAXPROCS: 1},
		Benchmarks: []perf.Result{
			res("fsim/a", perf.GroupFsim), res("atpg/a", perf.GroupATPG),
			res("tpi/a", perf.GroupTPI), res("exp/a", perf.GroupExp),
		},
	}
}

// writeReport encodes a report to path.
func writeReport(t *testing.T, path string, rep *perf.Report) string {
	t.Helper()
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := rep.Encode(f); err != nil {
		t.Fatal(err)
	}
	return path
}
