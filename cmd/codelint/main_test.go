package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cli"
	"repro/internal/golint"
)

func fixture(t *testing.T, name string) string {
	t.Helper()
	p := filepath.Join("..", "..", "testdata", "codelint", name)
	if _, err := os.Stat(p); err != nil {
		t.Skipf("fixture missing: %v", err)
	}
	return p
}

// TestGoldenJSON pins the exact -json bytes per rule fixture: the
// output must be order-deterministic and byte-stable, the same
// contract the serve cache enforces on engine responses.
func TestGoldenJSON(t *testing.T) {
	for _, rule := range []string{"g001", "g002", "g003", "g004", "g005"} {
		t.Run(rule, func(t *testing.T) {
			want, err := os.ReadFile(fixture(t, rule+".golden.json"))
			if err != nil {
				t.Fatal(err)
			}
			var out bytes.Buffer
			failed, err := run(&out, config{
				dir:      ".",
				patterns: []string{fixture(t, rule)},
				jsonOut:  true,
				sevName:  "info",
				failName: "warning",
			})
			if err != nil {
				t.Fatal(err)
			}
			if !failed {
				t.Errorf("%s fixture did not fail at warning severity", rule)
			}
			if !bytes.Equal(out.Bytes(), want) {
				t.Errorf("JSON diverges from golden\ngot:\n%s\nwant:\n%s", out.Bytes(), want)
			}
		})
	}
}

// TestOutputDeterministic runs the same analysis twice through fresh
// loaders and byte-compares the output.
func TestOutputDeterministic(t *testing.T) {
	render := func() []byte {
		var out bytes.Buffer
		if _, err := run(&out, config{
			dir:      ".",
			patterns: []string{fixture(t, "g001"), fixture(t, "g003")},
			jsonOut:  true,
			sevName:  "info",
			failName: "error",
		}); err != nil {
			t.Fatal(err)
		}
		return out.Bytes()
	}
	if a, b := render(), render(); !bytes.Equal(a, b) {
		t.Errorf("output differs between runs\n%s\n%s", a, b)
	}
}

// TestFailSeverity checks the gate: g005 carries warning+info only, so
// it fails at -fail warning and passes at -fail error.
func TestFailSeverity(t *testing.T) {
	for _, tc := range []struct {
		fail string
		want bool
	}{
		{"warning", true},
		{"error", false},
	} {
		var out bytes.Buffer
		failed, err := run(&out, config{
			dir:      ".",
			patterns: []string{fixture(t, "g005")},
			sevName:  "info",
			failName: tc.fail,
		})
		if err != nil {
			t.Fatal(err)
		}
		if failed != tc.want {
			t.Errorf("-fail %s: failed = %v, want %v", tc.fail, failed, tc.want)
		}
	}
}

// TestOnlySelection covers the -only rule filter: selected rules fire,
// everything else stays quiet, and the selection composes with the
// severity gate.
func TestOnlySelection(t *testing.T) {
	var out bytes.Buffer
	failed, err := run(&out, config{
		dir:      ".",
		patterns: []string{fixture(t, "g003"), fixture(t, "g004")},
		sevName:  "info",
		failName: "warning",
		only:     "g003,g005",
	})
	if err != nil {
		t.Fatal(err)
	}
	if !failed {
		t.Error("-only g003,g005 should still fail on the g003 fixture")
	}
	text := out.String()
	if !bytes.Contains([]byte(text), []byte("G003")) {
		t.Errorf("selected rule G003 missing from output:\n%s", text)
	}
	if bytes.Contains([]byte(text), []byte("G004")) {
		t.Errorf("unselected rule G004 leaked into output:\n%s", text)
	}

	// Deselecting the fixture's rule turns the run clean.
	out.Reset()
	failed, err = run(&out, config{
		dir:      ".",
		patterns: []string{fixture(t, "g004")},
		sevName:  "info",
		failName: "warning",
		only:     "g005",
	})
	if err != nil {
		t.Fatal(err)
	}
	if failed {
		t.Errorf("-only g005 on the g004 fixture should be clean:\n%s", out.String())
	}
}

// TestUsageErrors pins the exit-code contract for bad invocations:
// every run error maps to ExitUsage through cli.Usage.
func TestUsageErrors(t *testing.T) {
	for _, cfg := range []config{
		{dir: ".", sevName: "loud", failName: "error"},
		{dir: ".", sevName: "info", failName: "silent"},
		{dir: ".", sevName: "info", failName: "error", patterns: []string{"/nonexistent/pkg"}},
		{dir: ".", sevName: "info", failName: "error", only: "g999"}, // unknown rule
		{dir: ".", sevName: "info", failName: "error", only: "g014"}, // retired rule
		{dir: ".", sevName: "info", failName: "error", only: "g007"}, // retired rule
		{dir: ".", sevName: "info", failName: "error", only: "g012"}, // retired rule
		{dir: ".", sevName: "info", failName: "error", only: "g011"}, // retired rule
		{dir: ".", sevName: "info", failName: "error", only: "g015"}, // retired rule
		{dir: ".", sevName: "info", failName: "error", only: "g016"}, // retired rule
		{dir: "/", sevName: "info", failName: "error"},               // no enclosing module
	} {
		var out bytes.Buffer
		_, err := run(&out, cfg)
		if err == nil {
			t.Errorf("config %+v: expected error", cfg)
			continue
		}
		if code := cli.ExitCode(cli.Usage(err)); code != cli.ExitUsage {
			t.Errorf("config %+v: exit code %d, want %d", cfg, code, cli.ExitUsage)
		}
	}
}

// TestTextOutput sanity-checks the human renderer: summary line plus
// one indented line per finding.
func TestTextOutput(t *testing.T) {
	var out bytes.Buffer
	failed, err := run(&out, config{
		dir:      ".",
		patterns: []string{fixture(t, "g004")},
		sevName:  "info",
		failName: "warning",
	})
	if err != nil {
		t.Fatal(err)
	}
	if !failed {
		t.Error("g004 fixture did not fail")
	}
	text := out.String()
	for _, want := range []string{"3 warning(s)", "G004", "time.Now", "dirty.go:14:9"} {
		if !bytes.Contains([]byte(text), []byte(want)) {
			t.Errorf("text output missing %q:\n%s", want, text)
		}
	}
}

// TestSelfLint runs the tool over its own module the way CI does and
// requires a clean tree — the acceptance gate for every future PR.
func TestSelfLint(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-module type-check is not short")
	}
	var out bytes.Buffer
	failed, err := run(&out, config{
		dir:      ".",
		patterns: nil, // default ./... from the module root
		sevName:  "warning",
		failName: "warning",
	})
	if err != nil {
		t.Fatal(err)
	}
	if failed {
		t.Errorf("repo is not codelint-clean:\n%s", out.String())
	}
}

// TestListRules pins the -list surface: every registered rule, in
// registry order, in both text and JSON, composing with -only.
func TestListRules(t *testing.T) {
	var out bytes.Buffer
	failed, err := run(&out, config{dir: ".", sevName: "info", failName: "warning", list: true})
	if err != nil || failed {
		t.Fatalf("list: failed=%v err=%v", failed, err)
	}
	lines := strings.Split(strings.TrimRight(out.String(), "\n"), "\n")
	if len(lines) != 5 {
		t.Fatalf("-list printed %d rows, want 5:\n%s", len(lines), out.String())
	}
	if !strings.HasPrefix(lines[0], "G001  ") || !strings.HasPrefix(lines[4], "G005  ") {
		t.Errorf("-list rows out of registry order:\n%s", out.String())
	}
	for _, line := range lines {
		if !strings.Contains(line, "error") && !strings.Contains(line, "warning") {
			t.Errorf("-list row missing a severity: %q", line)
		}
	}

	out.Reset()
	if _, err := run(&out, config{dir: ".", sevName: "info", failName: "warning", list: true, jsonOut: true}); err != nil {
		t.Fatal(err)
	}
	var rows []ruleInfo
	if err := json.Unmarshal(out.Bytes(), &rows); err != nil {
		t.Fatalf("-list -json did not decode: %v\n%s", err, out.String())
	}
	if len(rows) != 5 || rows[0].ID != "G001" || rows[4].ID != "G005" {
		t.Errorf("-list -json rows = %d (%s..%s), want 5 G001..G005", len(rows), rows[0].ID, rows[len(rows)-1].ID)
	}
	for _, r := range rows {
		if r.Name == "" || r.Doc == "" || (r.Severity != golint.Error && r.Severity != golint.Warning) {
			t.Errorf("-list -json row incomplete: %+v", r)
		}
	}

	out.Reset()
	if _, err := run(&out, config{dir: ".", sevName: "info", failName: "warning", list: true, only: "g004"}); err != nil {
		t.Fatal(err)
	}
	if got := strings.TrimRight(out.String(), "\n"); strings.Count(got, "\n") != 0 || !strings.HasPrefix(got, "G004") {
		t.Errorf("-list -only g004 = %q, want the single G004 row", got)
	}
}
