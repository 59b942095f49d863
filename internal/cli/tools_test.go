package cli_test

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/cli"
	"repro/internal/exp"
	"repro/internal/gen"
	"repro/internal/pattern"
	"repro/internal/perf"
	"repro/internal/vlog"
)

// TestToolExitCodes builds every tool under cmd/ once and runs each as
// a process, holding its exit code to the contract in exit.go: 0 on
// success, 1 on bad input, findings or a failed gate, 2 on a usage
// error or an output it cannot write, 3 once -timeout expires. A 1ns
// timeout has expired before the engine starts, so it strikes at the
// engine's first poll: the experiments rows strike inside E4 and E7.
// Writes to /dev/full fail with ENOSPC: the rows named full-stdout send
// standard output there, and the rows named full-o an output file.
// cmd/serve has no success row: it runs until it is signalled. A tool
// that has not exited after a minute is killed, and its row fails.
func TestToolExitCodes(t *testing.T) {
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go command to build the tools with")
	}
	bin := t.TempDir()
	if out, err := exec.Command(goTool, "build", "-o", bin+string(filepath.Separator), "repro/cmd/...").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}

	dir := t.TempDir()
	write := func(name, text string) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	malformed := write("bad.bench", "INPUT(a)\nOUTPUT(z)\nz = FROB(a)\n")
	badReport := write("bad.json", `{"schema":"nope"}`)
	unwritable := filepath.Join(dir, "missing", "out") // its directory does not exist
	notDir := write("file", "")
	// A -csv directory where E2.csv is a directory cannot take E2's table.
	csvBlocked := filepath.Join(dir, "csv")
	if err := os.MkdirAll(filepath.Join(csvBlocked, "E2.csv"), 0o755); err != nil {
		t.Fatal(err)
	}
	// A report 100 times slower than the committed baseline fails the gate.
	base := filepath.Join("..", "..", "testdata", "bench", "baseline.json")
	f, err := os.Open(base)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := perf.Decode(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	for i := range rep.Benchmarks {
		rep.Benchmarks[i].NsPerOp *= 100
	}
	var slow bytes.Buffer
	if err := rep.Encode(&slow); err != nil {
		t.Fatal(err)
	}
	slowReport := write("slow.json", slow.String())
	held, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer held.Close()
	busy := held.Addr().String()
	lintData := filepath.Join("..", "..", "testdata", "lint")

	rows := []struct {
		name string
		args []string
		want int
	}{
		{"atpg/ok", []string{"-gen", "c17"}, 0},
		{"atpg/bad-input", []string{"-bench", malformed}, 1},
		{"atpg/usage", []string{"-bench", malformed, "-gen", "c17"}, 2},
		{"atpg/unwritable-o", []string{"-gen", "c17", "-o", unwritable}, 2},
		{"atpg/full-o", []string{"-gen", "c17", "-o", "/dev/full"}, 2},
		{"atpg/timeout", []string{"-gen", "c17", "-timeout", "1ns"}, 3},

		{"bench/ok", []string{"-list"}, 0},
		{"bench/bad-input", []string{"-check", badReport}, 1},
		{"bench/gate-fails", []string{"-check", slowReport, "-baseline", base}, 1},
		{"bench/usage", []string{"-tolerance", "0.5"}, 2},
		{"bench/unwritable-o", []string{"-short", "-iterations", "1", "-warmup", "0", "-only", "exp/E2", "-o", unwritable}, 2},
		{"bench/full-o", []string{"-short", "-iterations", "1", "-warmup", "0", "-only", "exp/E2", "-o", "/dev/full"}, 2},
		{"bench/unwritable-cpuprofile", []string{"-short", "-iterations", "1", "-warmup", "0", "-only", "exp/E2", "-cpuprofile", unwritable}, 2},
		{"bench/unwritable-memprofile", []string{"-short", "-iterations", "1", "-warmup", "0", "-only", "exp/E2", "-memprofile", unwritable}, 2},
		{"bench/full-memprofile", []string{"-short", "-iterations", "1", "-warmup", "0", "-only", "exp/E2", "-memprofile", "/dev/full"}, 2},
		{"bench/full-cpuprofile", []string{"-short", "-iterations", "1", "-warmup", "0", "-only", "exp/E2", "-cpuprofile", "/dev/full"}, 2},
		{"bench/run/full-stdout", []string{"-json", "-short", "-iterations", "1", "-warmup", "0", "-only", "exp/E2"}, 1},
		{"bench/check/full-stdout", []string{"-json", "-check", base}, 1},

		{"benchgen/ok", []string{"-gen", "c17"}, 0},
		{"benchgen/usage", []string{"-gen", "bogus"}, 2},
		{"benchgen/usage-format", []string{"-gen", "c17", "-format", "nope"}, 2},
		{"benchgen/usage-no-gen", []string{"-format", "bench"}, 2},
		{"benchgen/unwritable-o", []string{"-gen", "c17", "-o", unwritable}, 2},
		{"benchgen/full-o", []string{"-gen", "c17", "-o", "/dev/full"}, 2},
		{"benchgen/full-stdout", []string{"-gen", "c17"}, 1},

		{"experiments/ok", []string{"-quick", "-only", "E2"}, 0},
		{"experiments/usage", []string{"-no-such-flag"}, 2},
		{"experiments/unwritable-csv", []string{"-quick", "-only", "E2", "-csv", csvBlocked}, 2},
		// -csv is checked before any experiment runs, so the expired
		// -timeout never strikes.
		{"experiments/uncreatable-csv", []string{"-quick", "-only", "E2", "-timeout", "1ns", "-csv", filepath.Join(notDir, "csv")}, 2},
		{"experiments/timeout-in-E4", []string{"-quick", "-only", "E4", "-timeout", "1ns"}, 3},
		{"experiments/timeout-in-E7", []string{"-quick", "-only", "E7", "-timeout", "1ns"}, 3},
		{"experiments/full-stdout", []string{"-quick", "-only", "E2"}, 1},

		{"faultsim/ok", []string{"-gen", "c17", "-patterns", "64"}, 0},
		{"faultsim/bad-input", []string{"-bench", malformed}, 1},
		{"faultsim/usage", []string{"-bench", malformed, "-gen", "c17"}, 2},
		{"faultsim/missing-vectors", []string{"-gen", "c17", "-source", "file", "-vectors", unwritable}, 1},
		{"faultsim/timeout", []string{"-gen", "c17", "-timeout", "1ns"}, 3},

		{"lint/ok", []string{filepath.Join(lintData, "clean.bench")}, 0},
		{"lint/findings", []string{filepath.Join(lintData, "stuck.bench")}, 1},
		{"lint/usage", []string{"-severity", "bogus", filepath.Join(lintData, "clean.bench")}, 2},
		{"lint/unreadable", []string{filepath.Join(dir, "absent.bench")}, 2},
		{"lint/full-stdout", []string{"-json", filepath.Join(lintData, "clean.bench")}, 2},

		{"serve/config", []string{"-workers", "-1"}, 2},
		{"serve/listen-fails", []string{"-addr", busy}, 1},
		{"serve/debug-listen-fails", []string{"-addr", "127.0.0.1:0", "-debug-addr", busy}, 1},

		{"tpi/ok", []string{"-gen", "c17", "-patterns", "64"}, 0},
		{"tpi/bad-input", []string{"-bench", malformed}, 1},
		{"tpi/usage", []string{"-bench", malformed, "-gen", "c17"}, 2},
		{"tpi/unwritable-o", []string{"-gen", "c17", "-patterns", "64", "-o", unwritable}, 2},
		{"tpi/full-o", []string{"-gen", "c17", "-patterns", "64", "-o", "/dev/full"}, 2},
		{"tpi/timeout", []string{"-gen", "c17", "-timeout", "1ns"}, 3},
	}
	_, noFull := os.Stat("/dev/full")
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			if strings.Contains(r.name, "/full-") && noFull != nil {
				t.Skip(noFull)
			}
			ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
			defer cancel()
			cmd := exec.CommandContext(ctx, filepath.Join(bin, r.name[:strings.Index(r.name, "/")]), r.args...)
			var stderr bytes.Buffer
			cmd.Stderr = &stderr
			if strings.HasSuffix(r.name, "/full-stdout") {
				full, err := os.OpenFile("/dev/full", os.O_WRONLY, 0)
				if err != nil {
					t.Fatal(err)
				}
				defer full.Close()
				cmd.Stdout = full
			}
			code := 0
			if err := cmd.Run(); err != nil {
				var ee *exec.ExitError
				if !errors.As(err, &ee) {
					t.Fatal(err)
				}
				code = ee.ExitCode()
			}
			if code != r.want {
				t.Errorf("exit %d, want %d; stderr:\n%s", code, r.want, stderr.String())
			}
		})
	}
}

// failFirst fails its first Write and takes every later one.
type failFirst struct{ writes int }

var errFull = errors.New("no space left on device")

func (w *failFirst) Write(p []byte) (int, error) {
	w.writes++
	if w.writes == 1 {
		return 0, errFull
	}
	return len(p), nil
}

// TestEncodersReturnWriteErrors hands every encoder the tools pass to
// WriteFile or to their standard output a writer whose first Write
// fails, and wants that error back, even when later writes succeed.
// bench.Write writes the text of dag:gates=200 in several pieces, and
// c17's in one.
func TestEncodersReturnWriteErrors(t *testing.T) {
	c17 := gen.C17()
	dag, err := cli.Generate("dag:gates=200")
	if err != nil {
		t.Fatal(err)
	}
	tab := &exp.Table{ID: "E0", Title: "t", Columns: []string{"a"}, Rows: [][]string{{"1"}}}
	series := &exp.Series{ID: "E0", Title: "s", Lines: []exp.Line{{Name: "l", Points: []exp.Point{{X: 1, Y: 1}}}}}
	for _, e := range []struct {
		name   string
		encode func(io.Writer) error
	}{
		{"bench.Write/one-piece", func(w io.Writer) error { return bench.Write(w, c17) }},
		{"bench.Write/pieces", func(w io.Writer) error { return bench.Write(w, dag) }},
		{"vlog.Write", func(w io.Writer) error { return vlog.Write(w, c17) }},
		{"Circuit.WriteDot", c17.WriteDot},
		{"pattern.WriteVectorText", func(w io.Writer) error { return pattern.WriteVectorText(w, [][]bool{{true, false}}) }},
		{"perf.Report.Encode", (&perf.Report{}).Encode},
		{"exp.Table.Write", tab.Write},
		{"exp.Table.Markdown", tab.Markdown},
		{"exp.Table.CSV", tab.CSV},
		{"exp.Series.Write", series.Write},
	} {
		if err := e.encode(&failFirst{}); !errors.Is(err, errFull) {
			t.Errorf("%s = %v, want %v", e.name, err, errFull)
		}
	}
}
