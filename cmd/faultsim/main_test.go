package main

import (
	"context"
	"errors"
	"io/fs"
	"strings"

	"os"
	"path/filepath"
	"repro/internal/cli"
	"testing"
)

func TestRunSources(t *testing.T) {
	if err := run(context.Background(), "", "c17", 128, 1, "lfsr", "", 64, false, 2, false); err != nil {
		t.Errorf("lfsr: %v", err)
	}
	if err := run(context.Background(), "", "c17", 1024, 1, "counter", "", 0, true, 0, false); err != nil {
		t.Errorf("counter: %v", err)
	}
	if err := run(context.Background(), "", "c17", 128, 1, "weighted", "", 0, false, 0, false); err != nil {
		t.Errorf("weighted: %v", err)
	}
	vec := filepath.Join(t.TempDir(), "v.vec")
	if err := os.WriteFile(vec, []byte("11111\n00000\n10101\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), "", "c17", 128, 1, "file", vec, 0, false, 0, false); err != nil {
		t.Errorf("file: %v", err)
	}
}

func TestRunErrors(t *testing.T) {
	if err := run(context.Background(), "", "c17", 64, 1, "nope", "", 0, false, 0, false); err == nil {
		t.Error("expected error for unknown source")
	}
	if err := run(context.Background(), "", "c17", 64, 1, "file", "", 0, false, 0, false); err == nil {
		t.Error("expected error for missing vector path")
	}
	if err := run(context.Background(), "", "c17", 64, 1, "file", filepath.Join(t.TempDir(), "absent.vec"), 0, false, 0, false); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("missing vector file: err = %v, want fs.ErrNotExist", err)
	}
	if err := run(context.Background(), "", "dag:inputs=32,gates=50", 64, 1, "counter", "", 0, false, 0, false); err == nil {
		t.Error("expected error for counter with too many inputs")
	}
}

func TestRunDeadlineExitsWithContextError(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // expire before the run starts
	err := run(ctx, "", "dag:gates=400,seed=2", 1<<20, 1, "lfsr", "", 0, false, 0, false)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if code := cli.ExitCode(err); code != cli.ExitDeadline {
		t.Fatalf("exit code = %d, want %d", code, cli.ExitDeadline)
	}
}

// TestCounterSourceOverInputLimit: -source counter on a circuit wider
// than the counter enumerates is an input error (exit 1) naming the
// limit, before any simulation starts.
func TestCounterSourceOverInputLimit(t *testing.T) {
	err := run(context.Background(), "", "mul:width=16", 64, 1, "counter", "", 0, false, 0, false)
	if err == nil || !strings.Contains(err.Error(), "supports 1 to 30 inputs, circuit has 32") {
		t.Fatalf("err = %v, want the 30-input limit named", err)
	}
	if code := cli.ExitCode(err); code != cli.ExitFailure {
		t.Errorf("exit code = %d, want %d", code, cli.ExitFailure)
	}
}
