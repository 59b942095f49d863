package main

import (
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cli"
)

func TestRunFormats(t *testing.T) {
	dir := t.TempDir()
	for _, f := range []string{"bench", "verilog", "dot"} {
		if err := run("tree:leaves=8", filepath.Join(dir, "out."+f), f, true, false); err != nil {
			t.Errorf("format %s: %v", f, err)
		}
	}
}

func TestRunErrors(t *testing.T) {
	if err := run("", "", "bench", false, false); cli.ExitCode(err) != cli.ExitUsage {
		t.Errorf("no spec: %v, want a usage error", err)
	}
	// The format is checked before the circuit is generated.
	if err := run("bogus", "", "nope", false, false); cli.ExitCode(err) != cli.ExitUsage || !strings.Contains(fmt.Sprint(err), "format") {
		t.Errorf("unknown format: %v, want a usage error naming the format", err)
	}
	if err := run("bogus", "", "bench", false, false); err == nil {
		t.Error("expected error for bad spec")
	}
}
