package cli

import (
	"os"
	"path/filepath"
	"testing"
	"time"
)

func TestGenerateSpecs(t *testing.T) {
	cases := map[string]struct {
		inputs, outputs int
	}{
		"c17":                                {5, 2},
		"tree:seed=3,leaves=10":              {10, 1},
		"dag:seed=1,inputs=8,gates=30":       {8, -1},
		"cone:width=8":                       {8, 1},
		"parity:width=8":                     {8, 1},
		"rca:width=4":                        {9, 5},
		"cmp:width=4":                        {8, 1},
		"decoder:bits=3":                     {3, 8},
		"mul:width=3":                        {6, 6},
		"rpr:seed=1,cones=2,width=8,glue=20": {-1, -1},
	}
	for spec, want := range cases {
		c, err := Generate(spec)
		if err != nil {
			t.Errorf("%s: %v", spec, err)
			continue
		}
		if want.inputs >= 0 && c.NumInputs() != want.inputs {
			t.Errorf("%s: inputs = %d, want %d", spec, c.NumInputs(), want.inputs)
		}
		if want.outputs >= 0 && c.NumOutputs() != want.outputs {
			t.Errorf("%s: outputs = %d, want %d", spec, c.NumOutputs(), want.outputs)
		}
	}
}

func TestGenerateDefaults(t *testing.T) {
	c, err := Generate("tree")
	if err != nil {
		t.Fatal(err)
	}
	if c.NumInputs() != 50 {
		t.Errorf("default tree leaves = %d, want 50", c.NumInputs())
	}
}

func TestGenerateErrors(t *testing.T) {
	for _, spec := range []string{
		"frobnicator",
		"tree:leaves",     // malformed kv
		"tree:leaves=ten", // non-integer
		"cone:width=1",    // generator precondition -> recovered panic
		"decoder:bits=99", // out of range
	} {
		if _, err := Generate(spec); err == nil {
			t.Errorf("%s: expected error", spec)
		}
	}
}

func TestLoadCircuitBench(t *testing.T) {
	path := filepath.Join("..", "..", "testdata", "c17.bench")
	if _, err := os.Stat(path); err != nil {
		t.Skip("testdata missing")
	}
	c, err := LoadCircuit(path, "")
	if err != nil {
		t.Fatal(err)
	}
	if c.Name() != "c17" || c.NumGates() != 11 {
		t.Errorf("loaded %v", c)
	}
}

func TestLoadCircuitExclusive(t *testing.T) {
	if _, err := LoadCircuit("x.bench", "c17"); err == nil {
		t.Error("expected mutual-exclusion error")
	}
	if _, err := LoadCircuit("", ""); err == nil {
		t.Error("expected missing-source error")
	}
	if _, err := LoadCircuit("/nonexistent/file.bench", ""); err == nil {
		t.Error("expected file error")
	}
}

func TestGenerateDatapathSpecs(t *testing.T) {
	for spec, inputs := range map[string]int{
		"bshift:width=8": 11,
		"alu:width=4":    10,
	} {
		c, err := Generate(spec)
		if err != nil {
			t.Errorf("%s: %v", spec, err)
			continue
		}
		if c.NumInputs() != inputs {
			t.Errorf("%s: inputs = %d, want %d", spec, c.NumInputs(), inputs)
		}
	}
}

func TestLoadCircuitVerilog(t *testing.T) {
	path := filepath.Join("..", "..", "testdata", "c17.v")
	if _, err := os.Stat(path); err != nil {
		t.Skip("testdata missing")
	}
	c, err := LoadCircuit(path, "")
	if err != nil {
		t.Fatal(err)
	}
	if c.NumGates() != 11 || c.NumInputs() != 5 {
		t.Errorf("loaded %v", c)
	}
}

// TestGenerateWithinBoundsGateCount pins the size guard's promise: the
// per-kind estimate is an upper bound on the gate count the spec really
// builds, so a spec admitted under a budget never exceeds it, and the
// guarded build is the same circuit the unguarded one produces.
func TestGenerateWithinBoundsGateCount(t *testing.T) {
	for _, spec := range []string{
		"c17", "tree", "dag", "cone", "parity", "rca", "cmp", "decoder", "mul", "rpr", "bshift", "alu",
		"tree:leaves=2,seed=4", "tree:leaves=777,seed=5", "tree:leaves=300,fanin=9",
		"dag:gates=1,inputs=2", "dag:gates=500,seed=3", "dag:gates=200,fanin=2", "dag:gates=150,fanin=40",
		"cone:width=2", "cone:width=129", "parity:width=2", "parity:width=77",
		"rca:width=1", "rca:width=31", "cmp:width=1", "cmp:width=19",
		"decoder:bits=1", "decoder:bits=9", "mul:width=2", "mul:width=17",
		"rpr:cones=1,width=2,glue=0", "rpr:cones=1,width=300", "rpr:cones=40,width=2,glue=5",
		"rpr:cones=7,width=33,glue=400,seed=3",
		"bshift:width=2", "bshift:width=128", "alu:width=2", "alu:width=64",
	} {
		want, err := Generate(spec)
		if err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		n := want.NumGates()
		if _, err := GenerateWithin(spec, n-1); err == nil {
			// The estimate may exceed the real count, but never fall
			// below it: a budget one under the real size must refuse.
			t.Errorf("%s builds %d gates but passed a budget of %d", spec, n, n-1)
		}
		got, err := GenerateWithin(spec, 1<<30)
		if err != nil {
			t.Errorf("%s: rejected under a generous budget: %v", spec, err)
			continue
		}
		if got.NumGates() != n || got.Name() != want.Name() {
			t.Errorf("%s: guarded build differs from unguarded one", spec)
		}
	}
}

// TestGenerateWithinRejectsBeforeBuilding pins that oversized specs —
// including ones whose true size would overflow an int or take minutes
// to build — fail fast with a usage error.
func TestGenerateWithinRejectsBeforeBuilding(t *testing.T) {
	for _, spec := range []string{
		"dag:gates=1000000",
		"dag:gates=5000,fanin=1000000",
		"tree:leaves=1000000",
		"mul:width=100000",
		"mul:width=9223372036854775807",
		"decoder:bits=4000",
		"rpr:cones=100000,width=100000",
		"cone:width=1000000000",
	} {
		start := time.Now()
		_, err := GenerateWithin(spec, 10000)
		if err == nil || ExitCode(err) != ExitUsage {
			t.Errorf("%s: err = %v, want a usage error", spec, err)
		}
		if d := time.Since(start); d > 100*time.Millisecond {
			t.Errorf("%s: rejection took %v", spec, d)
		}
	}
}
