package golint

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// loadFixtureFacts builds the whole-module facts for one fixture
// package.
func loadFixtureFacts(t *testing.T, name string) *ModuleFacts {
	t.Helper()
	l, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := l.Load(fixtureDir(t, name))
	if err != nil {
		t.Fatal(err)
	}
	return newModuleFacts(l, pkgs)
}

// TestServeGraphFollowsMethodValueAndDeferredEdges pins the two edge
// kinds the reachability walk must follow beyond plain calls: the g011
// fixture wires its flush handler as a method value (b.flush) and
// reaches reset only through a deferred call.
func TestServeGraphFollowsMethodValueAndDeferredEdges(t *testing.T) {
	g := loadFixtureFacts(t, "g011").serveFacts()
	rootNames := make(map[string]bool)
	for _, ff := range g.roots {
		rootNames[ff.fn.Name()] = true
	}
	if !rootNames["flush"] {
		t.Errorf("method-value wiring lost: flush not a root (roots: %v)", rootNames)
	}
	reached := make(map[string]bool)
	for _, ff := range g.reachList {
		reached[ff.fn.Name()] = true
	}
	for _, want := range []string{"flush", "reset", "parseThing", "buildOpts", "runThing"} {
		if !reached[want] {
			t.Errorf("reachability lost %s (deferred-call and call edges must both be followed)", want)
		}
	}
}

// TestTaintGradesFeeds pins the taint verdicts behind the g011 golden:
// the Depth and Trace feeds derive from keyed request data, and Boost
// has no feed at all.
func TestTaintGradesFeeds(t *testing.T) {
	g := loadFixtureFacts(t, "g011").serveFacts()
	key := "repro/testdata/codelint/g011.EngineOpts."
	if f := g.feeds[key+"Depth"]; f == nil || !f.fedKeyed {
		t.Errorf("EngineOpts.Depth feed = %+v, want fed from keyed data", f)
	}
	if f := g.feeds[key+"Trace"]; f == nil || !f.fedKeyed {
		t.Errorf("EngineOpts.Trace feed = %+v, want fed from keyed data", f)
	}
	if f := g.feeds[key+"Boost"]; f != nil {
		t.Errorf("EngineOpts.Boost feed = %+v, want none", f)
	}
}

// mutateModule copies the module's go files into a temp directory with
// one textual mutation applied, and returns the copy's root. It is the
// scaffolding for the acceptance-pinning tests below: delete the thing
// the rule guards, watch the rule fire.
func mutateModule(t *testing.T, file, old, new string) string {
	t.Helper()
	l, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	dst := t.TempDir()
	mutated := false
	err = filepath.WalkDir(l.ModRoot, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(l.ModRoot, path)
		if err != nil {
			return err
		}
		if d.IsDir() {
			if strings.HasPrefix(d.Name(), ".") && rel != "." {
				return filepath.SkipDir
			}
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if rel == file {
			s := strings.ReplaceAll(string(data), old, new)
			if s == string(data) {
				t.Fatalf("mutation %q not found in %s", old, file)
			}
			data = []byte(s)
			mutated = true
		}
		return os.WriteFile(filepath.Join(dst, rel), data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
	if !mutated {
		t.Fatalf("mutation target %s never visited", file)
	}
	return dst
}

// runRuleOn loads the mutated module copy and runs one rule over it.
func runRuleOn(t *testing.T, root, rule string) []Finding {
	t.Helper()
	l, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := l.Load("./...")
	if err != nil {
		t.Fatal(err)
	}
	as, err := Select(Analyzers(), []string{rule})
	if err != nil {
		t.Fatal(err)
	}
	return Run(l, pkgs, as).ByRule(strings.ToUpper(rule))
}

// TestDeletingServeFeedFiresG011 is the acceptance pin for the
// cache-key rule: delete the Learn feed from the serve canonicalization
// and the atpg option field becomes read-but-unfed — an error.
func TestDeletingServeFeedFiresG011(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks a mutated module copy")
	}
	root := mutateModule(t, "internal/serve/serve.go",
		`		eng, err := learnEngine(ctx, c, opts.Learn)
		if err != nil {
			return nil, err
		}
		ts, err := atpg.GenerateTestsContext(ctx, c, faults, atpg.Options{BacktrackLimit: opts.BacktrackLimit, Learn: eng})`,
		`		ts, err := atpg.GenerateTestsContext(ctx, c, faults, atpg.Options{BacktrackLimit: opts.BacktrackLimit})`)
	found := false
	for _, f := range runRuleOn(t, root, "g011") {
		if f.Severity == Error && strings.Contains(f.Message, "Options.Learn") {
			found = true
		}
	}
	if !found {
		t.Error("cutting the Learn feed loose from the request field did not fire G011 on atpg.Options.Learn")
	}
}
