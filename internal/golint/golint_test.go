package golint

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// fixtureDir resolves a path under the repo's testdata/codelint tree.
func fixtureDir(t *testing.T, name string) string {
	t.Helper()
	p := filepath.Join("..", "..", "testdata", "codelint", name)
	if _, err := os.Stat(p); err != nil {
		t.Fatalf("fixture %s missing: %v", name, err)
	}
	return p
}

// analyzeFixture loads one fixture package and runs every analyzer.
func analyzeFixture(t *testing.T, name string) *Report {
	t.Helper()
	l, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := l.Load(fixtureDir(t, name))
	if err != nil {
		t.Fatal(err)
	}
	return Run(l, pkgs, Analyzers())
}

// goldenReport reads the pinned JSON golden for a fixture.
func goldenReport(t *testing.T, name string) []Finding {
	t.Helper()
	data, err := os.ReadFile(fixtureDir(t, "") + "/" + name + ".golden.json")
	if err != nil {
		t.Fatal(err)
	}
	var rep struct {
		Findings []Finding `json:"findings"`
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	return rep.Findings
}

// TestFixturesMatchGoldens pins, per rule, the exact findings — rule
// ID, locus, severity, message, hint — the analyzers produce on the
// intentionally-dirty fixture packages.
func TestFixturesMatchGoldens(t *testing.T) {
	for _, fixture := range []struct {
		name string
		rule string
		want int // findings carrying the fixture's own rule
	}{
		{"g001", RuleNondetIteration, 3},
		{"g002", RuleExitContract, 3},
		{"g003", RuleContextDiscipline, 4},
		{"g004", RuleImpureEngine, 3},
		{"g005", RuleErrorHygiene, 2},
		{"g007", RuleAllocHotPath, 2},
		{"g011", RuleCacheKeySoundness, 4},
		{"g012", RuleCancelReachability, 2},
		{"g015", RuleDurabilityDiscipline, 4},
		{"g016", RuleStreamingDiscipline, 5},
	} {
		t.Run(fixture.name, func(t *testing.T) {
			rep := analyzeFixture(t, fixture.name)
			if got := len(rep.ByRule(fixture.rule)); got != fixture.want {
				t.Errorf("%s findings = %d, want %d\n%v", fixture.rule, got, fixture.want, rep.Findings)
			}
			// Dirty fixtures must trip only their own rule: cross-rule
			// noise would mean an analyzer overreaches.
			for _, f := range rep.Findings {
				if f.Rule != fixture.rule {
					t.Errorf("unexpected cross-rule finding: %v", f)
				}
			}
			want := goldenReport(t, fixture.name)
			if !reflect.DeepEqual(rep.Findings, want) {
				t.Errorf("findings diverge from golden\ngot:  %v\nwant: %v", rep.Findings, want)
			}
		})
	}
}

// TestRunDeterministic asserts two independent loads of the same
// fixtures produce identical reports — the property the serve cache
// story rests on, applied to the analyzer itself.
func TestRunDeterministic(t *testing.T) {
	a := analyzeFixture(t, "g001")
	b := analyzeFixture(t, "g001")
	if !reflect.DeepEqual(a, b) {
		t.Errorf("reports differ between runs:\n%v\n%v", a, b)
	}
}

// TestReportHelpers exercises the severity accounting mirrored from
// internal/lint.
func TestReportHelpers(t *testing.T) {
	rep := analyzeFixture(t, "g005")
	counts := rep.CountBySeverity()
	if counts[Warning] != 1 || counts[Info] != 1 || counts[Error] != 0 {
		t.Errorf("counts = %v", counts)
	}
	if s, ok := rep.MaxSeverity(); !ok || s != Warning {
		t.Errorf("MaxSeverity = %v, %v", s, ok)
	}
	if rep.HasErrors() {
		t.Error("HasErrors = true for a warning-level report")
	}
	if got := len(rep.Filter(Warning)); got != 1 {
		t.Errorf("Filter(Warning) = %d findings, want 1", got)
	}
	empty := &Report{}
	if _, ok := empty.MaxSeverity(); ok {
		t.Error("MaxSeverity on empty report reported ok")
	}
}

// TestAnalyzerRegistry pins the registry's IDs and order: rule IDs are
// an output contract and must never be renumbered, and the retired IDs
// (G006, G008–G010, G013, G014) stay unregistered.
func TestAnalyzerRegistry(t *testing.T) {
	var ids []string
	for _, a := range Analyzers() {
		ids = append(ids, a.ID)
		if a.Name == "" || a.Doc == "" || a.Run == nil {
			t.Errorf("analyzer %s incompletely declared", a.ID)
		}
	}
	want := []string{"G001", "G002", "G003", "G004", "G005", "G007",
		"G011", "G012", "G015", "G016"}
	if !reflect.DeepEqual(ids, want) {
		t.Errorf("registry IDs = %v, want %v", ids, want)
	}
}

// TestSelect covers the -only rule-selection surface: exact IDs,
// case-insensitivity, registry order, and typo rejection.
func TestSelect(t *testing.T) {
	all := Analyzers()
	got, err := Select(all, []string{"g011", "G007"})
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for _, a := range got {
		ids = append(ids, a.ID)
	}
	if want := []string{"G007", "G011"}; !reflect.DeepEqual(ids, want) {
		t.Errorf("Select = %v, want %v (registry order, case-insensitive)", ids, want)
	}
	if _, err := Select(all, []string{"g007", "g999"}); err == nil {
		t.Error("Select accepted unknown rule g999")
	}
	if _, err := Select(all, []string{"g014"}); err == nil {
		t.Error("Select accepted retired rule g014")
	}
}

// TestCombinedOrderGolden pins the deterministic finding order across
// the whole-module rules when their fixtures are analyzed in one run:
// file, then line, then column, then rule — independent of load order.
func TestCombinedOrderGolden(t *testing.T) {
	l, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	// Deliberately load in non-sorted order; the report order must not
	// care.
	pkgs, err := l.Load(
		fixtureDir(t, "g011"),
		fixtureDir(t, "g007"),
		fixtureDir(t, "g012"),
	)
	if err != nil {
		t.Fatal(err)
	}
	rep := Run(l, pkgs, Analyzers())
	want := goldenReport(t, "combined")
	if !reflect.DeepEqual(rep.Findings, want) {
		t.Errorf("combined findings diverge from golden\ngot:  %v\nwant: %v", rep.Findings, want)
	}
}

// TestCleanShapesStayClean asserts the sanctioned idioms inside the
// fixtures (collect-then-sort, compat wrapper, seeded RNG, %w, `_ =`)
// produce no findings at their declaration sites.
func TestCleanShapesStayClean(t *testing.T) {
	cleanFuncs := map[string][]int{
		// dirty.go line ranges of the clean functions per fixture, as
		// flat start,end pairs (a fixture may pin several regions).
		"g001": {37, 55},         // SortedKeys, Total
		"g003": {26, 38},         // Compat, step
		"g004": {27, 30},         // Seeded
		"g005": {21, 29},         // WrapWell, CleanupRecorded
		"g007": {34, 44},         // warmup, Warm (hotAllocAllowlist entry)
		"g011": {30, 60},         // mount, Register, parseThing, buildOpts, runThing
		"g012": {48, 76},         // polled, Vetted, step, pending
		"g015": {67, 117},        // AppendSynced, InstallBlob, syncDir
		"g016": {53, 63, 79, 95}, // StreamSolid; GuardedError, fail
	}
	for name, spans := range cleanFuncs {
		rep := analyzeFixture(t, name)
		for i := 0; i+1 < len(spans); i += 2 {
			for _, f := range rep.Findings {
				if f.Line >= spans[i] && f.Line <= spans[i+1] {
					t.Errorf("%s: finding inside clean region %v-%v: %v", name, spans[i], spans[i+1], f)
				}
			}
		}
	}
}
