package lint

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/fault"
	"repro/internal/gen"
	"repro/internal/netlist"
)

func parseFixture(t *testing.T, name string) *netlist.Circuit {
	t.Helper()
	f, err := os.Open(filepath.Join("..", "..", "testdata", "lint", name))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	c, err := bench.Parse(f, strings.TrimSuffix(name, ".bench"))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// stuckCircuit builds k = AND(a, NOT a), a line provably stuck at 0.
func stuckCircuit() *netlist.Circuit {
	b := netlist.NewBuilder("stuck")
	a := b.Input("a")
	bb := b.Input("b")
	na := b.NotGate("na", a)
	k := b.AndGate("k", a, na)
	z := b.OrGate("z", bb, k)
	b.MarkOutput(z)
	return b.MustBuild()
}

func TestConstantLineStuckAt0(t *testing.T) {
	c := stuckCircuit()
	// The implication pass (S001) proves additional faults redundant;
	// disable it to test the constant pass in isolation.
	r := Analyze(c, Options{ImplicationGateLimit: -1})
	consts := r.ByRule(RuleConstantLine)
	if len(consts) != 1 {
		t.Fatalf("want 1 %s finding, got %d: %v", RuleConstantLine, len(consts), r.Findings)
	}
	if consts[0].Name != "k" || consts[0].Severity != Error {
		t.Errorf("unexpected constant finding: %+v", consts[0])
	}
	k, _ := c.GateByName("k")
	want := fault.Fault{Gate: k, Pin: -1, Stuck: false}
	un := r.Untestable()
	if len(un) != 1 || un[0] != want {
		t.Errorf("untestable = %v, want [%v]", un, want)
	}
	if !r.HasErrors() {
		t.Error("report with a constant line must have errors")
	}
}

func TestConstantXorPair(t *testing.T) {
	b := netlist.NewBuilder("xorpair")
	a := b.Input("a")
	x := b.XorGate("x", a, a)  // constant 0
	y := b.XnorGate("y", a, a) // constant 1
	z := b.OrGate("z", x, y)   // constant 1
	b.MarkOutput(z)
	c := b.MustBuild()
	r := Analyze(c, Options{})
	byName := map[string]bool{}
	for _, f := range r.ByRule(RuleConstantLine) {
		byName[f.Name] = true
	}
	for _, want := range []string{"x", "y", "z"} {
		if !byName[want] {
			t.Errorf("expected constant finding on %s; findings: %v", want, r.Findings)
		}
	}
}

// TestConstantPropagationThroughControllingInput checks that a proven
// constant forces downstream gates through controlling values.
func TestConstantPropagationThroughControllingInput(t *testing.T) {
	b := netlist.NewBuilder("chain")
	a := b.Input("a")
	bb := b.Input("b")
	na := b.NotGate("na", a)
	k := b.AndGate("k", a, na) // 0
	m := b.AndGate("m", bb, k) // 0 via controlling input
	n := b.NorGate("n", bb, k) // NOT b: literal, not constant
	z := b.XorGate("z", m, n)  // literal of n
	b.MarkOutput(z)
	c := b.MustBuild()
	r := Analyze(c, Options{})
	constNames := map[string]bool{}
	for _, f := range r.ByRule(RuleConstantLine) {
		constNames[f.Name] = true
	}
	if !constNames["k"] || !constNames["m"] {
		t.Errorf("expected k and m constant, got %v", constNames)
	}
	if constNames["n"] || constNames["z"] {
		t.Errorf("n/z wrongly proven constant: %v", constNames)
	}
}

func TestBranchFaultsUntestableOnFanoutConstant(t *testing.T) {
	b := netlist.NewBuilder("fanoutconst")
	a := b.Input("a")
	bb := b.Input("b")
	na := b.NotGate("na", a)
	k := b.AndGate("k", a, na) // constant 0, fans out twice
	u := b.OrGate("u", bb, k)
	v := b.OrGate("v", a, k)
	b.MarkOutput(u)
	b.MarkOutput(v)
	c := b.MustBuild()
	r := Analyze(c, Options{ImplicationGateLimit: -1})
	un := r.Untestable()
	// Stem fault plus one branch fault per consumer.
	if len(un) != 3 {
		t.Fatalf("want 3 untestable faults (stem + 2 branches), got %v", un)
	}
	for _, f := range un {
		if f.Stuck {
			t.Errorf("only s-a-0 faults should be untestable here, got %v", f)
		}
	}
	_ = k
}

func TestHygieneFindings(t *testing.T) {
	b := netlist.NewBuilder("hyg")
	a := b.Input("a")
	bb := b.Input("b")
	b.Input("unused")
	dang := b.AndGate("dang", a, bb)
	dup := b.OrGate("dup", a, a)
	z := b.AndGate("z", dup, bb)
	b.MarkOutput(z)
	c := b.MustBuild()
	r := Analyze(c, Options{})
	if got := r.ByRule(RuleUnusedInput); len(got) != 1 || got[0].Name != "unused" {
		t.Errorf("H001: got %v", got)
	}
	deads := r.ByRule(RuleDeadGate)
	if len(deads) != 1 || deads[0].Name != "dang" {
		t.Errorf("H002: got %v", deads)
	}
	if got := r.ByRule(RuleDuplicateFanin); len(got) != 1 || got[0].Name != "dup" {
		t.Errorf("H003: got %v", got)
	}
	_ = dang
}

func TestHighFanoutAndDepthThresholds(t *testing.T) {
	b := netlist.NewBuilder("wide")
	a := b.Input("a")
	bb := b.Input("b")
	prev := b.AndGate("", a, bb)
	for i := 0; i < 4; i++ {
		prev = b.AndGate("", prev, bb)
	}
	b.MarkOutput(prev)
	c := b.MustBuild()
	r := Analyze(c, Options{MaxFanout: 3, MaxDepth: 2})
	if len(r.ByRule(RuleHighFanout)) == 0 {
		t.Errorf("expected a high-fanout finding on b; findings: %v", r.Findings)
	}
	if len(r.ByRule(RuleDeepLogic)) != 1 {
		t.Errorf("expected a deep-logic finding; findings: %v", r.Findings)
	}
	// Disabled thresholds must silence both rules.
	r = Analyze(c, Options{MaxFanout: -1, MaxDepth: -1})
	if len(r.ByRule(RuleHighFanout))+len(r.ByRule(RuleDeepLogic)) != 0 {
		t.Errorf("disabled thresholds still fired: %v", r.Findings)
	}
}

// TestHotspotsKeepHardestStems: with more hard stems than TopStems, T001
// reports the hardest. A threshold of 1 makes every stem of
// dag:gates=200 with a fault short of certain detection hard, far more
// than the 5 kept, so keeping any others shows.
func TestHotspotsKeepHardestStems(t *testing.T) {
	c := gen.RandomDAG(1, 16, 200, gen.DAGOptions{})
	hardProb := func(topStems int) map[int]float64 {
		out := map[int]float64{}
		r := Analyze(c, Options{HardThreshold: 1, TopStems: topStems, ImplicationGateLimit: -1})
		for _, f := range r.ByRule(RuleHardStem) {
			var p float64
			if _, err := fmt.Sscanf(f.Message[strings.Index(f.Message, "detect prob ")+len("detect prob "):], "%e", &p); err != nil {
				t.Fatalf("%q: %v", f.Message, err)
			}
			out[f.Signal] = p
		}
		return out
	}
	all, top := hardProb(1<<20), hardProb(5)
	if len(top) != 5 || len(all) < 50 {
		t.Fatalf("%d stems kept of %d hard, want 5 of at least 50", len(top), len(all))
	}
	kept := 0.0
	for _, p := range top {
		kept = max(kept, p)
	}
	for s, p := range all {
		if _, ok := top[s]; !ok && p < kept {
			t.Errorf("stem %d (prob %g) dropped, but a kept stem has prob %g", s, p, kept)
		}
	}
}

// TestDuplicateConeTransitive checks that structural hashing sees through
// commuted pins and collapses whole duplicated cones, not just leaf gates.
func TestDuplicateConeTransitive(t *testing.T) {
	c := parseFixture(t, "dupcone.bench")
	r := Analyze(c, Options{})
	dups := r.ByRule(RuleDuplicateCone)
	names := map[string]bool{}
	for _, f := range dups {
		names[f.Name] = true
	}
	if !names["u2"] || !names["v2"] {
		t.Errorf("expected duplicate findings on u2 and v2, got %v", dups)
	}
}

func TestFixtureGolden(t *testing.T) {
	cases := []struct {
		file  string
		rules []string // rule IDs that must appear
		clean bool     // no findings above Info
	}{
		{"clean.bench", []string{RuleFFRSummary, RuleReconvergence}, true},
		{"stuck.bench", []string{RuleConstantLine, RuleUntestableFault, RuleConstantShadow}, false},
		{"dupcone.bench", []string{RuleDuplicateCone}, false},
		{"undriven.bench", []string{RuleUnusedInput, RuleDeadGate}, false},
	}
	for _, tc := range cases {
		t.Run(tc.file, func(t *testing.T) {
			r := Analyze(parseFixture(t, tc.file), Options{})
			for _, rule := range tc.rules {
				if len(r.ByRule(rule)) == 0 {
					t.Errorf("missing rule %s; findings: %v", rule, r.Findings)
				}
			}
			if max, ok := r.MaxSeverity(); tc.clean && ok && max > Info {
				t.Errorf("expected only info findings, got %v", r.Findings)
			}
		})
	}
}

func TestReportOrderingAndHelpers(t *testing.T) {
	r := Analyze(parseFixture(t, "stuck.bench"), Options{})
	for i := 1; i < len(r.Findings); i++ {
		if r.Findings[i].Severity > r.Findings[i-1].Severity {
			t.Fatalf("findings not ordered by severity: %v", r.Findings)
		}
	}
	counts := r.CountBySeverity()
	if counts[Error] != 1 {
		t.Errorf("want 1 error, got %d", counts[Error])
	}
	if got := len(r.Filter(Warning)); got != counts[Error]+counts[Warning] {
		t.Errorf("Filter(Warning) returned %d findings", got)
	}
	max, ok := r.MaxSeverity()
	if !ok || max != Error {
		t.Errorf("MaxSeverity = %v, %v", max, ok)
	}
}

func TestSeverityJSONRoundTrip(t *testing.T) {
	for _, s := range []Severity{Info, Warning, Error} {
		b, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		var got Severity
		if err := json.Unmarshal(b, &got); err != nil {
			t.Fatal(err)
		}
		if got != s {
			t.Errorf("round trip %v -> %s -> %v", s, b, got)
		}
		parsed, err := ParseSeverity(s.String())
		if err != nil || parsed != s {
			t.Errorf("ParseSeverity(%q) = %v, %v", s.String(), parsed, err)
		}
	}
	if _, err := ParseSeverity("frob"); err == nil {
		t.Error("expected error for unknown severity")
	}
	var s Severity
	if err := json.Unmarshal([]byte(`42`), &s); err == nil {
		t.Error("expected error for non-string severity")
	}
}

func TestCleanGeneratorsHaveNoErrors(t *testing.T) {
	c := parseFixture(t, "clean.bench")
	r := Analyze(c, Options{})
	if r.HasErrors() {
		t.Errorf("c17 must lint clean: %v", r.Findings)
	}
	if len(r.Untestable()) != 0 {
		t.Errorf("c17 has no untestable faults, lint claims %v", r.Untestable())
	}
}
