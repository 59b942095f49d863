package lint

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/gen"
	"repro/internal/netlist"
)

// blockedCircuit: n1 = AND(a,b); z = OR(n1, a). Exciting n1 s-a-0 needs
// n1=1, which implies a=1, the controlling value at the dominator z: the
// fault is redundant but no line is constant, so only S001 can see it.
func blockedCircuit() *netlist.Circuit {
	b := netlist.NewBuilder("blocked")
	a := b.Input("a")
	x := b.Input("b")
	n1 := b.AndGate("n1", a, x)
	z := b.OrGate("z", n1, a)
	b.MarkOutput(z)
	return b.MustBuild()
}

func TestStaticRedundantFinding(t *testing.T) {
	c := blockedCircuit()
	r := Analyze(c, Options{})
	s001 := r.ByRule(RuleStaticRedundant)
	if len(s001) == 0 {
		t.Fatalf("expected S001 findings, report: %v", r.Findings)
	}
	n1, _ := c.GateByName("n1")
	want := fault.Fault{Gate: n1, Pin: -1, Stuck: false}
	found := false
	for _, f := range r.Untestable() {
		if f == want {
			found = true
		}
	}
	if !found {
		t.Errorf("n1 s-a-0 missing from Untestable(): %v", r.Untestable())
	}
	// No constant line exists here, so C001/C002 must stay silent: S001
	// is strictly stronger than the constant pass on this circuit.
	if n := len(r.ByRule(RuleConstantLine)) + len(r.ByRule(RuleUntestableFault)); n != 0 {
		t.Errorf("constant pass produced %d findings on a constant-free circuit", n)
	}
}

// TestAnalyzeContext: a live context reproduces Analyze, and a done one
// stops the static pass with the context's error and no report.
func TestAnalyzeContext(t *testing.T) {
	c := blockedCircuit()
	got, err := AnalyzeContext(context.Background(), c, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if want := Analyze(c, Options{}); !reflect.DeepEqual(got, want) {
		t.Errorf("AnalyzeContext = %v, Analyze = %v", got.Findings, want.Findings)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if r, err := AnalyzeContext(ctx, c, Options{}); r != nil || !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled AnalyzeContext = %v, %v; want nil, context.Canceled", r, err)
	}
}

// TestAnalyzeContextDeadlineInRedundancyPass: mul:width=40 builds its
// implication engine in about 20 ms and proves redundancy for about
// 0.5 s, so a 100 ms deadline strikes in the proofs, which must end the
// analysis with context.DeadlineExceeded.
func TestAnalyzeContextDeadlineInRedundancyPass(t *testing.T) {
	c := gen.Multiplier(40)
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	r, err := AnalyzeContext(ctx, c, Options{ImplicationGateLimit: c.NumGates()})
	if r != nil || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("AnalyzeContext = %v, %v; want nil, context.DeadlineExceeded", r, err)
	}
	if d := time.Since(start); d > 350*time.Millisecond {
		t.Errorf("deadline of 100ms honoured after %v", d)
	}
}

func TestStaticPassExtendsConstantUntestables(t *testing.T) {
	c := stuckCircuit()
	constOnly := Analyze(c, Options{ImplicationGateLimit: -1}).Untestable()
	full := Analyze(c, Options{}).Untestable()
	if len(full) <= len(constOnly) {
		t.Errorf("implication pass found nothing beyond the constant pass: %d vs %d", len(full), len(constOnly))
	}
	set := make(map[fault.Fault]bool)
	for _, f := range full {
		set[f] = true
	}
	for _, f := range constOnly {
		if !set[f] {
			t.Errorf("constant-pass fault %v lost by the full analysis", f)
		}
	}
	// No duplicates: findings and untestable list stay one-per-fault.
	if len(set) != len(full) {
		t.Errorf("Untestable() contains duplicates: %v", full)
	}
}

func TestCollapsibleSiteFinding(t *testing.T) {
	// g = AND(a,b) feeds only an inverter: observing g is observing z.
	b := netlist.NewBuilder("collapse")
	a := b.Input("a")
	x := b.Input("b")
	g := b.AndGate("g", a, x)
	z := b.NotGate("z", g)
	b.MarkOutput(z)
	c := b.MustBuild()
	r := Analyze(c, Options{})
	hit := false
	for _, f := range r.ByRule(RuleCollapsibleSite) {
		if f.Name == "g" {
			hit = true
			if f.Severity != Info {
				t.Errorf("S002 must be Info, got %v", f.Severity)
			}
		}
		// Primary inputs a and b also each feed exactly one gate, but
		// their dominators are AND-typed, so they must not be flagged.
		if f.Name == "a" || f.Name == "b" {
			t.Errorf("S002 wrongly flagged %s (dominator is not Buf/Not)", f.Name)
		}
	}
	if !hit {
		t.Errorf("expected S002 on g, findings: %v", r.Findings)
	}
}

func TestStaticPassGateLimit(t *testing.T) {
	c := blockedCircuit()
	r := Analyze(c, Options{ImplicationGateLimit: 2}) // below NumGates
	if n := len(r.ByRule(RuleStaticRedundant)); n != 0 {
		t.Errorf("pass must be skipped above the gate limit, got %d S001 findings", n)
	}
	if n := len(Analyze(c, Options{ImplicationGateLimit: -1}).ByRule(RuleStaticRedundant)); n != 0 {
		t.Errorf("negative limit must disable the pass, got %d S001 findings", n)
	}
}

func TestStaticPassSilentOnC17(t *testing.T) {
	r := Analyze(gen.C17(), Options{})
	if n := len(r.ByRule(RuleStaticRedundant)); n != 0 {
		t.Errorf("c17 is fully testable; got %d S001 findings", n)
	}
}
