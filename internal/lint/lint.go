// Package lint is the static netlist analyzer: a multi-pass inspection of
// a validated Circuit that produces typed findings without applying a
// single simulation pattern. It is the cheap preprocessing gate in front
// of the fault simulator, the ATPG engine and the test point planners —
// structural defects it catches (constant lines, duplicate cones, dead
// logic) waste planner budget on faults that are structurally
// undetectable.
//
// The passes, in order:
//
//  1. invariants — re-checks the Circuit structural invariants (Validate)
//  2. hygiene    — unused inputs, dead gates, duplicate fanin pins,
//     pathological fanout and depth
//  3. constants  — literal-aware constant propagation proving lines stuck
//     at 0/1 and enumerating the stuck-at faults that makes untestable
//  4. duplicates — structural hashing of isomorphic cones (redundancy
//     suspects)
//  5. hotspots   — COP-based random-pattern-resistance ranking of FFR
//     stems (the candidates the TPI planners should target)
//  6. structure  — fanout-free region and reconvergence reporting, so
//     users know whether the exact DP or the FFR heuristics apply
//
// Every finding carries a stable rule ID (see the Rule* constants), a
// severity, a signal locus and a fix hint. Analyze never mutates the
// circuit.
package lint

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/fault"
	"repro/internal/netlist"
)

// Severity grades a finding.
type Severity uint8

// Severities, in increasing order of gravity. Error findings denote
// structure that makes parts of the circuit untestable or violates the
// netlist invariants; tools running with -lint reject such circuits.
const (
	Info Severity = iota
	Warning
	Error
)

var severityNames = [...]string{Info: "info", Warning: "warning", Error: "error"}

// String returns the lower-case severity name.
func (s Severity) String() string {
	if int(s) < len(severityNames) {
		return severityNames[s]
	}
	return fmt.Sprintf("Severity(%d)", uint8(s))
}

// MarshalJSON encodes the severity as its name string, the stable form
// consumers of `cmd/lint -json` match on.
func (s Severity) MarshalJSON() ([]byte, error) {
	return []byte(`"` + s.String() + `"`), nil
}

// UnmarshalJSON decodes a severity name string.
func (s *Severity) UnmarshalJSON(b []byte) error {
	if len(b) < 2 || b[0] != '"' || b[len(b)-1] != '"' {
		return fmt.Errorf("malformed severity %s", b)
	}
	v, err := ParseSeverity(string(b[1 : len(b)-1]))
	if err != nil {
		return err
	}
	*s = v
	return nil
}

// ParseSeverity resolves a severity name ("info", "warning", "error").
func ParseSeverity(s string) (Severity, error) {
	for sev, name := range severityNames {
		if s == name {
			return Severity(sev), nil
		}
	}
	return 0, fmt.Errorf("unknown severity %q (want info|warning|error)", s)
}

// Stable rule identifiers. These are part of the tool's output contract:
// tests, CI filters and downstream consumers key on them, so existing IDs
// must never be renumbered.
const (
	// RuleInvariant: the circuit violates a netlist structural invariant.
	RuleInvariant = "V001"
	// RuleUnusedInput: a primary input drives no gate and no output.
	RuleUnusedInput = "H001"
	// RuleDeadGate: a gate with no structural path to any primary output.
	RuleDeadGate = "H002"
	// RuleDuplicateFanin: a gate consumes the same signal on two pins.
	RuleDuplicateFanin = "H003"
	// RuleHighFanout: a signal's fanout exceeds the configured bound.
	RuleHighFanout = "H004"
	// RuleDeepLogic: the circuit depth exceeds the configured bound.
	RuleDeepLogic = "H005"
	// RuleConstantLine: a signal is structurally proven constant.
	RuleConstantLine = "C001"
	// RuleUntestableFault: a stuck-at fault proven undetectable by the
	// constant-propagation pass (redundant by construction).
	RuleUntestableFault = "C002"
	// RuleConstantShadow: a non-constant gate whose every consumer is
	// proven constant (constant-implied dead logic).
	RuleConstantShadow = "C003"
	// RuleDuplicateCone: a gate computes the same function as an earlier
	// gate over the same (canonicalized) fanin cone.
	RuleDuplicateCone = "R001"
	// RuleHardStem: an FFR stem ranked random-pattern-resistant by COP.
	RuleHardStem = "T001"
	// RuleFFRSummary: fanout-free region statistics.
	RuleFFRSummary = "F001"
	// RuleReconvergence: reconvergent fanout present (exact cut DP
	// inapplicable) or absent (exact DP optimal).
	RuleReconvergence = "F002"
	// RuleStaticRedundant: a stuck-at fault proven untestable by the
	// static implication engine (dominator-blocked propagation or
	// implication-derived constants; strictly stronger than C002).
	RuleStaticRedundant = "S001"
	// RuleCollapsibleSite: a single-fanout signal whose immediate
	// dominator is a buffer/inverter, so one observation point covers
	// both lines.
	RuleCollapsibleSite = "S002"
)

// Finding is one diagnostic produced by a lint pass.
type Finding struct {
	// Rule is the stable rule ID (one of the Rule* constants).
	Rule string `json:"rule"`
	// Severity grades the finding.
	Severity Severity `json:"severity"`
	// Signal is the gate/signal ID the finding is anchored to, or -1 for
	// circuit-wide findings.
	Signal int `json:"signal"`
	// Name is the signal name for anchored findings, "" otherwise.
	Name string `json:"name,omitempty"`
	// Message describes the defect.
	Message string `json:"message"`
	// Hint suggests a fix or follow-up, when one is known.
	Hint string `json:"hint,omitempty"`
}

// String renders the finding in the conventional one-line compiler form.
func (f Finding) String() string {
	locus := ""
	if f.Signal >= 0 {
		locus = fmt.Sprintf(" %s:", f.Name)
	}
	s := fmt.Sprintf("%s %s:%s %s", f.Severity, f.Rule, locus, f.Message)
	if f.Hint != "" {
		s += " (" + f.Hint + ")"
	}
	return s
}

// Options configures the analyzer. The zero value runs every pass with
// the default thresholds.
type Options struct {
	// MaxFanout flags signals whose fanout exceeds this bound
	// (0 = default 64, negative = disabled).
	MaxFanout int
	// MaxDepth flags circuits deeper than this bound
	// (0 = default 512, negative = disabled).
	MaxDepth int
	// HardThreshold is the COP detection probability below which a fault
	// counts as random-pattern resistant (0 = default 1e-3).
	HardThreshold float64
	// TopStems bounds how many hard FFR stems are reported
	// (0 = default 5, negative = disabled).
	TopStems int
	// InputProb optionally gives P(input=1) per primary input for the COP
	// pass, as in testability.COPOptions.
	InputProb []float64
	// ImplicationGateLimit bounds the circuit size for the static
	// implication pass (S001/S002), whose learning sweep is roughly
	// quadratic in gate count (0 = default 3000, negative = disabled).
	ImplicationGateLimit int
}

func (o *Options) defaults() {
	if o.MaxFanout == 0 {
		o.MaxFanout = 64
	}
	if o.MaxDepth == 0 {
		o.MaxDepth = 512
	}
	if o.HardThreshold == 0 {
		o.HardThreshold = 1e-3
	}
	if o.TopStems == 0 {
		o.TopStems = 5
	}
}

// Report is the result of one Analyze run.
type Report struct {
	// Circuit is the analyzed circuit's name.
	Circuit string `json:"circuit"`
	// Findings, ordered by severity (most severe first), then rule, then
	// signal ID.
	Findings []Finding `json:"findings"`
	// untestable lists the stuck-at faults the constant pass proved
	// structurally undetectable.
	untestable []fault.Fault
}

// Untestable returns the stuck-at faults proven structurally undetectable
// (a subset of the uncollapsed universe; each is redundant by
// construction, which the tests confirm against PODEM).
func (r *Report) Untestable() []fault.Fault {
	return append([]fault.Fault(nil), r.untestable...)
}

// CountBySeverity returns how many findings carry each severity.
func (r *Report) CountBySeverity() map[Severity]int {
	out := make(map[Severity]int)
	for _, f := range r.Findings {
		out[f.Severity]++
	}
	return out
}

// MaxSeverity returns the gravest severity present and false when the
// report is empty.
func (r *Report) MaxSeverity() (Severity, bool) {
	if len(r.Findings) == 0 {
		return 0, false
	}
	max := r.Findings[0].Severity
	for _, f := range r.Findings {
		if f.Severity > max {
			max = f.Severity
		}
	}
	return max, true
}

// HasErrors reports whether any Error-severity finding is present.
func (r *Report) HasErrors() bool {
	s, ok := r.MaxSeverity()
	return ok && s >= Error
}

// Filter returns the findings at or above the given severity, in report
// order.
func (r *Report) Filter(min Severity) []Finding {
	var out []Finding
	for _, f := range r.Findings {
		if f.Severity >= min {
			out = append(out, f)
		}
	}
	return out
}

// ByRule returns the findings carrying the given rule ID, in report
// order.
func (r *Report) ByRule(rule string) []Finding {
	var out []Finding
	for _, f := range r.Findings {
		if f.Rule == rule {
			out = append(out, f)
		}
	}
	return out
}

// Analyze runs every lint pass over the circuit and returns the ordered
// report. The circuit is not modified.
func Analyze(c *netlist.Circuit, opts Options) *Report {
	r, err := AnalyzeContext(context.Background(), c, opts)
	if err != nil {
		panic(err) // unreachable: the background context is never done
	}
	return r
}

// AnalyzeContext is Analyze with cancellation. The static implication
// pass (S001/S002), the only one that grows faster than the circuit,
// builds its engine through implic.NewContext and proves redundancy
// through Engine.RedundantContext; once ctx is done it returns nil and
// ctx.Err().
func AnalyzeContext(ctx context.Context, c *netlist.Circuit, opts Options) (*Report, error) {
	opts.defaults()
	r := &Report{Circuit: c.Name()}

	// Pass 1: invariants. A Circuit that fails its own invariants makes
	// the structural passes unreliable, so report and stop early.
	if err := c.Validate(); err != nil {
		r.Findings = append(r.Findings, Finding{
			Rule:     RuleInvariant,
			Severity: Error,
			Signal:   -1,
			Message:  fmt.Sprintf("circuit violates netlist invariants: %v", err),
			Hint:     "rebuild the circuit through netlist.Builder",
		})
		return r, nil
	}

	checkHygiene(c, opts, r)
	checkConstants(c, r)
	if err := checkStatic(ctx, c, opts, r); err != nil {
		return nil, err
	}
	checkDuplicateCones(c, r)
	checkHotspots(c, opts, r)
	checkStructure(c, r)

	sortFindings(r.Findings)
	return r, nil
}

// sortFindings orders most-severe first, then by rule ID, then by signal.
func sortFindings(fs []Finding) {
	sort.SliceStable(fs, func(i, j int) bool {
		a, b := fs[i], fs[j]
		if a.Severity != b.Severity {
			return a.Severity > b.Severity
		}
		if a.Rule != b.Rule {
			return a.Rule < b.Rule
		}
		return a.Signal < b.Signal
	})
}
