// Package golint is the self-hosted Go analyzer: a static-analysis
// framework over the repository's own source that enforces the engine
// contracts the netlist analyzer (internal/lint) cannot see. Where
// internal/lint proves properties of circuits, golint proves properties
// of the code that manipulates them — the same tests-as-proofs stance,
// one level up.
//
// The framework is stdlib-only: a hand-rolled driver (see Loader) loads
// and type-checks every package in the module with go/parser and
// go/types, then runs a set of analyzers over the typed syntax. Each
// analyzer encodes one repo invariant that the Go toolchain's own
// checks (go vet, the -race test job) do not cover, and each has either
// caught a real defect in this tree or guards a repo-specific contract:
//
//	G001 nondeterministic-iteration  map iteration order leaking into
//	     output or collected slices — the bug class that breaks the
//	     byte-identical replay contract of the internal/serve cache
//	G002 exit-contract               os.Exit / log.Fatal outside func
//	     main, and exit codes that bypass internal/cli.ExitCode
//	G003 context-discipline          engine entry points that drop or
//	     shadow their context.Context, and context.Background() outside
//	     the sanctioned compat-wrapper shape
//	G004 impure-engine               wall-clock, global RNG, or
//	     environment reads inside deterministic engine packages, modulo
//	     the vetted package allowlist (see allowlist.go)
//	G005 error-hygiene               discarded error returns and
//	     fmt.Errorf wrapping a live error without %w
//
// Every rule judges one file at a time: golint has no call graph and
// no interprocedural dataflow. Five contracts that once had
// whole-module rules are held by behavioural tests on the running
// code instead: the allocation-free measured loops by the
// testing.AllocsPerRun tests in fsim, atpg, tpi and implic; the
// request deadline by TestEndpointTimeouts in internal/serve; cache-key
// soundness by the reflection-driven perturbation test in
// internal/serve/keysound_test.go; the event stream and error
// responses by the writer-level tests in internal/serve/writer_test.go;
// and job-store durability by the crash-state enumeration in
// internal/jobs/crash_test.go.
//
// Findings mirror the internal/lint model — stable rule IDs, the same
// Severity scale, a locus, and a fix hint — so cmd/lint and
// cmd/codelint feel like one system pointed at two artifact kinds.
package golint

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/lint"
)

// Severity is the shared grading scale; golint reuses the internal/lint
// type so the two linters agree on names, ordering, and JSON encoding.
type Severity = lint.Severity

// Severities, re-exported so golint analyzers read naturally.
const (
	Info    = lint.Info
	Warning = lint.Warning
	Error   = lint.Error
)

// ParseSeverity resolves a severity name ("info", "warning", "error").
func ParseSeverity(s string) (Severity, error) { return lint.ParseSeverity(s) }

// Stable rule identifiers. Like the lint.Rule* constants these are part
// of the output contract: CI filters and goldens key on them, so
// existing IDs must never be renumbered. G006, G007, G008, G009, G010,
// G011, G012, G013, G014, G015 and G016 are retired (doc-comment,
// alloc-hot-path, goroutine-discipline, lock-discipline,
// worker-state-sharing, cache-key-soundness, cancellation-reachability,
// engine-output-purity, resource-lifecycle, durability-discipline and
// streaming-discipline) and must never be reused for a new rule.
const (
	// RuleNondetIteration: map iteration order leaks into output.
	RuleNondetIteration = "G001"
	// RuleExitContract: process exit outside func main, or an exit code
	// that bypasses internal/cli.ExitCode.
	RuleExitContract = "G002"
	// RuleContextDiscipline: a context.Context argument dropped or
	// shadowed, or a fresh root context outside a compat wrapper.
	RuleContextDiscipline = "G003"
	// RuleImpureEngine: wall-clock, global RNG, or environment read
	// inside a deterministic engine package.
	RuleImpureEngine = "G004"
	// RuleErrorHygiene: discarded error return, or fmt.Errorf wrapping
	// an error value without %w.
	RuleErrorHygiene = "G005"
)

// Finding is one diagnostic produced by an analyzer.
type Finding struct {
	// Rule is the stable rule ID (one of the Rule* constants).
	Rule string `json:"rule"`
	// Severity grades the finding.
	Severity Severity `json:"severity"`
	// Package is the import path of the package the finding is in.
	Package string `json:"package"`
	// File is the module-root-relative path (forward slashes).
	File string `json:"file"`
	// Line and Col are the 1-based position of the offending node.
	Line int `json:"line"`
	Col  int `json:"col"`
	// Message describes the defect.
	Message string `json:"message"`
	// Hint suggests a fix, when one is known.
	Hint string `json:"hint,omitempty"`
}

// String renders the finding in the conventional compiler one-liner.
func (f Finding) String() string {
	s := fmt.Sprintf("%s:%d:%d: %s %s: %s", f.File, f.Line, f.Col, f.Severity, f.Rule, f.Message)
	if f.Hint != "" {
		s += " (" + f.Hint + ")"
	}
	return s
}

// Analyzer is one named pass over a type-checked package.
type Analyzer struct {
	// ID is the stable rule ID every finding of this analyzer carries.
	ID string
	// Name is the short kebab-case analyzer name.
	Name string
	// Doc is the one-line description shown in tool help.
	Doc string
	// Severity is the gravest severity the analyzer emits, shown by
	// `codelint -list` so the registry listing matches the gate math.
	Severity Severity
	// Run inspects one package and returns its findings (unsorted; the
	// driver orders the aggregate).
	Run func(*Pass) []Finding
}

// Analyzers returns the full registry in rule-ID order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		analyzerG001(),
		analyzerG002(),
		analyzerG003(),
		analyzerG004(),
		analyzerG005(),
	}
}

// Select returns the analyzers whose IDs appear in ids (matched
// case-insensitively). Unknown IDs are reported so callers can reject
// typos instead of silently running nothing.
func Select(all []*Analyzer, ids []string) ([]*Analyzer, error) {
	want := make(map[string]bool, len(ids))
	for _, id := range ids {
		want[strings.ToUpper(strings.TrimSpace(id))] = true
	}
	var out []*Analyzer
	for _, a := range all {
		if want[a.ID] {
			out = append(out, a)
			delete(want, a.ID)
		}
	}
	if len(want) > 0 {
		unknown := make([]string, 0, len(want))
		for id := range want {
			unknown = append(unknown, id)
		}
		sort.Strings(unknown)
		return nil, fmt.Errorf("unknown rule(s): %s", strings.Join(unknown, ", "))
	}
	return out, nil
}

// Report is the result of one Run: every finding from every analyzer
// over every package, in deterministic order.
type Report struct {
	// Module is the analyzed module's path.
	Module string `json:"module"`
	// Findings, ordered by file, line, column, then rule.
	Findings []Finding `json:"findings"`
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

// Run executes every analyzer over every package and returns the
// ordered report. Packages are inspected in the order given; the final
// finding order is position-sorted and independent of it.
func Run(l *Loader, pkgs []*Package, analyzers []*Analyzer) *Report {
	r := &Report{Module: l.ModPath}
	for _, pkg := range pkgs {
		pass := &Pass{Loader: l, Pkg: pkg}
		for _, a := range analyzers {
			r.Findings = append(r.Findings, a.Run(pass)...)
		}
	}
	sortFindings(r.Findings)
	return r
}

// sortFindings orders by file, then position, then rule ID — the stable
// contract the JSON goldens pin.
func sortFindings(fs []Finding) {
	sort.SliceStable(fs, func(i, j int) bool {
		a, b := fs[i], fs[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Rule < b.Rule
	})
}
