package golint

import (
	"go/ast"
	"testing"
)

// TestSelfCheckRepoClean is the self-hosting gate: the analyzers run
// over the entire module and the tree must be clean at warning
// severity. Anything Info-level is reported for visibility but does
// not fail — G005's %w suggestions are advisory by design.
//
// If this test fails after a legitimate, vetted change (say, a new
// timing source in a metrics path), the fix is an entry in the
// allowlist tables in allowlist.go — never a relaxation here.
func TestSelfCheckRepoClean(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-module type-check is not short")
	}
	l, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := l.Load("./...")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) < 30 {
		t.Fatalf("loaded only %d packages; the module walk looks broken", len(pkgs))
	}
	rep := Run(l, pkgs, Analyzers())
	for _, f := range rep.Filter(Warning) {
		t.Errorf("repo not clean: %s", f)
	}
	for _, f := range rep.Filter(Info) {
		t.Logf("info: %s", f)
	}
}

// TestAllowlistPinned pins the vetted impurity allowlist: these are the
// only sanctioned impurities in the engine tree, and each must remain
// load-bearing (removing the code it covers should shrink this table,
// not silently orphan it).
func TestAllowlistPinned(t *testing.T) {
	want := map[string][]string{
		"internal/serve": {"time.Now", "time.Since"},
		"internal/exp":   {"time.Now", "time.Since"},
		"internal/perf":  {"time.Now", "time.Since"},
	}
	if len(impureAllowlist) != len(want) {
		t.Errorf("allowlist covers %d packages, want %d", len(impureAllowlist), len(want))
	}
	for pkg, symbols := range want {
		for _, s := range symbols {
			if !allowedImpurity("repro/"+pkg, s) {
				t.Errorf("allowlist lost %s for %s", s, pkg)
			}
		}
	}
	if allowedImpurity("repro/internal/fsim", "time.Now") {
		t.Error("time.Now must not be allowlisted for fsim")
	}
	if allowedImpurity("repro/internal/serve", "rand.Intn") {
		t.Error("the global RNG is never allowlisted")
	}
}

// TestEngineOptionStructsPinned pins the G011 audit surface: the five
// engine option structs the serve run closures hand across, plus the
// fixture. internal/lint.Options stays out by decision — /v1/lint runs
// at defaults and its report is advisory.
func TestEngineOptionStructsPinned(t *testing.T) {
	want := map[string]bool{
		"internal/fsim.Options":             true,
		"internal/atpg.Options":             true,
		"internal/implic.Options":           true,
		"internal/tpi.CPOptions":            true,
		"internal/tpi.OPOptions":            true,
		"testdata/codelint/g011.EngineOpts": true,
		"internal/lint.Options":             false,
		"internal/serve.planOptions":        false,
	}
	declared := 0
	for _, e := range engineOptionStructs {
		declared++
		if !want[e.pkg+"."+e.typ] {
			t.Errorf("unexpected engineOptionStructs entry %s.%s", e.pkg, e.typ)
		}
	}
	if declared != 6 {
		t.Errorf("engineOptionStructs declares %d structs, want 6 — update this pin together with the table", declared)
	}
	if !isEngineOptionStruct("repro/internal/atpg", "Options") {
		t.Error("engineOptionStructs lost atpg.Options")
	}
	if isEngineOptionStruct("repro/internal/lint", "Options") {
		t.Error("lint.Options joined the audit surface without a request surface — revisit the decision in allowlist.go")
	}
}

// TestCacheKeyFieldAllowlistPinned pins the vetted zero-default fields
// and their justifications.
func TestCacheKeyFieldAllowlistPinned(t *testing.T) {
	want := map[string]bool{
		"internal/tpi.CPOptions.COP":               true,
		"internal/tpi.OPOptions.COP":               true,
		"internal/implic.Options.LearnRounds":      true,
		"testdata/codelint/g011.EngineOpts.Tuning": true,
	}
	if len(cacheKeyFieldAllowlist) != len(want) {
		t.Errorf("cacheKeyFieldAllowlist has %d entries, want %d — update this pin together with the table", len(cacheKeyFieldAllowlist), len(want))
	}
	for _, e := range cacheKeyFieldAllowlist {
		if !want[e.pkg+"."+e.typ+"."+e.field] {
			t.Errorf("unexpected allowlist entry %s.%s.%s", e.pkg, e.typ, e.field)
		}
		if e.why == "" {
			t.Errorf("allowlist entry %s.%s.%s carries no justification", e.pkg, e.typ, e.field)
		}
	}
	if cacheKeyFieldAllowed("repro/internal/atpg", "Options", "Learn") {
		t.Error("atpg.Options.Learn is fed by serve and must never be pinned as a constant")
	}
	if !keyExemptField("timeout_ms", "TimeoutMS") || len(keyExemptFields) != 1 {
		t.Error("keyExemptFields must vet exactly timeout_ms (transport concerns only)")
	}
	if keyExemptField("seed", "Seed") {
		t.Error("seed changes engine results and must never be key-exempt")
	}
}

// TestAllowlistLoadBearing asserts the serve/exp allowlist entries
// still cover real call sites: running G004 with the allowlist
// bypassed must flag time.Now there. This keeps the table honest — a
// stale entry fails here and gets removed.
func TestAllowlistLoadBearing(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks serve and exp")
	}
	l, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{"repro/internal/serve", "repro/internal/exp", "repro/internal/perf"} {
		pkgs, err := l.Load(path)
		if err != nil {
			t.Fatal(err)
		}
		rep := Run(l, pkgs, Analyzers())
		if n := len(rep.ByRule(RuleImpureEngine)); n != 0 {
			t.Errorf("%s: %d G004 findings despite allowlist", path, n)
		}
		// The entries are load-bearing: the packages really do call the
		// allowlisted symbols.
		found := false
		for _, file := range pkgs[0].Files {
			for _, imp := range file.Imports {
				if imp.Path.Value == `"time"` {
					found = true
				}
			}
		}
		if !found {
			t.Errorf("%s no longer imports time; drop its allowlist entry", path)
		}
	}
}

// TestDurabilityPackagesPinned pins the G015 scope: the job journal
// package and the rule's own fixture, each with a written reason.
// Scoping is opt-in because the discipline only makes sense for state
// a process must trust after a crash.
func TestDurabilityPackagesPinned(t *testing.T) {
	if len(durabilityPackages) != 2 {
		t.Errorf("durabilityPackages has %d entries, want 2 — update this pin together with the table", len(durabilityPackages))
	}
	for _, e := range durabilityPackages {
		if e.why == "" {
			t.Errorf("durability entry %s carries no justification", e.pkg)
		}
	}
	for _, pkg := range []string{"repro/internal/jobs", "repro/testdata/codelint/g015"} {
		if !isDurabilityPackage(pkg) {
			t.Errorf("durabilityPackages lost %s", pkg)
		}
	}
	if isDurabilityPackage("repro/internal/serve") {
		t.Error("serve holds no durable state; G015 must not apply to it")
	}
	if isDurabilityPackage("repro/internal/exp") {
		t.Error("exp writes reports, not journals; G015 must not apply to it")
	}
}

// TestDurabilityPackagesLoadBearing asserts the internal/jobs entry
// still covers live durability surface: the package renames blobs into
// place, owns a directory-syncing helper the fixpoint recognizes, and
// passes the rule it is scoped into.
func TestDurabilityPackagesLoadBearing(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks jobs")
	}
	l, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := l.Load("repro/internal/jobs")
	if err != nil {
		t.Fatal(err)
	}
	rep := Run(l, pkgs, Analyzers())
	if n := len(rep.ByRule(RuleDurabilityDiscipline)); n != 0 {
		t.Errorf("jobs: %d G015 findings; the scoped package must satisfy its own discipline:\n%v", n, rep.ByRule(RuleDurabilityDiscipline))
	}
	m := newModuleFacts(l, pkgs)
	syncer := false
	for fn := range m.dirSyncSummaries() {
		if fn.Name() == "syncDir" {
			syncer = true
		}
	}
	if !syncer {
		t.Error("jobs no longer owns a recognized directory-sync helper; the G015 scope entry has gone stale")
	}
	renames := 0
	for _, file := range pkgs[0].Files {
		ast.Inspect(file, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok && sel.Sel.Name == "Rename" {
				renames++
			}
			return true
		})
	}
	if renames == 0 {
		t.Error("jobs no longer renames files into place; revisit its durabilityPackages entry")
	}
}
