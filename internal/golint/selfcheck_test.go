package golint

import "testing"

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
