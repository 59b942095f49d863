package golint

import "strings"

// The allowlist tables below are the single maintained source of truth
// for which packages the engine-contract analyzers cover and which
// vetted impurities they tolerate. Changing repo policy means editing a
// table here (and the self-check test that pins it) — never sprinkling
// per-site suppression comments through the tree.

// engineContextPackages are the packages whose exported entry points
// must thread context.Context end to end (G003): creating a fresh root
// context there is only legal inside a single-return compat wrapper.
// The testdata entry keeps the rule's golden fixture honest.
var engineContextPackages = []string{
	"internal/fsim",
	"internal/atpg",
	"internal/tpi",
	"internal/exp",
	"testdata/codelint/g003",
}

// deterministicExtraPackages extends G004's deterministic-engine set
// (every package under internal/) with paths outside internal/ that
// must obey the same purity contract.
var deterministicExtraPackages = []string{
	"testdata/codelint/g004",
}

// isDeterministicPackage reports whether G004 applies to the package:
// the whole internal/ tree plus the table above. Engine results must be
// a pure function of their inputs — the serve cache replays them
// byte-identically, so a wall-clock read or global-RNG draw inside an
// engine is a cache-poisoning bug, not a style issue.
func isDeterministicPackage(path string) bool {
	if pathMatchesAny(path, deterministicExtraPackages) {
		return true
	}
	for _, seg := range strings.Split(path, "/") {
		if seg == "internal" {
			return true
		}
	}
	return false
}

// impureAllowlist enumerates the vetted impurities per package (keyed
// by path suffix, values are "pkg/path.Name" symbols). Every entry
// documents why the impurity cannot poison cached engine results.
var impureAllowlist = map[string][]string{
	// serve measures request latency for its metrics endpoints; the
	// timings feed /v1/stats only, never a cached engine response body.
	"internal/serve": {"time.Now", "time.Since"},
	// exp reports wall-clock runtime as an experiment column; timing is
	// the measurement itself, not state any engine result depends on.
	"internal/exp": {"time.Now", "time.Since"},
	// perf is the benchmark harness: wall-clock reads are its entire
	// purpose, and its reports are never cached engine results.
	"internal/perf": {"time.Now", "time.Since"},
}

// allowedImpurity reports whether the qualified symbol (e.g.
// "time.Now") is allowlisted for the package.
func allowedImpurity(pkgPath, symbol string) bool {
	for suffix, symbols := range impureAllowlist {
		if pkgPath == suffix || pathMatchesAny(pkgPath, []string{suffix}) {
			for _, s := range symbols {
				if s == symbol {
					return true
				}
			}
		}
	}
	return false
}
