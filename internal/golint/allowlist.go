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

// engineOptionStructs pins the option structs whose fields G011 audits
// against the cache-key canonicalization: every struct the serve run
// closures hand to an engine. internal/lint.Options is deliberately
// absent — /v1/lint runs it at defaults and its report is advisory;
// adding it is a one-line policy change here when lint options get a
// request surface. The testdata entry keeps the rule's golden fixture
// honest.
var engineOptionStructs = []struct {
	pkg, typ string
}{
	{"internal/fsim", "Options"},
	{"internal/atpg", "Options"},
	{"internal/implic", "Options"},
	{"internal/tpi", "CPOptions"},
	{"internal/tpi", "OPOptions"},
	{"testdata/codelint/g011", "EngineOpts"},
}

// isEngineOptionStruct reports whether the named struct is pinned for
// G011 feed tracking.
func isEngineOptionStruct(pkgPath, typ string) bool {
	for _, e := range engineOptionStructs {
		if e.typ == typ && pathMatchesAny(pkgPath, []string{e.pkg}) {
			return true
		}
	}
	return false
}

// cacheKeyFieldAllowlist vets engine option fields that are read on the
// serve path but deliberately pinned at their zero-value defaults —
// constant inputs cannot split or poison the cache. The allowlist only
// holds while no feed exists: feeding a listed field from unkeyed data
// re-raises the error (see g011.go).
var cacheKeyFieldAllowlist = []struct {
	pkg, typ, field, why string
}{
	{"internal/tpi", "CPOptions", "COP",
		"serve pins COP tuning to its zero-value defaults; a constant cannot split the cache"},
	{"internal/tpi", "OPOptions", "COP",
		"serve pins COP tuning to its zero-value defaults; a constant cannot split the cache"},
	{"internal/implic", "Options", "LearnRounds",
		"serve pins the contrapositive-learning depth to the engine default; constant input"},
	{"testdata/codelint/g011", "EngineOpts", "Tuning",
		"fixture: vetted zero-value default pin"},
}

// cacheKeyFieldAllowed reports whether the field's zero-default pin is
// vetted for G011.
func cacheKeyFieldAllowed(pkgPath, typ, field string) bool {
	for _, e := range cacheKeyFieldAllowlist {
		if e.typ == typ && e.field == field && pathMatchesAny(pkgPath, []string{e.pkg}) {
			return true
		}
	}
	return false
}

// keyExemptFields vets serve option fields excluded from the cache key
// on purpose, matched by json tag name across every canonicalized
// struct. Keep this list about *transport* concerns only — anything
// that can change an engine result must be keyed.
var keyExemptFields = []struct {
	tag, why string
}{
	{"timeout_ms",
		"deadlines shape latency and the 504 contract, never the engine result; stripped before hashing so an impatient client still hits the patient client's cache entry"},
}

// keyExemptField reports whether a serve option field is a vetted
// key exclusion.
func keyExemptField(tag, name string) bool {
	match := tag
	if match == "" {
		match = name
	}
	for _, e := range keyExemptFields {
		if e.tag == match {
			return true
		}
	}
	return false
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

// durabilityPackages scopes G015: the packages that persist state the
// process must be able to trust after a crash. Only journals and
// result blobs live here; adding a package opts its writes into the
// append+Sync / tmp→fsync→rename→dir-sync discipline.
var durabilityPackages = []struct {
	pkg, why string
}{
	{"internal/jobs",
		"owns the job journal and result blobs; DESIGN.md's durability invariants are this package's contract"},
	{"testdata/codelint/g015",
		"fixture: exercises every dirty and clean durability shape the rule knows"},
}

// isDurabilityPackage reports whether the package's writes are held to
// the G015 durability discipline.
func isDurabilityPackage(pkgPath string) bool {
	for _, e := range durabilityPackages {
		if pathMatchesAny(pkgPath, []string{e.pkg}) {
			return true
		}
	}
	return false
}
