package golint

import (
	"strings"
	"testing"
)

func TestLoaderFindsModule(t *testing.T) {
	l, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	if l.ModPath != "repro" {
		t.Errorf("module path = %q, want repro", l.ModPath)
	}
	if !strings.HasSuffix(strings.TrimRight(l.ModRoot, "/"), "repo") && l.ModRoot == "" {
		t.Errorf("module root = %q", l.ModRoot)
	}
}

func TestLoaderNoModule(t *testing.T) {
	if _, err := NewLoader(t.TempDir()); err == nil {
		t.Error("expected error for a directory with no enclosing go.mod")
	}
}

// TestLoadIntraModuleImports type-checks a package whose dependencies
// are themselves module-internal (cli imports lint, netlist, gen, ...),
// exercising the recursive source resolution path.
func TestLoadIntraModuleImports(t *testing.T) {
	l, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := l.Load("repro/internal/cli")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 1 || pkgs[0].Path != "repro/internal/cli" {
		t.Fatalf("loaded %v", pkgs)
	}
	if pkgs[0].Types.Scope().Lookup("ExitCode") == nil {
		t.Error("type-checked package is missing ExitCode")
	}
}

// TestLoadWildcard expands a subtree pattern, skipping nothing when the
// walk is rooted inside testdata explicitly.
func TestLoadWildcard(t *testing.T) {
	l, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := l.Load("../../testdata/codelint/...")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 6 {
		var got []string
		for _, p := range pkgs {
			got = append(got, p.Path)
		}
		t.Errorf("loaded %d packages (%v), want 6", len(pkgs), got)
	}
	for i := 1; i < len(pkgs); i++ {
		if pkgs[i-1].Path >= pkgs[i].Path {
			t.Errorf("packages not in deterministic order: %s >= %s", pkgs[i-1].Path, pkgs[i].Path)
		}
	}
}

// TestLoadPrunesNestedModules walks the loader fixture, whose nested/
// subdirectory holds a go.mod of its own: the go tool leaves a nested
// module out of "/...", and so must the loader. The nested package
// imports a path only its own module could resolve, so walking into it
// fails the load rather than shifting a count.
func TestLoadPrunesNestedModules(t *testing.T) {
	l, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := l.Load("../../testdata/codelint/loader/...")
	if err != nil {
		t.Fatalf("loader walked into the nested module: %v", err)
	}
	if len(pkgs) != 1 || pkgs[0].Path != "repro/testdata/codelint/loader" {
		var got []string
		for _, p := range pkgs {
			got = append(got, p.Path)
		}
		t.Errorf("loaded %v, want only repro/testdata/codelint/loader", got)
	}
}

// TestLoadSkipsBuildConstrainedFiles proves the loader honors build
// constraints: the loader fixture carries an excluded.go behind a
// never-satisfied build tag that redeclares UseGenerics. If the loader
// parsed it, type-checking the package would fail on the duplicate
// before any finding count could even diverge.
func TestLoadSkipsBuildConstrainedFiles(t *testing.T) {
	l, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := l.Load("repro/testdata/codelint/loader")
	if err != nil {
		t.Fatalf("build-tag-excluded file reached the type checker: %v", err)
	}
	for _, f := range pkgs[0].Files {
		name := l.Fset.Position(f.Pos()).Filename
		if strings.HasSuffix(name, "excluded.go") {
			t.Errorf("loader parsed build-tag-excluded file %s", name)
		}
	}
}

// TestLoadSkipsTestFiles proves _test.go files stay invisible: the
// loader fixture ships a redeclare_test.go with no build constraint of
// its own, so only the file-name rule can keep it out of the parse.
func TestLoadSkipsTestFiles(t *testing.T) {
	l, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := l.Load("repro/testdata/codelint/loader")
	if err != nil {
		t.Fatalf("the _test.go sibling reached the type checker: %v", err)
	}
	for _, f := range pkgs[0].Files {
		if name := l.Fset.Position(f.Pos()).Filename; strings.HasSuffix(name, "_test.go") {
			t.Errorf("loader parsed test file %s", name)
		}
	}
}

// TestLoadGenericsAndTagCombos loads the loader fixture: generic
// declarations must type-check and instantiate, the build-tag-excluded
// sibling must stay unparsed, and the _test.go sibling must stay out
// even though its own build constraint is satisfied. Both siblings
// redeclare UseGenerics, so any skip failure breaks the type check
// loudly rather than shifting a count.
func TestLoadGenericsAndTagCombos(t *testing.T) {
	l, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := l.Load("repro/testdata/codelint/loader")
	if err != nil {
		t.Fatalf("generic fixture failed to load: %v", err)
	}
	p := pkgs[0]
	if n := len(p.Files); n != 1 {
		t.Errorf("loader fixture parsed %d files, want 1 (generics.go only)", n)
	}
	for _, name := range []string{"Pair", "Keys", "Sum", "UseGenerics"} {
		if p.Types.Scope().Lookup(name) == nil {
			t.Errorf("type-checked package is missing %s", name)
		}
	}
	rep := Run(l, pkgs, Analyzers())
	if len(rep.Findings) != 0 {
		t.Errorf("generic fixture should be clean, got %v", rep.Findings)
	}
}

// TestLoadCaching asserts repeated loads return the identical package,
// so analyzers across a run agree on type identities.
func TestLoadCaching(t *testing.T) {
	l, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	a, err := l.Load("repro/internal/lint")
	if err != nil {
		t.Fatal(err)
	}
	b, err := l.Load("repro/internal/lint")
	if err != nil {
		t.Fatal(err)
	}
	if a[0] != b[0] {
		t.Error("second load did not hit the package cache")
	}
}

func TestLoadOutsideModule(t *testing.T) {
	l, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Load(t.TempDir()); err == nil {
		t.Error("expected error loading a directory outside the module")
	}
}
