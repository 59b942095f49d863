package golint

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one loaded, type-checked package of the module.
type Package struct {
	// Path is the module-qualified import path.
	Path string
	// Dir is the absolute directory the sources were read from.
	Dir string
	// Files are the parsed non-test sources, in file-name order.
	Files []*ast.File
	// Types is the type-checked package.
	Types *types.Package
	// Info carries the type-checker's expression, object, and selection
	// facts the analyzers query.
	Info *types.Info
}

// Loader loads and type-checks packages of the enclosing module from
// source, with no dependency on go/packages: module-internal imports
// are resolved recursively from the module tree, everything else
// through the compiler's importer (with a pure-source fallback, so the
// driver works even where no export data is installed).
type Loader struct {
	// Fset is the shared position table for every loaded file.
	Fset *token.FileSet
	// ModRoot is the absolute module root (the directory with go.mod).
	ModRoot string
	// ModPath is the module path declared in go.mod.
	ModPath string

	std     types.Importer
	pkgs    map[string]*Package
	loading map[string]bool
}

// NewLoader locates the module enclosing dir (walking up to the nearest
// go.mod) and returns a loader rooted there.
func NewLoader(dir string) (*Loader, error) {
	root, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	for {
		if _, err := os.Stat(filepath.Join(root, "go.mod")); err == nil {
			break
		}
		parent := filepath.Dir(root)
		if parent == root {
			return nil, fmt.Errorf("golint: no go.mod at or above %s", dir)
		}
		root = parent
	}
	modPath, err := readModulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	return &Loader{
		Fset:    fset,
		ModRoot: root,
		ModPath: modPath,
		std: &chainImporter{
			primary:  importer.ForCompiler(fset, "gc", nil),
			fallback: importer.ForCompiler(fset, "source", nil),
		},
		pkgs:    make(map[string]*Package),
		loading: make(map[string]bool),
	}, nil
}

// readModulePath extracts the module path from a go.mod file.
func readModulePath(path string) (string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`), nil
		}
	}
	return "", fmt.Errorf("golint: no module directive in %s", path)
}

// chainImporter tries the fast compiled-export-data importer first and
// falls back to type-checking the dependency from source.
type chainImporter struct {
	primary, fallback types.Importer
}

func (c *chainImporter) Import(path string) (*types.Package, error) {
	p, err := c.primary.Import(path)
	if err == nil {
		return p, nil
	}
	return c.fallback.Import(path)
}

// Load resolves the given patterns to package directories, loads and
// type-checks each (plus its module-internal dependencies), and returns
// the requested packages in deterministic order. Patterns follow the go
// tool's shape: a directory path ("./internal/fsim"), a module import
// path ("repro/internal/fsim"), or a trailing "/..." wildcard that
// walks a subtree — skipping testdata, vendor, hidden directories and
// nested modules exactly as the go tool does, unless the walk is rooted
// inside one explicitly.
func (l *Loader) Load(patterns ...string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	var dirs []string
	seen := make(map[string]bool)
	add := func(d string) {
		d = filepath.Clean(d)
		if !seen[d] {
			seen[d] = true
			dirs = append(dirs, d)
		}
	}
	for _, p := range patterns {
		if base, ok := strings.CutSuffix(p, "..."); ok {
			base = strings.TrimSuffix(base, "/")
			if base == "" || base == "." {
				base = l.ModRoot
			} else {
				base = l.resolveDir(base)
			}
			walked, err := packageDirs(base)
			if err != nil {
				return nil, err
			}
			for _, d := range walked {
				add(d)
			}
			continue
		}
		add(l.resolveDir(p))
	}
	sort.Strings(dirs)
	out := make([]*Package, 0, len(dirs))
	for _, d := range dirs {
		pkg, err := l.loadDir(d)
		if err != nil {
			return nil, err
		}
		out = append(out, pkg)
	}
	return out, nil
}

// resolveDir maps a pattern element to a directory: module import paths
// resolve against the module root, everything else is a file path.
func (l *Loader) resolveDir(p string) string {
	if p == l.ModPath {
		return l.ModRoot
	}
	if rest, ok := strings.CutPrefix(p, l.ModPath+"/"); ok {
		return filepath.Join(l.ModRoot, filepath.FromSlash(rest))
	}
	if filepath.IsAbs(p) {
		return p
	}
	abs, err := filepath.Abs(p)
	if err != nil {
		return p
	}
	return abs
}

// packageDirs walks base and returns every directory directly holding a
// non-test Go file. Subdirectories named testdata or vendor, hidden or
// underscore-prefixed directories, and directories holding a go.mod of
// their own (nested modules, which the go tool leaves out of ./...) are
// pruned. The root itself is always entered, so explicit walks inside
// testdata work.
func packageDirs(base string) ([]string, error) {
	var out []string
	err := filepath.WalkDir(base, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		if path != base {
			name := d.Name()
			if name == "testdata" || name == "vendor" ||
				strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir
			}
		}
		ok, err := hasGoFiles(path)
		if err != nil {
			return err
		}
		if ok {
			out = append(out, path)
		}
		return nil
	})
	return out, err
}

// hasGoFiles reports whether dir directly contains a non-test Go file.
func hasGoFiles(dir string) (bool, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false, err
	}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		name := e.Name()
		if strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go") {
			return true, nil
		}
	}
	return false, nil
}

// importPath derives the module-qualified import path of dir.
func (l *Loader) importPath(dir string) (string, error) {
	rel, err := filepath.Rel(l.ModRoot, dir)
	if err != nil {
		return "", err
	}
	if rel == "." {
		return l.ModPath, nil
	}
	if strings.HasPrefix(rel, "..") {
		return "", fmt.Errorf("golint: %s is outside module %s", dir, l.ModRoot)
	}
	return l.ModPath + "/" + filepath.ToSlash(rel), nil
}

// loadDir parses and type-checks the package in dir, loading
// module-internal imports first. Results are cached per import path.
func (l *Loader) loadDir(dir string) (*Package, error) {
	ip, err := l.importPath(dir)
	if err != nil {
		return nil, err
	}
	if p, ok := l.pkgs[ip]; ok {
		return p, nil
	}
	if l.loading[ip] {
		return nil, fmt.Errorf("golint: import cycle through %s", ip)
	}
	l.loading[ip] = true
	defer delete(l.loading, ip)

	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		// Honor build constraints (//go:build lines and GOOS/GOARCH file
		// suffixes) the same way the go tool does, so a tag-guarded file
		// never reaches the type checker under a configuration that
		// excludes it.
		if match, err := build.Default.MatchFile(dir, name); err != nil || !match {
			if err != nil {
				return nil, fmt.Errorf("golint: match %s: %w", filepath.Join(dir, name), err)
			}
			continue
		}
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution|parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("golint: no non-test Go files in %s", dir)
	}

	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{Importer: importerFunc(l.importFor)}
	tpkg, err := conf.Check(ip, l.Fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("golint: typecheck %s: %w", ip, err)
	}
	p := &Package{Path: ip, Dir: dir, Files: files, Types: tpkg, Info: info}
	l.pkgs[ip] = p
	return p, nil
}

// importFor routes module-internal imports through the source loader
// and everything else through the standard importer chain.
func (l *Loader) importFor(path string) (*types.Package, error) {
	if path == l.ModPath || strings.HasPrefix(path, l.ModPath+"/") {
		rest := strings.TrimPrefix(strings.TrimPrefix(path, l.ModPath), "/")
		p, err := l.loadDir(filepath.Join(l.ModRoot, filepath.FromSlash(rest)))
		if err != nil {
			return nil, err
		}
		return p.Types, nil
	}
	return l.std.Import(path)
}

// importerFunc adapts a function to types.Importer.
type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// Pass hands one package to one analyzer.
type Pass struct {
	// Loader is the driver that loaded the package (for module facts).
	Loader *Loader
	// Pkg is the package under analysis.
	Pkg *Package
	// Mod is the whole-module call graph and per-function summary set,
	// built once per Run over every requested package. The per-file
	// rules ignore it; the whole-module rules query it.
	Mod *ModuleFacts
}

// finding builds a Finding anchored at pos with the pass's package and
// module-relative file path filled in.
func (p *Pass) finding(rule string, sev Severity, pos token.Pos, msg, hint string) Finding {
	position := p.Loader.Fset.Position(pos)
	file := position.Filename
	if rel, err := filepath.Rel(p.Loader.ModRoot, file); err == nil && !strings.HasPrefix(rel, "..") {
		file = filepath.ToSlash(rel)
	}
	return Finding{
		Rule:     rule,
		Severity: sev,
		Package:  p.Pkg.Path,
		File:     file,
		Line:     position.Line,
		Col:      position.Column,
		Message:  msg,
		Hint:     hint,
	}
}
