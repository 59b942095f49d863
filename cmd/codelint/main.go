// Command codelint runs the self-hosted Go analyzer (internal/golint)
// over packages of this module and reports contract violations:
// map-iteration order leaking into output (G001), process exits that
// bypass the internal/cli exit-code contract (G002), dropped or
// shadowed context.Context arguments (G003), impure calls inside
// deterministic engine packages (G004), error-hygiene defects (G005),
// allocations reachable from the measured engine loops (G007), engine
// option fields missing from the serve cache key (G011), unbounded
// handler-reachable loops that never poll their context (G012),
// durability discipline in the journal-owning packages (G015), and
// streaming-handler discipline (G016).
//
// Inputs are positional package patterns — directory paths, module
// import paths, or "/..." wildcards — defaulting to ./... from the
// enclosing module root. The exit code is 0 when the tree is clean at
// the -fail severity, 1 when any finding reaches it (default: warning,
// stricter than cmd/lint because this gate runs in CI), and 2 on bad
// usage or packages that fail to load or type-check. -list prints the
// rule registry and exits.
//
// Examples:
//
//	codelint ./...
//	codelint -json ./internal/serve
//	codelint -severity info -fail error ./cmd/...
//	codelint -only g007,g011 ./internal/fsim
//	codelint -list -json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/cli"
	"repro/internal/golint"
)

func main() {
	var (
		jsonOut  = flag.Bool("json", false, "emit findings as JSON")
		sevName  = flag.String("severity", "info", "minimum severity to report: info | warning | error")
		failName = flag.String("fail", "warning", "minimum severity that fails the run: info | warning | error")
		only     = flag.String("only", "", "comma-separated rule IDs to run (e.g. g007,g011); default all")
		list     = flag.Bool("list", false, "print the rule registry (id, severity, summary) and exit")
	)
	flag.Parse()
	failed, err := run(os.Stdout, config{
		dir:      ".",
		patterns: flag.Args(),
		jsonOut:  *jsonOut,
		sevName:  *sevName,
		failName: *failName,
		only:     *only,
		list:     *list,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "codelint:", err)
		os.Exit(cli.ExitCode(cli.Usage(err)))
	}
	if failed {
		os.Exit(cli.ExitFailure)
	}
}

// config gathers one invocation's settings.
type config struct {
	// dir is the directory whose enclosing module is analyzed.
	dir      string
	patterns []string
	jsonOut  bool
	sevName  string
	failName string
	only     string
	list     bool
}

// jsonReport is the stable JSON shape: module, severity counts, and
// the position-ordered findings.
type jsonReport struct {
	Module   string           `json:"module"`
	Errors   int              `json:"errors"`
	Warnings int              `json:"warnings"`
	Infos    int              `json:"infos"`
	Findings []golint.Finding `json:"findings"`
}

// ruleInfo is one -list -json row.
type ruleInfo struct {
	ID       string          `json:"id"`
	Name     string          `json:"name"`
	Severity golint.Severity `json:"severity"`
	Doc      string          `json:"doc"`
}

// run analyzes the requested packages and reports whether any finding
// reached the failure severity.
func run(w io.Writer, cfg config) (bool, error) {
	minSev, err := golint.ParseSeverity(cfg.sevName)
	if err != nil {
		return false, err
	}
	failSev, err := golint.ParseSeverity(cfg.failName)
	if err != nil {
		return false, err
	}
	analyzers := golint.Analyzers()
	if cfg.only != "" {
		analyzers, err = golint.Select(analyzers, strings.Split(cfg.only, ","))
		if err != nil {
			return false, err
		}
	}
	if cfg.list {
		return false, listRules(w, analyzers, cfg.jsonOut)
	}
	loader, err := golint.NewLoader(cfg.dir)
	if err != nil {
		return false, err
	}
	pkgs, err := loader.Load(cfg.patterns...)
	if err != nil {
		return false, err
	}
	rep := golint.Run(loader, pkgs, analyzers)

	failed := false
	if s, ok := rep.MaxSeverity(); ok && s >= failSev {
		failed = true
	}
	counts := rep.CountBySeverity()
	if cfg.jsonOut {
		findings := rep.Filter(minSev)
		if findings == nil {
			findings = []golint.Finding{}
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(jsonReport{
			Module:   rep.Module,
			Errors:   counts[golint.Error],
			Warnings: counts[golint.Warning],
			Infos:    counts[golint.Info],
			Findings: findings,
		}); err != nil {
			return false, err
		}
		return failed, nil
	}
	fmt.Fprintf(w, "%s: %d package(s), %d finding(s): %d error(s), %d warning(s), %d info\n",
		rep.Module, len(pkgs), len(rep.Findings), counts[golint.Error], counts[golint.Warning], counts[golint.Info])
	for _, f := range rep.Filter(minSev) {
		fmt.Fprintf(w, "  %s\n", f)
	}
	return failed, nil
}

// listRules prints the rule registry in registry order: one row per
// analyzer with its id, gravest emitted severity, and one-line doc.
func listRules(w io.Writer, analyzers []*golint.Analyzer, jsonOut bool) error {
	if jsonOut {
		rows := make([]ruleInfo, 0, len(analyzers))
		for _, a := range analyzers {
			rows = append(rows, ruleInfo{ID: a.ID, Name: a.Name, Severity: a.Severity, Doc: a.Doc})
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(rows)
	}
	for _, a := range analyzers {
		if _, err := fmt.Fprintf(w, "%s  %-7s  %s: %s\n", a.ID, a.Severity, a.Name, a.Doc); err != nil {
			return err
		}
	}
	return nil
}
