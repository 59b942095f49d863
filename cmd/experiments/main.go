// Command experiments regenerates every table and figure of the
// reconstructed evaluation (E1..E9 in DESIGN.md) and prints them as
// aligned ASCII; tables can also be exported as CSV files.
//
// Examples:
//
//	experiments               # full run (what EXPERIMENTS.md records)
//	experiments -quick        # scaled-down run for smoke testing
//	experiments -only E2,E6   # a subset
//	experiments -csv out/     # also write E*.csv files
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/cli"
	"repro/internal/exp"
)

func main() {
	var (
		quick   = flag.Bool("quick", false, "scaled-down workloads")
		only    = flag.String("only", "", "comma-separated experiment ids (e.g. E1,E4)")
		csvDir  = flag.String("csv", "", "directory to write per-table CSV files")
		doLint  = flag.Bool("lint", false, "statically lint the experiment circuits before running")
		timeout = flag.Duration("timeout", 0, "abort the run after this duration (0 = none; expiry exits 3)")
	)
	flag.Parse()
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	if err := run(ctx, *quick, *only, *csvDir, *doLint); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		code := cli.ExitCode(err)
		if code == cli.ExitDeadline {
			fmt.Fprintln(os.Stderr, "experiments: -timeout expired; experiments printed above are complete, the rest did not run")
		}
		os.Exit(code)
	}
}

func run(ctx context.Context, quick bool, only, csvDir string, doLint bool) error {
	cfg := exp.Config{Quick: quick}
	if doLint {
		if err := exp.Preflight(cfg, os.Stderr); err != nil {
			return err
		}
	}
	selected := map[string]bool{}
	if only != "" {
		for _, id := range strings.Split(only, ",") {
			selected[strings.ToUpper(strings.TrimSpace(id))] = true
		}
	}
	if csvDir != "" {
		if err := os.MkdirAll(csvDir, 0o755); err != nil {
			return &cli.WriteError{Path: csvDir, Err: err}
		}
	}
	for _, e := range exp.Experiments() {
		if len(selected) > 0 && !selected[e.ID] {
			continue
		}
		start := time.Now()
		r, err := e.Run(ctx, cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
		if err := r.Write(os.Stdout); err != nil {
			return err
		}
		fmt.Printf("(%s completed in %s)\n\n", e.ID, time.Since(start).Round(time.Millisecond))
		if csvDir != "" {
			if t, ok := r.(*exp.Table); ok {
				if err := cli.WriteFile(filepath.Join(csvDir, e.ID+".csv"), func(w io.Writer) error {
					return t.CSV(w)
				}); err != nil {
					return err
				}
			}
		}
	}
	return nil
}
