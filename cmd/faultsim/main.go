// Command faultsim runs the bit-parallel stuck-at fault simulator over a
// circuit and reports coverage, the coverage curve, and the surviving
// hard faults.
//
// Examples:
//
//	faultsim -bench testdata/c17.bench -patterns 1024
//	faultsim -gen rpr:cones=3,width=14 -patterns 32768 -curve 2048
//	faultsim -gen cone:width=20 -source counter -hard 10
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"

	"repro/internal/cli"
	"repro/internal/fault"
	"repro/internal/fsim"
	"repro/internal/pattern"
	"repro/internal/testability"
)

func main() {
	var (
		benchPath = flag.String("bench", "", "input .bench netlist")
		genSpec   = flag.String("gen", "", "generator spec (see internal/cli)")
		patterns  = flag.Int("patterns", 32768, "maximum patterns to apply")
		seed      = flag.Uint64("seed", 1, "LFSR seed")
		source    = flag.String("source", "lfsr", "lfsr | counter | weighted | file")
		vecPath   = flag.String("vectors", "", "vector file for -source file")
		curve     = flag.Int("curve", 0, "print coverage curve with this step (0 = off)")
		uncol     = flag.Bool("uncollapsed", false, "simulate the uncollapsed fault universe")
		hard      = flag.Int("hard", 5, "list up to this many undetected faults with COP estimates")
		doLint    = flag.Bool("lint", false, "statically validate the input circuit and reject on lint errors")
		timeout   = flag.Duration("timeout", 0, "abort simulation after this duration (0 = none; expiry exits 3)")
	)
	flag.Parse()
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	if err := run(ctx, *benchPath, *genSpec, *patterns, *seed, *source, *vecPath, *curve, *uncol, *hard, *doLint); err != nil {
		fmt.Fprintln(os.Stderr, "faultsim:", err)
		code := cli.ExitCode(err)
		if code == cli.ExitDeadline {
			fmt.Fprintln(os.Stderr, "faultsim: -timeout expired; any results above are partial")
		}
		os.Exit(code)
	}
}

func run(ctx context.Context, benchPath, genSpec string, patterns int, seed uint64, source, vecPath string, curve int, uncol bool, hard int, doLint bool) error {
	c, err := cli.LoadCircuitChecked(benchPath, genSpec, doLint, os.Stderr)
	if err != nil {
		return err
	}
	fmt.Println(c)

	faults := fault.CollapsedUniverse(c)
	if uncol {
		faults = fault.Universe(c)
	}
	fmt.Printf("faults: %d (%s)\n", len(faults), map[bool]string{true: "uncollapsed", false: "collapsed"}[uncol])

	var src pattern.Source
	switch source {
	case "lfsr":
		src = pattern.NewLFSR(seed)
	case "counter":
		if err := pattern.CheckCounterInputs(c.NumInputs()); err != nil {
			return err
		}
		src = pattern.NewCounter(c.NumInputs())
		if exhaustive := 1 << uint(c.NumInputs()); patterns > exhaustive {
			patterns = exhaustive
		}
	case "weighted":
		src = pattern.NewWeighted(int64(seed), nil)
	case "file":
		if vecPath == "" {
			return fmt.Errorf("-source file requires -vectors <path>")
		}
		f, err := os.Open(vecPath)
		if err != nil {
			return err
		}
		vecs, err := pattern.ParseVectorText(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		if len(vecs) > 0 && len(vecs[0]) != c.NumInputs() {
			return fmt.Errorf("vector width %d != %d circuit inputs", len(vecs[0]), c.NumInputs())
		}
		src = pattern.NewVectors(vecs)
		if patterns > len(vecs) {
			patterns = len(vecs)
		}
	default:
		return fmt.Errorf("unknown source %q", source)
	}

	res, err := fsim.RunContext(ctx, c, faults, src, fsim.Options{MaxPatterns: patterns, DropFaults: true})
	if err != nil {
		// On deadline expiry the simulator returns its progress over
		// the completed pattern blocks; report the partial coverage
		// before exiting.
		if res != nil && (errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled)) {
			fmt.Printf("partial coverage after %d patterns: %.4f (%d/%d detected)\n",
				res.Patterns, res.Coverage(), len(res.FirstDetect), len(faults))
		}
		return err
	}
	fmt.Printf("patterns applied: %d\n", res.Patterns)
	fmt.Printf("coverage: %.4f (%d/%d detected)\n", res.Coverage(), len(res.FirstDetect), len(faults))

	if curve > 0 {
		fmt.Println("coverage curve:")
		for _, p := range res.Curve(curve) {
			fmt.Printf("  %8d  %.4f\n", p.Patterns, p.Coverage)
		}
	}

	undet := res.Undetected()
	if len(undet) > 0 && hard > 0 {
		co := testability.NewCOP(c, testability.COPOptions{})
		fmt.Printf("hardest undetected faults (of %d):\n", len(undet))
		for i, f := range undet {
			if i >= hard {
				break
			}
			dp := co.DetectProb(f)
			fmt.Printf("  %-24s est. detect prob %.3e, est. patterns for 99%%: %.3g\n",
				f.Name(c), dp, testability.TestLength(dp, 0.99))
		}
	}
	return nil
}
