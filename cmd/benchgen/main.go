// Command benchgen emits generated benchmark circuits in .bench format.
//
// Examples:
//
//	benchgen -gen tree:seed=7,leaves=200 > tree200.bench
//	benchgen -gen mul:width=8 -o mul8.bench -stats
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/bench"
	"repro/internal/cli"
	"repro/internal/vlog"
)

func main() {
	var (
		genSpec = flag.String("gen", "", "generator spec (see internal/cli)")
		outPath = flag.String("o", "", "output file (default stdout)")
		format  = flag.String("format", "bench", "bench | verilog | dot")
		stats   = flag.Bool("stats", false, "print circuit statistics to stderr")
		doLint  = flag.Bool("lint", false, "statically validate the generated circuit and reject on lint errors")
	)
	flag.Parse()
	if err := run(*genSpec, *outPath, *format, *stats, *doLint); err != nil {
		fmt.Fprintln(os.Stderr, "benchgen:", err)
		os.Exit(cli.ExitCode(err))
	}
}

func run(genSpec, outPath, format string, stats, doLint bool) error {
	if genSpec == "" {
		return cli.Usage(fmt.Errorf("provide -gen <spec>; kinds: c17, tree, dag, cone, parity, rca, cmp, decoder, mul, rpr"))
	}
	switch format {
	case "bench", "verilog", "dot":
	default:
		return cli.Usage(fmt.Errorf("unknown format %q", format))
	}
	c, err := cli.Generate(genSpec)
	if err != nil {
		return err
	}
	if doLint {
		if err := cli.LintCircuit(c, os.Stderr); err != nil {
			return err
		}
	}
	emit := func(out io.Writer) error {
		switch format {
		case "verilog":
			return vlog.Write(out, c)
		case "dot":
			return c.WriteDot(out)
		}
		return bench.Write(out, c)
	}
	if outPath != "" {
		if err := cli.WriteFile(outPath, emit); err != nil {
			return err
		}
	} else if err := emit(os.Stdout); err != nil {
		return err
	}
	if stats {
		s := c.Stats()
		fmt.Fprintf(os.Stderr, "%s\nstems: %d, fault sites (lines): %d, fanout-free: %v\n",
			c, s.Stems, s.Lines, s.FanoutFree)
	}
	return nil
}
