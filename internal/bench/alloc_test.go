package bench_test

import (
	"runtime"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/cli"
)

// TestParseAndAppendAllocsSizeIndependent: parsing plus validation, and
// the canonical Append, each allocate a number of times that does not
// grow with the circuit. Only the name index's tables may add a few
// allocations at ten times the size.
func TestParseAndAppendAllocsSizeIndependent(t *testing.T) {
	allocs := func(spec string) (signals int, parse, canon float64) {
		c, err := cli.Generate(spec)
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		if err := bench.Write(&b, c); err != nil {
			t.Fatal(err)
		}
		text := b.String()
		parse = testing.AllocsPerRun(10, func() {
			c, err := bench.ParseString(text, "request")
			if err != nil {
				t.Fatal(err)
			}
			if err := c.Validate(); err != nil {
				t.Fatal(err)
			}
		})
		canon = testing.AllocsPerRun(10, func() { bench.Append(nil, c) })
		return c.NumGates(), parse, canon
	}
	n1, parse1, canon1 := allocs("tree:seed=1,leaves=260")
	n2, parse2, canon2 := allocs("tree:seed=1,leaves=2550")
	t.Logf("%d signals: parse+validate %.0f allocs, append %.0f; %d signals: %.0f, %.0f", n1, parse1, canon1, n2, parse2, canon2)
	if n1 < 400 || n2 < 4000 {
		t.Fatalf("trees of %d and %d signals, want at least 400 and 4000", n1, n2)
	}
	if parse2 > 100 || parse2-parse1 > 16 {
		t.Errorf("parse+validate: %.0f allocs at %d signals, %.0f at %d; want at most 100 and at most 16 more", parse2, n2, parse1, n1)
	}
	if canon2 > 100 || canon2-canon1 > 16 {
		t.Errorf("append: %.0f allocs at %d signals, %.0f at %d; want at most 100 and at most 16 more", canon2, n2, canon1, n1)
	}
}

// TestParseReservesInProportionToText: the parser sizes its tables from
// line and comma counts, the line count capped by the text's length, so
// text that is nearly all blank lines, comment lines or commas in a
// comment reserves a small multiple of its own size rather than a table
// entry per line.
func TestParseReservesInProportionToText(t *testing.T) {
	const netlist = "INPUT(a)\nOUTPUT(z)\nz = NOT(a)\n"
	for name, src := range map[string]string{
		"blank lines":    strings.Repeat("\n", 1<<20) + netlist,
		"comment lines":  strings.Repeat(" \t\n#\n", 1<<18) + netlist,
		"comment commas": "# " + strings.Repeat(",", 1<<20) + "\n" + netlist,
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := bench.ParseString(src, name); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		if n := after.TotalAlloc - before.TotalAlloc; n > 12*uint64(len(src)) {
			t.Errorf("%s: %d bytes of text allocated %d bytes, over 12 times the text", name, len(src), n)
		}
	}
}
