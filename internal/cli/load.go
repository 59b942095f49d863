// Package cli holds the helpers shared by the command-line tools:
// loading circuits from .bench files or from generator specifications.
package cli

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"repro/internal/bench"
	"repro/internal/gen"
	"repro/internal/netlist"
	"repro/internal/vlog"
)

// LoadCircuit resolves exactly one of benchPath / genSpec into a circuit.
// Netlist files ending in .v/.sv are read as structural Verilog,
// everything else as .bench.
//
// Errors split along the exit-code contract: flag misuse (both or
// neither source given, an unparsable -gen spec) comes back as a
// *UsageError so ExitCode maps it to 2, while an unreadable or
// unparsable input file is an ordinary failure (exit 1).
func LoadCircuit(benchPath, genSpec string) (*netlist.Circuit, error) {
	switch {
	case benchPath != "" && genSpec != "":
		return nil, Usage(fmt.Errorf("cli: -bench and -gen are mutually exclusive"))
	case benchPath != "":
		f, err := os.Open(benchPath)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		name := strings.TrimSuffix(filepath.Base(benchPath), filepath.Ext(benchPath))
		if ext := strings.ToLower(filepath.Ext(benchPath)); ext == ".v" || ext == ".sv" {
			return vlog.Parse(f)
		}
		return bench.Parse(f, name)
	case genSpec != "":
		return Generate(genSpec)
	}
	return nil, Usage(fmt.Errorf("cli: provide -bench <file> or -gen <spec>"))
}

// Generate builds a circuit from a generator specification of the form
//
//	kind:key=value,key=value
//
// Supported kinds and their keys (all integer-valued, with defaults):
//
//	c17                                  the ISCAS'85 c17 benchmark
//	tree:seed=1,leaves=50                random fanout-free unate circuit
//	dag:seed=1,inputs=16,gates=200      random reconvergent circuit
//	cone:width=16                       wide AND cone
//	parity:width=16                     balanced XOR tree
//	rca:width=8                         ripple-carry adder
//	cmp:width=8                         equality comparator
//	decoder:bits=4                      n-to-2^n decoder
//	mul:width=6                         array multiplier
//	rpr:seed=1,cones=3,width=12,glue=80 random-pattern-resistant circuit
//	bshift:width=16                     logarithmic barrel shifter
//	alu:width=8                         2-bit-opcode ALU slice
func Generate(spec string) (*netlist.Circuit, error) { return GenerateWithin(spec, 0) }

// GenerateWithin is Generate with a size guard for callers that build
// circuits from untrusted specs. When maxGates is positive and the
// spec's worst-case gate count (primary inputs included, as
// Circuit.NumGates counts them) exceeds it, the spec is rejected with a
// usage error before anything is built. The circuit a spec produces
// does not depend on the guard.
func GenerateWithin(spec string, maxGates int) (c *netlist.Circuit, err error) {
	// The generators panic on out-of-range parameters (they are library
	// preconditions); surface those as usage errors at the CLI boundary —
	// the offending value came straight from the user's -gen flag.
	defer func() {
		if r := recover(); r != nil {
			c, err = nil, Usage(fmt.Errorf("cli: %v", r))
		}
	}()
	kind := spec
	args := map[string]int{}
	if i := strings.IndexByte(spec, ':'); i >= 0 {
		kind = spec[:i]
		for _, kv := range strings.Split(spec[i+1:], ",") {
			kv = strings.TrimSpace(kv)
			if kv == "" {
				continue
			}
			parts := strings.SplitN(kv, "=", 2)
			if len(parts) != 2 {
				return nil, Usage(fmt.Errorf("cli: malformed generator argument %q", kv))
			}
			v, err := strconv.Atoi(strings.TrimSpace(parts[1]))
			if err != nil {
				return nil, Usage(fmt.Errorf("cli: argument %q: %w", kv, err))
			}
			args[strings.TrimSpace(parts[0])] = v
		}
	}
	get := func(key string, def int) int {
		if v, ok := args[key]; ok {
			return v
		}
		return def
	}
	size, build := plan(kind, get)
	if build == nil {
		return nil, Usage(fmt.Errorf("cli: unknown generator kind %q", kind))
	}
	if maxGates > 0 && size > float64(maxGates) {
		return nil, Usage(fmt.Errorf("cli: generator spec %q may build up to %.0f gates, over the limit of %d", spec, size, maxGates))
	}
	return build(), nil
}

// plan reads one generator kind's arguments and returns an upper bound
// on the gate count it builds (primary inputs included) together with
// the deferred build, or a nil build for an unknown kind. The bound is
// computed in float64 so huge arguments cannot overflow it; negative
// arguments count as zero and are left to the generator's own
// precondition panics.
func plan(kind string, get func(key string, def int) int) (float64, func() *netlist.Circuit) {
	size := func(v int) float64 { return math.Max(float64(v), 0) }
	switch kind {
	case "c17":
		return 11, gen.C17
	case "tree":
		// Each grouping gate retires at least one root and may carry an
		// inverter: two gates per leaf at most, plus the leaves.
		seed, leaves, fanin := get("seed", 1), get("leaves", 50), get("fanin", 0)
		return 3 * size(leaves), func() *netlist.Circuit {
			return gen.RandomTree(int64(seed), leaves, gen.TreeOptions{MaxFanin: fanin})
		}
	case "dag":
		// A gate draws up to fanin (default 3) inputs; wider gates are
		// charged one gate per three fanin slots, which keeps the fanin
		// edges within three per charged gate as well.
		seed, inputs, gates, fanin := get("seed", 1), get("inputs", 16), get("gates", 200), get("fanin", 0)
		slots := 3.0
		if fanin > 1 {
			slots = float64(fanin)
		}
		return size(inputs) + size(gates)*math.Ceil(slots/3), func() *netlist.Circuit {
			return gen.RandomDAG(int64(seed), inputs, gates, gen.DAGOptions{MaxFanin: fanin})
		}
	case "cone":
		width := get("width", 16)
		return 2 * size(width), func() *netlist.Circuit { return gen.AndCone(width) }
	case "parity":
		width := get("width", 16)
		return 2 * size(width), func() *netlist.Circuit { return gen.ParityTree(width) }
	case "rca":
		width := get("width", 8)
		return 7*size(width) + 1, func() *netlist.Circuit { return gen.RippleCarryAdder(width) }
	case "cmp":
		width := get("width", 8)
		return 4 * size(width), func() *netlist.Circuit { return gen.Comparator(width) }
	case "decoder":
		bits := get("bits", 4)
		return 2*size(bits) + math.Exp2(size(bits)), func() *netlist.Circuit { return gen.Decoder(bits) }
	case "mul":
		// width² partial products plus five gates per full adder.
		width := get("width", 6)
		return 6 * size(width) * size(width), func() *netlist.Circuit { return gen.Multiplier(width) }
	case "rpr":
		// Inputs, cone ANDs, glue, one OR per cone, and a parity sweep
		// over whatever inputs and glue end up dangling.
		seed, cones, width, glue := get("seed", 1), get("cones", 3), get("width", 12), get("glue", 80)
		inputs := size(cones)*size(width)/2 + size(width)
		return 2*(inputs+size(glue)) + size(cones)*size(width) + size(cones) + 4, func() *netlist.Circuit {
			return gen.RPResistant(int64(seed), cones, width, glue)
		}
	case "bshift":
		// log2(width) stages of width four-gate muxes, plus buffers.
		width := get("width", 16)
		stages := math.Ceil(math.Log2(math.Max(size(width), 1)))
		return size(width)*(4*stages+2) + stages, func() *netlist.Circuit { return gen.BarrelShifter(width) }
	case "alu":
		// Per bit: six logic and carry gates, three four-gate muxes and
		// a buffer.
		width := get("width", 8)
		return 21*size(width) + 3, func() *netlist.Circuit { return gen.ALUSlice(width) }
	}
	return 0, nil
}
