package perf

import (
	"encoding/json"
	"fmt"
	"io"
)

// Schema identifies the report format; Validate rejects anything else.
// Bump the suffix only on incompatible shape changes — the CI baseline
// comparison refuses to cross schema versions.
const Schema = "tpi-dp/bench/v1"

// SuiteName names the canonical registry shipped by this package.
const SuiteName = "default"

// Meta records the environment and runner configuration a report was
// produced under. Everything here is either stable per machine or an
// explicit knob; nothing is a measurement.
type Meta struct {
	// GoVersion is runtime.Version() of the producing binary.
	GoVersion string `json:"go_version"`
	// GOOS and GOARCH identify the platform.
	GOOS   string `json:"goos"`
	GOARCH string `json:"goarch"`
	// NumCPU is the machine's logical CPU count.
	NumCPU int `json:"num_cpu"`
	// GOMAXPROCS is the runner's base setting (benchmarks may override
	// it for their own duration; see Result.GOMAXPROCS).
	GOMAXPROCS int `json:"gomaxprocs"`
	// Short marks the scaled-down workloads (cmd/bench -short).
	Short bool `json:"short"`
	// Iterations is the fixed per-benchmark iteration count, 0 when
	// the runner calibrated each benchmark against MinTime.
	Iterations int `json:"iterations"`
	// Warmup is the per-benchmark warmup iteration count.
	Warmup int `json:"warmup"`
}

// Result is one benchmark's measurement.
type Result struct {
	// Name, Group, Info, and Params echo the registered Benchmark.
	Name   string            `json:"name"`
	Group  string            `json:"group"`
	Info   string            `json:"info,omitempty"`
	Params map[string]string `json:"params,omitempty"`
	// GOMAXPROCS is the setting the benchmark ran under.
	GOMAXPROCS int `json:"gomaxprocs"`
	// Iterations is the measured iteration count (warmup excluded).
	Iterations int `json:"iterations"`
	// TotalNs is the wall-clock time of the measured iterations.
	TotalNs int64 `json:"total_ns"`
	// NsPerOp is TotalNs / Iterations.
	NsPerOp float64 `json:"ns_per_op"`
	// AllocsPerOp and BytesPerOp are heap allocation counts and bytes
	// per iteration (process-wide deltas, so concurrent helpers like
	// the HTTP stack are included — that is the point).
	AllocsPerOp float64 `json:"allocs_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
}

// Report is the canonical machine-readable output of one suite run.
// Benchmarks appear in registry order, which is fixed, so two runs of
// the same binary produce structurally identical reports.
type Report struct {
	// Schema is always the Schema constant.
	Schema string `json:"schema"`
	// Suite names the registry that produced the report.
	Suite string `json:"suite"`
	// Meta records environment and configuration.
	Meta Meta `json:"meta"`
	// Benchmarks holds one Result per executed benchmark.
	Benchmarks []Result `json:"benchmarks"`
}

// Encode writes the report as stable, indented JSON with a trailing
// newline (the exact bytes cmd/bench commits as BENCH_*.json).
func (r *Report) Encode(w io.Writer) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	_, err = w.Write(append(data, '\n'))
	return err
}

// StripMeasurements zeroes every measured field (times and allocation
// counters) in place, leaving only the structural identity of the run:
// names, params, iteration counts, environment. Two runs with the same
// configuration must be identical after stripping — the determinism
// contract pinned by the cmd/bench tests and used by Compare to pair
// benchmarks.
func (r *Report) StripMeasurements() {
	for i := range r.Benchmarks {
		b := &r.Benchmarks[i]
		b.TotalNs = 0
		b.NsPerOp = 0
		b.AllocsPerOp = 0
		b.BytesPerOp = 0
	}
}

// Decode reads and validates a report.
func Decode(rd io.Reader) (*Report, error) {
	dec := json.NewDecoder(rd)
	dec.DisallowUnknownFields()
	var r Report
	if err := dec.Decode(&r); err != nil {
		return nil, fmt.Errorf("perf: decode report: %w", err)
	}
	if err := Validate(&r); err != nil {
		return nil, err
	}
	return &r, nil
}

// Validate checks a report against the canonical schema: the schema
// tag, a named suite, sane meta, and a non-empty benchmark list with
// unique names, known groups, positive iteration counts, non-negative
// measurements — and at least one benchmark in each engine group (fsim,
// atpg, tpi), so a report that lost a whole engine family fails loudly.
// The serve group is known but not required: committed reports carry
// serve rows that today's suite no longer registers.
func Validate(r *Report) error {
	if r.Schema != Schema {
		return fmt.Errorf("perf: schema %q, want %q", r.Schema, Schema)
	}
	if r.Suite == "" {
		return fmt.Errorf("perf: empty suite name")
	}
	if r.Meta.GoVersion == "" || r.Meta.GOOS == "" || r.Meta.GOARCH == "" {
		return fmt.Errorf("perf: incomplete meta (go_version/goos/goarch required)")
	}
	if r.Meta.NumCPU <= 0 || r.Meta.GOMAXPROCS <= 0 {
		return fmt.Errorf("perf: meta cpu counts must be positive")
	}
	if len(r.Benchmarks) == 0 {
		return fmt.Errorf("perf: report has no benchmarks")
	}
	seen := make(map[string]bool, len(r.Benchmarks))
	groups := make(map[string]int)
	for i := range r.Benchmarks {
		b := &r.Benchmarks[i]
		if b.Name == "" {
			return fmt.Errorf("perf: benchmark %d has no name", i)
		}
		if seen[b.Name] {
			return fmt.Errorf("perf: duplicate benchmark %q", b.Name)
		}
		seen[b.Name] = true
		switch b.Group {
		case GroupFsim, GroupATPG, GroupTPI, GroupExp, GroupServe:
			groups[b.Group]++
		default:
			return fmt.Errorf("perf: benchmark %q has unknown group %q", b.Name, b.Group)
		}
		if b.Iterations <= 0 {
			return fmt.Errorf("perf: benchmark %q has non-positive iterations", b.Name)
		}
		if b.TotalNs < 0 || b.NsPerOp < 0 || b.AllocsPerOp < 0 || b.BytesPerOp < 0 {
			return fmt.Errorf("perf: benchmark %q has negative measurements", b.Name)
		}
		if b.GOMAXPROCS <= 0 {
			return fmt.Errorf("perf: benchmark %q has non-positive gomaxprocs", b.Name)
		}
	}
	for _, g := range []string{GroupFsim, GroupATPG, GroupTPI} {
		if groups[g] == 0 {
			return fmt.Errorf("perf: report covers no %s benchmarks", g)
		}
	}
	return nil
}
