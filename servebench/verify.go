package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sort"
	"strconv"
	"sync"
)

// digestFile maps seed → workload → per-index SHA-256 of the response
// body (for async jobs, of the embedded result).
type digestFile map[string]map[string][]string

func loadDigests(path string) (digestFile, error) {
	b, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return digestFile{}, nil
	}
	if err != nil {
		return nil, err
	}
	var f digestFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return f, nil
}

func (f digestFile) lookup(seed int64, workload string) []string {
	return f[strconv.FormatInt(seed, 10)][workload]
}

// store records one pass of digests for (seed, workload) and writes the
// file back with sorted keys.
func (f digestFile) store(path string, seed int64, workload string, digests []string) error {
	k := strconv.FormatInt(seed, 10)
	if f[k] == nil {
		f[k] = map[string][]string{}
	}
	f[k][workload] = digests
	b, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func digest(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}

// checker verifies every response of a run: a body must match the
// committed digest for its pass index when one exists, must equal every
// other response for that index, and must satisfy its endpoint's
// invariants.
type checker struct {
	pass     []request
	expected []string // committed digests; nil for uncommitted seeds

	mu     sync.Mutex
	bodies map[int][]byte // first body seen per pass index
	dig    map[int]string
}

func newChecker(pass []request, expected []string) (*checker, error) {
	if expected != nil && len(expected) != len(pass) {
		return nil, fmt.Errorf("committed digests cover %d requests, the pass has %d", len(expected), len(pass))
	}
	return &checker{pass: pass, expected: expected, bodies: map[int][]byte{}, dig: map[int]string{}}, nil
}

func (c *checker) check(idx int, body []byte) error {
	d := digest(body)
	c.mu.Lock()
	defer c.mu.Unlock()
	if prev, ok := c.dig[idx]; ok {
		if prev != d {
			return fmt.Errorf("request %d: response digest %s differs from earlier %s", idx, d[:12], prev[:12])
		}
		return nil
	}
	if c.expected != nil && c.expected[idx] != d {
		return fmt.Errorf("request %d (%s): digest %s, committed %s", idx, c.pass[idx].Class, d[:12], c.expected[idx][:12])
	}
	if err := invariants(c.pass[idx], body); err != nil {
		return fmt.Errorf("request %d (%s): %w", idx, c.pass[idx].Class, err)
	}
	c.dig[idx] = d
	c.bodies[idx] = body
	return nil
}

// digests returns the per-index digests of a fully observed pass.
func (c *checker) digests() ([]string, error) {
	out := make([]string, len(c.pass))
	for i := range out {
		d, ok := c.dig[i]
		if !ok {
			return nil, fmt.Errorf("request %d never answered correctly", i)
		}
		out[i] = d
	}
	return out, nil
}

// response holds the fields of all three engine responses that the
// invariants and coverage read.
type response struct {
	Circuit struct {
		Inputs int `json:"inputs"`
	} `json:"circuit"`
	Planner       string `json:"planner"`
	Points        []any  `json:"points"`
	MaxCost       int    `json:"max_cost"`
	BaseCost      int    `json:"base_cost"`
	CoveredBefore int    `json:"covered_before"`
	CoveredAfter  int    `json:"covered_after"`
	TotalFaults   int    `json:"total_faults"`
	StatesVisited int64  `json:"states_visited"`

	Faults      int      `json:"faults"`
	Patterns    int      `json:"patterns"`
	Detected    int      `json:"detected"`
	FirstDetect []any    `json:"first_detect"`
	Undetected  []string `json:"undetected"`

	Vectors         []string `json:"vectors"`
	Redundant       int      `json:"redundant"`
	Aborted         int      `json:"aborted"`
	RedundantFaults []string `json:"redundant_faults"`
	AbortedFaults   []string `json:"aborted_faults"`
}

// invariants checks what any correct response must satisfy, whatever
// the circuit: these guard seeds without committed digests.
func invariants(r request, body []byte) error {
	var v response
	if err := json.Unmarshal(body, &v); err != nil {
		return err
	}
	bad := func(format string, args ...any) error { return fmt.Errorf("invalid response: "+format, args...) }
	switch r.Endpoint {
	case "/v1/plan":
		switch planner := plannerOf(r.Class); {
		case v.Planner != planner:
			return bad("planner %q, want %q", v.Planner, planner)
		case planner == "cuts":
			if len(v.Points) > 4 || v.MaxCost > v.BaseCost || v.StatesVisited <= 0 {
				return bad("cuts plan %d points, cost %d of %d, %d states", len(v.Points), v.MaxCost, v.BaseCost, v.StatesVisited)
			}
		default:
			if v.TotalFaults <= 0 || v.CoveredAfter < v.CoveredBefore || v.CoveredAfter > v.TotalFaults || len(v.Points) > 7 {
				return bad("%s plan covers %d→%d of %d with %d points", planner, v.CoveredBefore, v.CoveredAfter, v.TotalFaults, len(v.Points))
			}
		}
	case "/v1/faultsim":
		if v.Faults <= 0 || v.Detected+len(v.Undetected) != v.Faults || len(v.FirstDetect) != v.Detected || v.Patterns > 32768 {
			return bad("faultsim %d faults, %d detected, %d undetected, %d first detects, %d patterns", v.Faults, v.Detected, len(v.Undetected), len(v.FirstDetect), v.Patterns)
		}
	case "/v1/atpg":
		if v.Faults <= 0 || v.Detected+v.Redundant+v.Aborted != v.Faults || len(v.RedundantFaults) != v.Redundant || len(v.AbortedFaults) != v.Aborted {
			return bad("atpg %d faults = %d detected + %d redundant + %d aborted", v.Faults, v.Detected, v.Redundant, v.Aborted)
		}
		for _, vec := range v.Vectors {
			if len(vec) != v.Circuit.Inputs {
				return bad("vector of %d bits for %d inputs", len(vec), v.Circuit.Inputs)
			}
		}
	}
	return nil
}

func plannerOf(class string) string {
	switch class {
	case "cuts", "hybrid":
		return class
	}
	return "observe"
}

// coverage is the pass's quality figure: covered_after/total_faults
// over observe and hybrid plans, detected/faults over faultsim and atpg
// (cuts plans report no coverage). Each pass index counts once.
func (c *checker) coverage() float64 {
	var num, den int
	idx := make([]int, 0, len(c.bodies))
	for i := range c.bodies {
		idx = append(idx, i)
	}
	sort.Ints(idx)
	for _, i := range idx {
		var v response
		if json.Unmarshal(c.bodies[i], &v) != nil {
			continue
		}
		switch {
		case c.pass[i].Endpoint == "/v1/plan" && v.TotalFaults > 0:
			num, den = num+v.CoveredAfter, den+v.TotalFaults
		case c.pass[i].Endpoint != "/v1/plan":
			num, den = num+v.Detected, den+v.Faults
		}
	}
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}
