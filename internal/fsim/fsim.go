// Package fsim implements a parallel-pattern single-fault-propagation
// (PPSFP) fault simulator built from scratch: 64 random patterns are
// simulated against the good circuit, then each active fault is injected
// and propagated event-driven through its fanout cone, bit-parallel across
// the whole block. Detected faults are dropped from the active list
// (optional), which is what makes 32k-pattern runs cheap on circuits with
// thousands of faults.
package fsim

import (
	"context"
	"fmt"
	"math/bits"

	"repro/internal/fault"
	"repro/internal/logic"
	"repro/internal/netlist"
	"repro/internal/pattern"
	"repro/internal/progress"
)

// Options controls a fault simulation run.
type Options struct {
	// MaxPatterns bounds the number of patterns applied. Zero means 32768,
	// the canonical BIST test length of the era.
	MaxPatterns int
	// DropFaults removes a fault from the active list after its first
	// detection. Disable only for detection-probability estimation.
	DropFaults bool
	// CountDetections tallies how many patterns detect each fault
	// (requires DropFaults=false to be meaningful beyond first detection).
	CountDetections bool
}

// DefaultOptions is the standard configuration: 32768 patterns with fault
// dropping.
func DefaultOptions() Options {
	return Options{MaxPatterns: 32768, DropFaults: true}
}

// Result reports the outcome of a fault simulation run.
type Result struct {
	Faults   []fault.Fault // the simulated fault list
	Patterns int           // patterns actually applied

	// FirstDetect maps each detected fault to the zero-based index of the
	// first pattern that detects it.
	FirstDetect map[fault.Fault]int
	// DetectCount maps each fault to the number of detecting patterns
	// (only populated when Options.CountDetections).
	DetectCount map[fault.Fault]int
}

// Coverage returns the fraction of simulated faults detected.
func (r *Result) Coverage() float64 {
	if len(r.Faults) == 0 {
		return 1
	}
	return float64(len(r.FirstDetect)) / float64(len(r.Faults))
}

// Undetected returns the faults not detected, in input order.
func (r *Result) Undetected() []fault.Fault {
	var out []fault.Fault
	for _, f := range r.Faults {
		if _, ok := r.FirstDetect[f]; !ok {
			out = append(out, f)
		}
	}
	return out
}

// CurvePoint is one sample of a fault-coverage curve.
type CurvePoint struct {
	Patterns int
	Coverage float64
}

// Curve samples the coverage curve at multiples of step patterns,
// including the final pattern count.
func (r *Result) Curve(step int) []CurvePoint {
	if step <= 0 {
		step = 1024
	}
	var pts []CurvePoint
	for n := step; n < r.Patterns+step; n += step {
		if n > r.Patterns {
			n = r.Patterns
		}
		det := 0
		for _, idx := range r.FirstDetect {
			if idx < n {
				det++
			}
		}
		cov := 1.0
		if len(r.Faults) > 0 {
			cov = float64(det) / float64(len(r.Faults))
		}
		pts = append(pts, CurvePoint{Patterns: n, Coverage: cov})
		if n == r.Patterns {
			break
		}
	}
	return pts
}

// simulator holds the per-run scratch state for event-driven faulty
// propagation.
type simulator struct {
	c     *netlist.Circuit
	good  *logic.Simulator
	val   []uint64 // faulty values, valid when stamp == epoch
	stamp []int64
	sched []int64 // gate scheduled in this event wave when == epoch
	epoch int64

	// level buckets for the event wave
	buckets  [][]int
	minLevel int
	maxLevel int

	inbuf []uint64
}

func newSimulator(c *netlist.Circuit) *simulator {
	return &simulator{
		c:       c,
		good:    logic.New(c),
		val:     make([]uint64, c.NumGates()),
		stamp:   make([]int64, c.NumGates()),
		sched:   make([]int64, c.NumGates()),
		buckets: make([][]int, c.Depth()+1),
		inbuf:   make([]uint64, 0, 8),
	}
}

// faulty returns the current faulty-circuit value of a signal.
func (s *simulator) faulty(id int) uint64 {
	if s.stamp[id] == s.epoch {
		return s.val[id]
	}
	return s.good.Value(id)
}

// schedule queues a gate for evaluation in the current wave.
func (s *simulator) schedule(id int) {
	if s.sched[id] == s.epoch {
		return
	}
	s.sched[id] = s.epoch
	l := s.c.Level(id)
	s.buckets[l] = append(s.buckets[l], id)
	if l < s.minLevel {
		s.minLevel = l
	}
	if l > s.maxLevel {
		s.maxLevel = l
	}
}

// inject seeds the faulty value of fault f for the current block and
// returns the detection word observed directly at the injection site (for
// stem faults on primary outputs) plus whether anything diverged.
func (s *simulator) inject(f fault.Fault, mask uint64) (det uint64, active bool) {
	var fv uint64
	if f.Stuck {
		fv = ^uint64(0)
	}
	if f.IsStem() {
		g := f.Gate
		diff := (s.good.Value(g) ^ fv) & mask
		if diff == 0 {
			return 0, false
		}
		s.val[g] = fv
		s.stamp[g] = s.epoch
		if s.c.IsOutput(g) {
			det = diff
		}
		for _, consumer := range s.c.Fanout(g) {
			s.schedule(consumer)
		}
		return det, true
	}
	// Branch fault: re-evaluate the consuming gate with the branch pinned.
	g := f.Gate
	gate := s.c.Gate(g)
	s.inbuf = s.inbuf[:0]
	for pin, fin := range gate.Fanin {
		v := s.good.Value(fin)
		if pin == f.Pin {
			v = fv
		}
		s.inbuf = append(s.inbuf, v)
	}
	nv := gate.Type.EvalWords(s.inbuf)
	diff := (nv ^ s.good.Value(g)) & mask
	if diff == 0 {
		return 0, false
	}
	s.val[g] = nv
	s.stamp[g] = s.epoch
	if s.c.IsOutput(g) {
		det = diff
	}
	for _, consumer := range s.c.Fanout(g) {
		s.schedule(consumer)
	}
	return det, true
}

// propagate runs the event wave to quiescence and returns the detection
// word accumulated at primary outputs.
func (s *simulator) propagate(mask uint64, det uint64) uint64 {
	c := s.c
	for l := s.minLevel; l <= s.maxLevel; l++ {
		bucket := s.buckets[l]
		s.buckets[l] = bucket[:0]
		for _, id := range bucket {
			g := c.Gate(id)
			s.inbuf = s.inbuf[:0]
			for _, fin := range g.Fanin {
				s.inbuf = append(s.inbuf, s.faulty(fin))
			}
			nv := g.Type.EvalWords(s.inbuf)
			diff := (nv ^ s.good.Value(id)) & mask
			if diff == 0 {
				continue
			}
			s.val[id] = nv
			s.stamp[id] = s.epoch
			if c.IsOutput(id) {
				det |= diff
			}
			for _, consumer := range c.Fanout(id) {
				s.schedule(consumer)
			}
		}
	}
	return det
}

// Run fault-simulates the given fault list against patterns from src.
func Run(c *netlist.Circuit, faults []fault.Fault, src pattern.Source, opts Options) (*Result, error) {
	return RunContext(context.Background(), c, faults, src, opts)
}

// faultPollStride is how many faults a block simulates between polls of
// the done channel: one block on a 10,000-gate multiplier takes about
// 0.7 s, too long to wait for a deadline.
const faultPollStride = 256

// RunContext is Run with cancellation: the done channel is polled at
// the start of every 64-pattern block and every 256 faults within one,
// so an expired or cancelled context stops the run within a few hundred
// fault propagations. On cancellation the partial Result is returned
// alongside ctx.Err(). Its Patterns counts the blocks every fault
// completed; a fault the interrupted block already reached may also
// carry its detections from that block, so FirstDetect may hold indices
// at or past Patterns. Every FirstDetect entry is valid either way
// (detection indices never depend on the faults not yet simulated).
// When ctx carries a progress.Func, one "patterns" sample is emitted
// per block.
func RunContext(ctx context.Context, c *netlist.Circuit, faults []fault.Fault, src pattern.Source, opts Options) (*Result, error) {
	if opts.MaxPatterns <= 0 {
		opts.MaxPatterns = 32768
	}
	for _, f := range faults {
		if f.Gate < 0 || f.Gate >= c.NumGates() {
			return nil, fmt.Errorf("fsim: fault %v: gate out of range", f)
		}
		if !f.IsStem() && f.Pin >= len(c.Fanin(f.Gate)) {
			return nil, fmt.Errorf("fsim: fault %v: pin out of range", f)
		}
	}
	s := newSimulator(c)
	res := &Result{
		Faults:      faults,
		FirstDetect: make(map[fault.Fault]int),
	}
	if opts.CountDetections {
		res.DetectCount = make(map[fault.Fault]int)
	}
	active := make([]fault.Fault, len(faults))
	copy(active, faults)

	// ctx.Done() is nil for context.Background(), so the polls below
	// compile to a never-ready select arm and cost nothing on the
	// non-cancellable path. The progress reporter is hoisted here so the
	// measured loop performs a nil check per block, never a context
	// lookup.
	done := ctx.Done()
	report := progress.FromContext(ctx)
	words := make([]uint64, c.NumInputs())
	base := 0
	for base < opts.MaxPatterns && len(active) > 0 {
		select {
		case <-done:
			res.Patterns = base
			return res, ctx.Err()
		default:
		}
		if report != nil {
			report("patterns", int64(base), int64(opts.MaxPatterns))
		}
		n := src.FillBlock(words)
		if n == 0 {
			break
		}
		if base+n > opts.MaxPatterns {
			n = opts.MaxPatterns - base
		}
		mask := ^uint64(0)
		if n < 64 {
			mask = (uint64(1) << uint(n)) - 1
		}
		if err := s.good.Run(words); err != nil {
			return nil, err
		}
		kept := active[:0]
		for i, f := range active {
			if i%faultPollStride == faultPollStride-1 {
				select {
				case <-done:
					res.Patterns = base
					return res, ctx.Err()
				default:
				}
			}
			s.epoch++
			s.minLevel = len(s.buckets)
			s.maxLevel = -1
			det, ok := s.inject(f, mask)
			if ok && s.maxLevel >= s.minLevel {
				det = s.propagate(mask, det)
			}
			if det != 0 {
				if _, seen := res.FirstDetect[f]; !seen {
					res.FirstDetect[f] = base + bits.TrailingZeros64(det)
				}
				if opts.CountDetections {
					res.DetectCount[f] += bits.OnesCount64(det)
				}
				if opts.DropFaults {
					continue
				}
			}
			kept = append(kept, f)
		}
		active = kept
		base += n
	}
	res.Patterns = base
	return res, nil
}

// RunDefault fault-simulates the collapsed fault universe with default
// options under the given pattern source.
func RunDefault(c *netlist.Circuit, src pattern.Source) (*Result, error) {
	return Run(c, fault.CollapsedUniverse(c), src, DefaultOptions())
}
