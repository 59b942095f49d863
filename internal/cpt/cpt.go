// Package cpt implements critical path tracing, the third classic fault
// grading algorithm (after parallel-pattern and deductive simulation):
// instead of injecting faults, it computes for each applied pattern which
// *lines* are critical — lines whose value flip would change a primary
// output — by tracing sensitized paths backward from the outputs. A
// stuck-at fault is detected by the pattern exactly when its line is
// critical and the fault is excited.
//
// Inside a fanout-free region criticality propagates by local gate rules
// (a gate input is critical iff the gate's output is critical and the
// input is the unique sensitizing one). Fanout stems cannot be traced
// locally — reconvergence can cancel the effect — so each stem is
// resolved exactly by a single-pattern flip simulation of its fanout
// cone, the "stem analysis" step of the published algorithm.
//
// Like internal/dsim, this engine doubles as an independent
// cross-validation oracle for the PPSFP simulator.
package cpt

import (
	"fmt"

	"repro/internal/fault"
	"repro/internal/logic"
	"repro/internal/netlist"
	"repro/internal/pattern"
)

// Options bounds a run.
type Options struct {
	// MaxPatterns bounds the run (0 = 32768).
	MaxPatterns int
	// DropFaults stops grading a fault after its first detection.
	DropFaults bool
}

// Result mirrors the other engines' reporting.
type Result struct {
	Faults      []fault.Fault
	Patterns    int
	FirstDetect map[fault.Fault]int
}

// Coverage returns the detected fraction.
func (r *Result) Coverage() float64 {
	if len(r.Faults) == 0 {
		return 1
	}
	return float64(len(r.FirstDetect)) / float64(len(r.Faults))
}

type engine struct {
	c    *netlist.Circuit
	good *logic.Simulator
	// lineCrit[g]: the output line of g is critical under the current
	// pattern.
	lineCrit []bool
	// flip-simulation scratch
	val   []bool
	stamp []int64
	sched []int64
	epoch int64
	// level buckets for the flip wave
	buckets  [][]int
	minLevel int
	maxLevel int
	inbuf    []bool
	revTopo  []int
}

// Run grades the fault list by critical path tracing.
func Run(c *netlist.Circuit, faults []fault.Fault, src pattern.Source, opts Options) (*Result, error) {
	if opts.MaxPatterns <= 0 {
		opts.MaxPatterns = 32768
	}
	for _, f := range faults {
		if f.Gate < 0 || f.Gate >= c.NumGates() {
			return nil, fmt.Errorf("cpt: fault %v: gate out of range", f)
		}
		if !f.IsStem() && f.Pin >= len(c.Fanin(f.Gate)) {
			return nil, fmt.Errorf("cpt: fault %v: pin out of range", f)
		}
	}
	e := &engine{
		c:        c,
		good:     logic.New(c),
		lineCrit: make([]bool, c.NumGates()),
		val:      make([]bool, c.NumGates()),
		stamp:    make([]int64, c.NumGates()),
		sched:    make([]int64, c.NumGates()),
		buckets:  make([][]int, c.Depth()+1),
		inbuf:    make([]bool, 0, 8),
	}
	topo := c.TopoOrder()
	e.revTopo = make([]int, len(topo))
	for i, id := range topo {
		e.revTopo[len(topo)-1-i] = id
	}

	res := &Result{Faults: faults, FirstDetect: make(map[fault.Fault]int)}
	active := make([]fault.Fault, len(faults))
	copy(active, faults)
	words := make([]uint64, c.NumInputs())
	applied := 0
	for applied < opts.MaxPatterns && len(active) > 0 {
		n := src.FillBlock(words)
		if n == 0 {
			break
		}
		if applied+n > opts.MaxPatterns {
			n = opts.MaxPatterns - applied
		}
		if err := e.good.Run(words); err != nil {
			return nil, err
		}
		for b := 0; b < n; b++ {
			e.trace(uint(b))
			kept := active[:0]
			for _, f := range active {
				if e.detects(f, uint(b)) {
					if _, seen := res.FirstDetect[f]; !seen {
						res.FirstDetect[f] = applied + b
					}
					if opts.DropFaults {
						continue
					}
				}
				kept = append(kept, f)
			}
			active = kept
			if len(active) == 0 {
				res.Patterns = applied + b + 1
				return res, nil
			}
		}
		applied += n
	}
	res.Patterns = applied
	return res, nil
}

// goodBit reads the good value of a signal in lane b.
func (e *engine) goodBit(id int, b uint) bool {
	return e.good.Value(id)>>b&1 == 1
}

// trace computes lineCrit for every gate under pattern lane b.
func (e *engine) trace(b uint) {
	c := e.c
	for _, id := range e.revTopo {
		switch {
		case c.IsOutput(id):
			// Flipping an observed line always changes that output.
			e.lineCrit[id] = true
		case c.FanoutCount(id) == 0:
			e.lineCrit[id] = false
		case c.FanoutCount(id) == 1:
			consumer := c.Fanout(id)[0]
			pin := -1
			for p, f := range c.Fanin(consumer) {
				if f == id {
					pin = p
					break
				}
			}
			e.lineCrit[id] = e.lineCrit[consumer] && e.sensitized(consumer, pin, b)
		default:
			// Fanout stem: exact flip simulation through the cone.
			e.lineCrit[id] = e.stemFlipChangesOutput(id, b)
		}
	}
}

// sensitized reports whether a flip on input pin of gate propagates to
// the gate output under the current pattern lane.
func (e *engine) sensitized(gate, pin int, b uint) bool {
	g := e.c.Gate(gate)
	switch g.Type {
	case netlist.Buf, netlist.Not:
		return true
	case netlist.Xor, netlist.Xnor:
		return true
	}
	cv, _ := g.Type.ControllingValue()
	nCtrl := 0
	pinCtrl := false
	for p, f := range g.Fanin {
		if e.goodBit(f, b) == cv {
			nCtrl++
			if p == pin {
				pinCtrl = true
			}
		}
	}
	switch nCtrl {
	case 0:
		return true // flipping pin makes it the lone controlling input
	case 1:
		return pinCtrl // only the controlling input's flip matters
	default:
		return false // another input keeps the output pinned
	}
}

// branchCritical reports whether the branch into (gate, pin) is critical.
func (e *engine) branchCritical(gate, pin int, b uint) bool {
	return e.lineCrit[gate] && e.sensitized(gate, pin, b)
}

// detects applies the criticality verdicts to one fault.
func (e *engine) detects(f fault.Fault, b uint) bool {
	if f.IsStem() {
		return e.lineCrit[f.Gate] && e.goodBit(f.Gate, b) != f.Stuck
	}
	driver := e.c.Fanin(f.Gate)[f.Pin]
	return e.branchCritical(f.Gate, f.Pin, b) && e.goodBit(driver, b) != f.Stuck
}

// stemFlipChangesOutput event-simulates the stem forced to its complement
// and reports whether any primary output changes — exact stem analysis.
func (e *engine) stemFlipChangesOutput(stem int, b uint) bool {
	c := e.c
	e.epoch++
	e.minLevel = len(e.buckets)
	e.maxLevel = -1
	flipped := !e.goodBit(stem, b)
	e.val[stem] = flipped
	e.stamp[stem] = e.epoch
	if c.IsOutput(stem) {
		return true
	}
	for _, consumer := range c.Fanout(stem) {
		e.schedule(consumer)
	}
	for l := e.minLevel; l <= e.maxLevel; l++ {
		bucket := e.buckets[l]
		e.buckets[l] = bucket[:0]
		for _, id := range bucket {
			g := c.Gate(id)
			e.inbuf = e.inbuf[:0]
			for _, fin := range g.Fanin {
				e.inbuf = append(e.inbuf, e.faulty(fin, b))
			}
			nv := g.Type.Eval(e.inbuf)
			if nv == e.goodBit(id, b) {
				continue
			}
			e.val[id] = nv
			e.stamp[id] = e.epoch
			if c.IsOutput(id) {
				return true
			}
			for _, consumer := range c.Fanout(id) {
				e.schedule(consumer)
			}
		}
	}
	return false
}

func (e *engine) faulty(id int, b uint) bool {
	if e.stamp[id] == e.epoch {
		return e.val[id]
	}
	return e.goodBit(id, b)
}

func (e *engine) schedule(id int) {
	if e.sched[id] == e.epoch {
		return
	}
	e.sched[id] = e.epoch
	l := e.c.Level(id)
	e.buckets[l] = append(e.buckets[l], id)
	if l < e.minLevel {
		e.minLevel = l
	}
	if l > e.maxLevel {
		e.maxLevel = l
	}
}
