package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one request
// share Req; Parent is the ID of the span that caused it (0 for roots).
type span struct {
	ID     int    `json:"id"`
	Name   string `json:"name"`
	Parent int    `json:"parent"`
	Req    string `json:"req"`
	Start  int64  `json:"start_ns"` // since the recorder was created
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// layer is the part of a span name before the first dot.
func (s span) layer() string {
	if i := strings.IndexByte(s.Name, '.'); i >= 0 {
		return s.Name[:i]
	}
	return s.Name
}

// recorder keeps spans in memory until the run ends. A disabled
// recorder returns ID 0 and records nothing.
type recorder struct {
	mu    sync.Mutex
	on    bool
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{on: true, t0: time.Now()} }

// add records a finished interval and returns its ID.
func (r *recorder) add(name string, parent int, req string, start, end time.Time) int {
	if !r.on {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Name: name, Parent: parent, Req: req, Start: start.Sub(r.t0).Nanoseconds(), End: end.Sub(r.t0).Nanoseconds()})
	return id
}

// begin opens a span whose end is set by end(id); the span is visible
// to children (as their parent) while open.
func (r *recorder) begin(name string, parent int, req string) int {
	now := time.Now()
	return r.add(name, parent, req, now, now)
}

func (r *recorder) end(id int) {
	if id == 0 {
		return
	}
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	r.spans[id-1].End = now
	r.mu.Unlock()
}

// timed runs f inside a span and returns the span's duration.
func (r *recorder) timed(name string, parent int, req string, f func()) time.Duration {
	start := time.Now()
	f()
	end := time.Now()
	r.add(name, parent, req, start, end)
	return end.Sub(start)
}

func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// writeJSONL writes every span as one JSON line.
func writeJSONL(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			_ = f.Close() // the encode error is the one to report
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		_ = f.Close() // the flush error is the one to report
		return err
	}
	return f.Close()
}

// selfTimes returns each span's self time in ns: its duration minus the
// part of its interval that its children's intervals cover.
func selfTimes(spans []span) map[int]int64 {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, reach := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, reach), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		out[s.ID] = s.dur() - covered
	}
	return out
}

// nameStat summarises the spans sharing one name.
type nameStat struct {
	Count    int     `json:"count"`
	TotalMS  float64 `json:"total_ms"`
	SelfMS   float64 `json:"self_ms"`
	MedianMS float64 `json:"median_ms"`
}

// summary is the per-name and per-layer digest of a span set.
type summary struct {
	Names  map[string]*nameStat `json:"names"`
	Layers map[string]float64   `json:"layer_self_ms"`
}

// summarize aggregates spans by name and, by self time, by layer.
func summarize(spans []span) summary {
	self := selfTimes(spans)
	sum := summary{Names: map[string]*nameStat{}, Layers: map[string]float64{}}
	durs := map[string][]float64{}
	for _, s := range spans {
		st := sum.Names[s.Name]
		if st == nil {
			st = &nameStat{}
			sum.Names[s.Name] = st
		}
		st.Count++
		st.TotalMS += float64(s.dur()) / 1e6
		st.SelfMS += float64(self[s.ID]) / 1e6
		durs[s.Name] = append(durs[s.Name], float64(s.dur())/1e6)
		sum.Layers[s.layer()] += float64(self[s.ID]) / 1e6
	}
	for name, d := range durs {
		sum.Names[name].MedianMS = median(d)
	}
	return sum
}

// medianMS is the median duration of the named spans (0 if none).
func (s summary) medianMS(name string) float64 {
	if st := s.Names[name]; st != nil {
		return st.MedianMS
	}
	return 0
}
