package serve

import (
	"sync"
	"sync/atomic"
)

// latencyBucketsMS are the fixed upper bounds (milliseconds, inclusive)
// of the request latency histogram; an implicit +Inf bucket follows.
var latencyBucketsMS = [numBuckets - 1]int64{1, 2, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000}

// numBuckets counts the bounded buckets plus the +Inf overflow bucket.
const numBuckets = 13

// histogram is a fixed-bucket latency histogram with atomic counters.
type histogram struct {
	counts [numBuckets]atomic.Int64
}

func (h *histogram) observe(ms int64) {
	for i, ub := range latencyBucketsMS {
		if ms <= ub {
			h.counts[i].Add(1)
			return
		}
	}
	h.counts[len(latencyBucketsMS)].Add(1)
}

// endpointStats accumulates per-endpoint counters.
type endpointStats struct {
	requests atomic.Int64
	byClass  [6]atomic.Int64 // index = status/100 (0 unused; 4 covers 499)
	latency  histogram
}

// Metrics tracks per-endpoint request counts and latencies plus the
// service-wide in-flight gauge. Endpoint rows are created lazily under
// a mutex; the hot-path counters themselves are atomics.
type Metrics struct {
	mu        sync.Mutex
	endpoints map[string]*endpointStats
	inFlight  atomic.Int64
}

// NewMetrics returns an empty metrics registry.
func NewMetrics() *Metrics {
	return &Metrics{endpoints: make(map[string]*endpointStats)}
}

func (m *Metrics) endpoint(name string) *endpointStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	es, ok := m.endpoints[name]
	if !ok {
		es = &endpointStats{}
		m.endpoints[name] = es
	}
	return es
}

// record notes one finished request.
func (m *Metrics) record(endpoint string, status int, ms int64) {
	es := m.endpoint(endpoint)
	es.requests.Add(1)
	if c := status / 100; c >= 1 && c <= 5 {
		es.byClass[c].Add(1)
	}
	es.latency.observe(ms)
}

// EndpointSnapshot is the exported view of one endpoint's counters.
type EndpointSnapshot struct {
	Requests  int64            `json:"requests"`
	ByStatus  map[string]int64 `json:"by_status"`
	LatencyMS map[string]int64 `json:"latency_ms"`
}

// Snapshot returns the per-endpoint counters keyed by endpoint name,
// with histogram buckets rendered as "le_<bound>"/"gt_5000" keys.
// (JSON object keys marshal sorted, keeping /v1/stats deterministic for
// a fixed counter state.)
func (m *Metrics) Snapshot() map[string]EndpointSnapshot {
	m.mu.Lock()
	names := make([]string, 0, len(m.endpoints))
	for n := range m.endpoints {
		names = append(names, n)
	}
	m.mu.Unlock()

	out := make(map[string]EndpointSnapshot, len(names))
	for _, n := range names {
		es := m.endpoint(n)
		snap := EndpointSnapshot{
			Requests:  es.requests.Load(),
			ByStatus:  make(map[string]int64),
			LatencyMS: make(map[string]int64),
		}
		classes := [6]string{"", "1xx", "2xx", "3xx", "4xx", "5xx"}
		for c := 1; c <= 5; c++ {
			if v := es.byClass[c].Load(); v > 0 {
				snap.ByStatus[classes[c]] = v
			}
		}
		for i, ub := range latencyBucketsMS {
			snap.LatencyMS[bucketLabel(ub)] = es.latency.counts[i].Load()
		}
		snap.LatencyMS["gt_5000"] = es.latency.counts[len(latencyBucketsMS)].Load()
		out[n] = snap
	}
	return out
}

func bucketLabel(ub int64) string {
	// Zero-pad so lexicographic key order (JSON marshal order) matches
	// numeric bucket order.
	const digits = 4
	s := make([]byte, 0, 8)
	s = append(s, 'l', 'e', '_')
	var buf [digits]byte
	for i := digits - 1; i >= 0; i-- {
		buf[i] = byte('0' + ub%10)
		ub /= 10
	}
	return string(append(s, buf[:]...))
}
