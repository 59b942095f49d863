package main

import (
	"bytes"
	"math"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ q, want float64 }{{0.1, 1}, {0.5, 5}, {0.9, 9}, {0.95, 10}, {1, 10}} {
		if got := percentile(s, c.q); got != c.want {
			t.Errorf("percentile(1..10, %v) = %v, want %v", c.q, got, c.want)
		}
	}
	if !math.IsNaN(percentile(nil, 0.5)) {
		t.Error("percentile of no samples is not NaN")
	}
}

func TestTenBeyondRule(t *testing.T) {
	if got := minSamples(0.95); got != 200 {
		t.Errorf("minSamples(0.95) = %d, want 200", got)
	}
	if !supports(200, 0.95) || supports(199, 0.95) {
		t.Error("p95 must need exactly 200 samples")
	}
	if got := minSamples(0.5); got != 20 {
		t.Errorf("minSamples(0.5) = %d, want 20", got)
	}
}

func TestPassesFixTheWork(t *testing.T) {
	w := &workload{Pass: make([]request, 80), PassSeconds: 4}
	for _, c := range []struct {
		seconds float64
		minN    int
		want    int
	}{{10, 1, 3}, {10, 200, 3}, {10, 241, 4}, {0.1, 1, 1}, {30, 200, 8}} {
		if got := w.passes(c.seconds, c.minN); got != c.want {
			t.Errorf("passes(%v s, %d samples) = %d, want %d", c.seconds, c.minN, got, c.want)
		}
	}
}

func TestSelfTimeOverNestedSpans(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "serve.handler", Start: 0, End: 100},
		{ID: 2, Name: "bench.parse", Parent: 1, Start: 10, End: 30},
		{ID: 3, Name: "bench.canon", Parent: 1, Start: 20, End: 50},  // overlaps its sibling
		{ID: 4, Name: "tpi.observe", Parent: 1, Start: 90, End: 120}, // runs past its parent
		{ID: 5, Name: "tpi.opdp", Parent: 4, Start: 95, End: 100},
	}
	self := selfTimes(spans)
	// The children cover [10,50] and [90,100] of the parent: 50 of 100.
	want := map[int]int64{1: 50, 2: 20, 3: 30, 4: 25, 5: 5}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], w)
		}
	}
	sum := summarize(spans)
	if got := sum.Layers["bench"]; got != 50e-6 {
		t.Errorf("bench layer self time = %v ms, want 5e-5", got)
	}
	if got := sum.Names["tpi.observe"].Count; got != 1 {
		t.Errorf("tpi.observe count = %d", got)
	}
}

func TestRecorderOffRecordsNothing(t *testing.T) {
	r := &recorder{}
	id := r.begin("serve.handler", 0, "x")
	r.end(id)
	if id != 0 || len(r.snapshot()) != 0 {
		t.Fatal("disabled recorder kept a span")
	}
}

func TestRequestListsPerSeed(t *testing.T) {
	for _, name := range workloadNames {
		a, err := buildWorkload(name, DefaultSeed)
		if err != nil {
			t.Fatal(err)
		}
		again, err := buildWorkload(name, DefaultSeed)
		if err != nil {
			t.Fatal(err)
		}
		held, err := buildWorkload(name, HeldOutSeed)
		if err != nil {
			t.Fatal(err)
		}
		if !sameBodies(a.Pass, again.Pass) || !sameBodies(a.Warm, again.Warm) || !sameBodies(a.Prefill, again.Prefill) {
			t.Errorf("%s: request lists differ between two builds of seed %d", name, DefaultSeed)
		}
		if sameBodies(a.Pass, held.Pass) {
			t.Errorf("%s: seeds %d and %d give identical request lists", name, DefaultSeed, HeldOutSeed)
		}
		if name != "plan-hit" && (!sameBodies(a.Warm, held.Warm) || !sameBodies(a.Prefill, held.Prefill)) {
			t.Errorf("%s: set-up traffic differs across seeds", name)
		}
		if ca, ch := classCounts(a.Pass), classCounts(held.Pass); !equalCounts(ca, ch) {
			t.Errorf("%s: class mix differs across seeds: %v vs %v", name, ca, ch)
		}
	}
}

func sameBodies(a, b []request) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Class != b[i].Class || !bytes.Equal(a[i].Body, b[i].Body) {
			return false
		}
	}
	return true
}

func classCounts(rs []request) map[string]int {
	m := map[string]int{}
	for _, r := range rs {
		m[r.Class]++
	}
	return m
}

func equalCounts(a, b map[string]int) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

func TestDigestCheckCatchesFlippedByte(t *testing.T) {
	pass := []request{{Class: "faultsim", Endpoint: "/v1/faultsim"}}
	body := []byte(`{"faults":2,"patterns":64,"detected":1,"first_detect":[{"fault":"a/0","pattern":3}],"undetected":["b/1"]}`)
	ck, err := newChecker(pass, []string{digest(body)})
	if err != nil {
		t.Fatal(err)
	}
	flipped := bytes.Clone(body)
	flipped[len(flipped)-3] ^= 1
	if err := ck.check(0, flipped); err == nil {
		t.Fatal("flipped byte passed the committed digest")
	}
	if err := ck.check(0, body); err != nil {
		t.Fatalf("correct body rejected: %v", err)
	}

	// Without a committed digest, a later response for the same request
	// must still equal the first.
	free, err := newChecker(pass, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := free.check(0, body); err != nil {
		t.Fatal(err)
	}
	if err := free.check(0, flipped); err == nil {
		t.Fatal("differing repeat response passed")
	}
}

func TestInvariantsRejectInconsistentCounts(t *testing.T) {
	r := request{Class: "atpg", Endpoint: "/v1/atpg"}
	ok := []byte(`{"circuit":{"inputs":2},"faults":3,"vectors":["01"],"detected":2,"redundant":1,"aborted":0,"redundant_faults":["x/0"],"aborted_faults":[]}`)
	if err := invariants(r, ok); err != nil {
		t.Fatalf("consistent atpg response rejected: %v", err)
	}
	bad := bytes.Replace(ok, []byte(`"detected":2`), []byte(`"detected":3`), 1)
	if err := invariants(r, bad); err == nil {
		t.Fatal("atpg counts that do not sum to faults passed")
	}
}
