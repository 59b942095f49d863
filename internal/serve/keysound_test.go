package serve

import (
	"bytes"
	"encoding/json"
	"sort"
	"testing"
)

// The tests in this file are the runtime half of the G011 cache-key
// soundness story: every engine option the serve layer feeds must come
// from keyed request data, and every keyed request field must change
// the cache key. Each test pins one of the feeds wired in for the
// cache-key audit (atpg learn, faultsim count_detections, plan
// max_candidates).

// TestATPGLearnOptionSplitsCacheKey: learn:true builds the implication
// engine and must hash to its own cache entry; per-fault status is
// unchanged by learning.
func TestATPGLearnOptionSplitsCacheKey(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	plain := `{"generate":"c17","options":{}}`
	learn := `{"generate":"c17","options":{"learn":true}}`

	st, xc, base := post(t, ts.URL+"/v1/atpg", plain)
	if st != 200 || xc != "miss" {
		t.Fatalf("plain cold: status=%d X-Cache=%q body=%s", st, xc, base)
	}
	st, xc, learned := post(t, ts.URL+"/v1/atpg", learn)
	if st != 200 {
		t.Fatalf("learn cold: status=%d body=%s", st, learned)
	}
	if xc != "miss" {
		t.Fatalf("learn:true served from the learn:false cache entry (X-Cache=%q): the option is not keyed", xc)
	}
	st, xc, again := post(t, ts.URL+"/v1/atpg", learn)
	if st != 200 || xc != "hit" {
		t.Fatalf("learn warm: status=%d X-Cache=%q", st, xc)
	}
	if !bytes.Equal(learned, again) {
		t.Fatal("learn cache hit not byte-identical")
	}

	var p1, p2 atpgResponse
	if err := json.Unmarshal(base, &p1); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(learned, &p2); err != nil {
		t.Fatal(err)
	}
	if p1.Detected != p2.Detected || p1.Redundant != p2.Redundant || p1.Aborted != p2.Aborted {
		t.Errorf("learning changed per-fault status: plain %d/%d/%d, learned %d/%d/%d",
			p1.Detected, p1.Redundant, p1.Aborted, p2.Detected, p2.Redundant, p2.Aborted)
	}
}

// TestFaultsimDetectCountsOption: count_detections populates a sorted
// detect_counts section and splits the cache key.
func TestFaultsimDetectCountsOption(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	counted := `{"generate":"c17","options":{"patterns":32,"source":"counter","keep_faults":true,"count_detections":true}}`
	plain := `{"generate":"c17","options":{"patterns":32,"source":"counter","keep_faults":true}}`

	st, _, b := post(t, ts.URL+"/v1/faultsim", counted)
	if st != 200 {
		t.Fatalf("counted: status=%d body=%s", st, b)
	}
	var resp simResponse
	if err := json.Unmarshal(b, &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.DetectCounts) == 0 {
		t.Fatal("count_detections:true returned no detect_counts")
	}
	if len(resp.DetectCounts) != resp.Detected {
		t.Errorf("detect_counts has %d entries, detected = %d", len(resp.DetectCounts), resp.Detected)
	}
	if !sort.SliceIsSorted(resp.DetectCounts, func(i, j int) bool {
		return resp.DetectCounts[i].Fault < resp.DetectCounts[j].Fault
	}) {
		t.Error("detect_counts not sorted by fault name")
	}
	for _, dc := range resp.DetectCounts {
		if dc.Count < 1 {
			t.Errorf("fault %s counted %d detections, want >= 1", dc.Fault, dc.Count)
		}
	}

	st, xc, b2 := post(t, ts.URL+"/v1/faultsim", plain)
	if st != 200 {
		t.Fatalf("plain: status=%d body=%s", st, b2)
	}
	if xc != "miss" {
		t.Fatalf("count_detections:false served from the counted cache entry (X-Cache=%q)", xc)
	}
	var resp2 simResponse
	if err := json.Unmarshal(b2, &resp2); err != nil {
		t.Fatal(err)
	}
	if len(resp2.DetectCounts) != 0 {
		t.Errorf("detect_counts present without count_detections: %v", resp2.DetectCounts)
	}
}

// TestPlanMaxCandidatesOption: the explicit default canonicalizes onto
// the implicit-default cache entry, a non-default value splits the key,
// and negative values are rejected.
func TestPlanMaxCandidatesOption(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	body := func(opts string) string {
		return `{"generate":"dag:gates=120,seed=3","options":` + opts + `}`
	}

	st, xc, _ := post(t, ts.URL+"/v1/plan", body(`{"planner":"control"}`))
	if st != 200 || xc != "miss" {
		t.Fatalf("default cold: status=%d X-Cache=%q", st, xc)
	}
	st, xc, _ = post(t, ts.URL+"/v1/plan", body(`{"planner":"control","max_candidates":0}`))
	if st != 200 || xc != "hit" {
		t.Fatalf("explicit default max_candidates=0 missed the default entry: status=%d X-Cache=%q", st, xc)
	}
	st, xc, b := post(t, ts.URL+"/v1/plan", body(`{"planner":"control","max_candidates":2}`))
	if st != 200 {
		t.Fatalf("max_candidates=2: status=%d body=%s", st, b)
	}
	if xc != "miss" {
		t.Fatalf("max_candidates=2 served from the default cache entry (X-Cache=%q): the option is not keyed", xc)
	}
	st, _, b = post(t, ts.URL+"/v1/plan", body(`{"planner":"control","max_candidates":-1}`))
	if st != 400 {
		t.Fatalf("max_candidates=-1: status=%d body=%s, want 400", st, b)
	}
}

// TestPlanDthOutOfRange: a dth outside (0, 1] is refused with 400 before
// it can reach the result cache or the key memo; dth 1 is accepted.
func TestPlanDthOutOfRange(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	body := func(dth string) string {
		return `{"generate":"c17","options":{"planner":"observe","dth":` + dth + `}}`
	}
	for _, dth := range []string{"-1", "0", "1.5"} {
		if st, _, b := post(t, ts.URL+"/v1/plan", body(dth)); st != 400 {
			t.Errorf("dth=%s: status=%d body=%s, want 400", dth, st, b)
		}
	}
	if cs := s.cache.Stats(); cs.Entries != 0 {
		t.Errorf("refused dth values left %d cache entries", cs.Entries)
	}
	if ms := s.memo.stats(); ms.Entries != 0 {
		t.Errorf("refused dth values left %d memo entries", ms.Entries)
	}
	if st, _, b := post(t, ts.URL+"/v1/plan", body("1")); st != 200 {
		t.Fatalf("dth=1: status=%d body=%s, want 200", st, b)
	}
}
