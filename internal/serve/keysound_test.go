package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/cli"
	"repro/internal/jobs"
)

// Cache-key soundness by perturbation. For every JSON field of every
// endpoint's options and of the request envelope, found by reflection,
// two requests that differ only in that field must either hash to
// different cache keys or answer byte-identical bodies. Inputs outside
// the key — timeout_ms, the async envelope and header, and every
// server Config field — must leave the 200 body byte-identical.

// keyBases are the requests each endpoint's fields are perturbed on;
// the envelope's fields are perturbed on the first. Every keyed field
// changes the body on at least one of them, so a key that dropped the
// field would fail that row. cuts plans need a fanout-free circuit.
// c17 is no base for learn: learning changes nothing on it. On
// dag:gates=60,seed=1 with backtrack limit 1 it moves a fault from
// aborted to redundant.
var keyBases = map[string][]string{
	"/v1/plan": {
		`{"generate":"dag:gates=60,seed=1","options":{"planner":"observe","dth":0.25}}`,
		`{"generate":"dag:gates=60,seed=1","options":{"planner":"control","dth":0.25}}`,
		`{"generate":"dag:gates=60,seed=1","options":{"planner":"hybrid"}}`,
		`{"generate":"tree:leaves=16,seed=1","options":{"planner":"cuts"}}`,
	},
	"/v1/faultsim": {
		`{"generate":"dag:gates=60,seed=1","options":{"patterns":256}}`,
		`{"generate":"dag:gates=60,seed=1","options":{"patterns":256,"count_detections":true}}`,
	},
	"/v1/atpg": {
		`{"generate":"dag:gates=60,seed=1","options":{"backtrack_limit":1}}`,
	},
	"/v1/lint": {
		`{"generate":"dag:gates=60,seed=1"}`,
	},
}

// outsideKey are the request fields excluded from the cache key on
// purpose; TestInputsOutsideKeyKeepBodies covers them.
var outsideKey = map[string]bool{"timeout_ms": true, "mode": true}

// stringAlternates gives each string field the values it is perturbed
// to; the first that differs from the base is used. A string field with
// no entry fails the test, so a new one cannot go unchecked. bench is
// filled in by the test.
func stringAlternates(t *testing.T) map[string][]string {
	c17, err := cli.Generate("c17")
	if err != nil {
		t.Fatal(err)
	}
	text := string(canonicalNetlist(c17))
	return map[string][]string{
		"planner":  {"observe", "control"},
		"source":   {"counter"},
		"generate": {"dag:gates=60,seed=2"},
		"bench":    {text},
	}
}

// jsonName returns the field's JSON key, or "" for a field JSON skips.
func jsonName(f reflect.StructField) string {
	name, _, _ := strings.Cut(f.Tag.Get("json"), ",")
	switch name {
	case "-":
		return ""
	case "":
		return f.Name
	}
	return name
}

// alternate returns a valid value for the field that differs from v.
func alternate(t *testing.T, name string, v reflect.Value, strs map[string][]string) any {
	t.Helper()
	switch v.Kind() {
	case reflect.Bool:
		return !v.Bool()
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return v.Int() + 1
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		return v.Uint() + 1
	case reflect.Float32, reflect.Float64:
		return v.Float() / 2
	case reflect.String:
		for _, s := range strs[name] {
			if s != v.String() {
				return s
			}
		}
		t.Fatalf("string field %q has no alternate value; add one to stringAlternates", name)
	default:
		t.Fatalf("field %q has kind %s, which the perturbation cannot vary", name, v.Kind())
	}
	return nil
}

// perturb returns body with one field set: an options field when
// inOptions, else an envelope field. The two circuit forms exclude each
// other, so setting one drops the other.
func perturb(t *testing.T, body, name string, inOptions bool, v any) string {
	t.Helper()
	var env map[string]any
	dec := json.NewDecoder(strings.NewReader(body))
	dec.UseNumber()
	if err := dec.Decode(&env); err != nil {
		t.Fatal(err)
	}
	switch {
	case inOptions:
		opts, _ := env["options"].(map[string]any)
		if opts == nil {
			opts = map[string]any{}
		}
		opts[name] = v
		env["options"] = opts
	case name == "bench":
		delete(env, "generate")
		env[name] = v
	case name == "generate":
		delete(env, "bench")
		env[name] = v
	default:
		env[name] = v
	}
	b, err := json.Marshal(env)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// serveBody sends one request through h and returns its 200 body.
func serveBody(t *testing.T, h http.Handler, endpoint, body string) (string, []byte) {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, endpoint, strings.NewReader(body)))
	if rec.Code != http.StatusOK {
		t.Fatalf("%s %s: status %d body %s", endpoint, body, rec.Code, rec.Body)
	}
	return rec.Header().Get("X-Cache"), rec.Body.Bytes()
}

// TestCacheKeySoundness perturbs every keyed field on every base of its
// endpoint: either the two cache keys differ, or the two uncached
// bodies are byte-identical.
func TestCacheKeySoundness(t *testing.T) {
	// A one-byte cache stores nothing, so every body is computed.
	s, _ := newTestServer(t, Config{CacheBytes: 1})
	h := s.Handler()
	strs := stringAlternates(t)
	bodies := map[string][]byte{}
	uncached := func(endpoint, body string) []byte {
		if b, ok := bodies[endpoint+body]; ok {
			return b
		}
		xc, b := serveBody(t, h, endpoint, body)
		if xc != "miss" {
			t.Fatalf("%s %s: X-Cache %q, want an uncached body", endpoint, body, xc)
		}
		bodies[endpoint+body] = b
		return b
	}
	changed := map[string]bool{}
	row := func(endpoint, field, base, alt string) {
		same := bytes.Equal(uncached(endpoint, base), uncached(endpoint, alt))
		if !same && fullPathKey(t, s, endpoint, base) == fullPathKey(t, s, endpoint, alt) {
			t.Errorf("%s %s: %s and %s share a cache key but answer different bodies", endpoint, field, base, alt)
		}
		changed[endpoint+" "+field] = changed[endpoint+" "+field] || !same
	}

	envType := reflect.TypeOf(netlistRequest{})
	for endpoint, bases := range keyBases {
		for i, base := range bases {
			var envelope netlistRequest
			if err := json.Unmarshal([]byte(base), &envelope); err != nil {
				t.Fatal(err)
			}
			keyOpts, _, _, err := s.parsers[endpoint](envelope.Options)
			if err != nil {
				t.Fatal(err)
			}
			// keyOpts is the defaulted options struct the key hashes.
			opts := reflect.ValueOf(keyOpts)
			for k := 0; k < opts.NumField(); k++ {
				name := jsonName(opts.Type().Field(k))
				if name == "" || outsideKey[name] {
					continue
				}
				row(endpoint, name, base, perturb(t, base, name, true, alternate(t, name, opts.Field(k), strs)))
			}
			if i > 0 {
				continue
			}
			env := reflect.ValueOf(envelope)
			for k := 0; k < envType.NumField(); k++ {
				f := envType.Field(k)
				name := jsonName(f)
				// options is covered field by field above.
				if name == "" || outsideKey[name] || f.Type == reflect.TypeOf(json.RawMessage(nil)) {
					continue
				}
				row(endpoint, name, base, perturb(t, base, name, false, alternate(t, name, env.Field(k), strs)))
			}
		}
	}

	// A field that changes no body on any base splits the cache for
	// nothing; report it.
	var idle []string
	for field, ch := range changed {
		if !ch {
			idle = append(idle, field)
		}
	}
	sort.Strings(idle)
	for _, field := range idle {
		t.Logf("%s is keyed but changed no body on any base", field)
	}
}

// TestInputsOutsideKeyKeepBodies varies every input the cache key
// leaves out on every base and requires the sync body unchanged:
// timeout_ms (which must also keep the key), async mode through the
// envelope and through the Prefer header (the job's result must equal
// the sync body), and every server Config field, set by reflection to a
// non-default value.
func TestInputsOutsideKeyKeepBodies(t *testing.T) {
	s, ts := newTestServer(t, Config{CacheBytes: 1})
	want := map[string][]byte{}
	for endpoint, bases := range keyBases {
		for _, base := range bases {
			_, want[endpoint+base] = serveBody(t, s.Handler(), endpoint, base)

			timed := perturb(t, base, "timeout_ms", true, 60000)
			if fullPathKey(t, s, endpoint, timed) != fullPathKey(t, s, endpoint, base) {
				t.Errorf("%s %s: timeout_ms changed the cache key", endpoint, base)
			}
			if _, got := serveBody(t, s.Handler(), endpoint, timed); !bytes.Equal(got, want[endpoint+base]) {
				t.Errorf("%s %s: timeout_ms changed the body", endpoint, base)
			}

			// /v1/lint answers synchronously only.
			if endpoint == "/v1/lint" {
				continue
			}
			sub := submitAsync(t, ts.URL+endpoint, perturb(t, base, "mode", false, "async"))
			if got := waitJob(t, ts.URL, sub.Job.ID, jobs.Done).Result; !bytes.Equal(got, want[endpoint+base]) {
				t.Errorf("%s %s: mode async result differs from the sync body:\n%s\n%s", endpoint, base, got, want[endpoint+base])
			}
			st, b := postPrefer(t, ts.URL+endpoint, base)
			if st != http.StatusAccepted {
				t.Fatalf("%s %s with Prefer: status %d body %s", endpoint, base, st, b)
			}
			var pref submitResponse
			if err := json.Unmarshal(b, &pref); err != nil {
				t.Fatal(err)
			}
			if got := waitJob(t, ts.URL, pref.Job.ID, jobs.Done).Result; !bytes.Equal(got, want[endpoint+base]) {
				t.Errorf("%s %s: Prefer: respond-async result differs from the sync body", endpoint, base)
			}
		}
	}

	cfgType := reflect.TypeOf(Config{})
	for k := 0; k < cfgType.NumField(); k++ {
		f := cfgType.Field(k)
		var cfg Config
		v := reflect.ValueOf(&cfg).Elem().Field(k)
		switch {
		case f.Type == reflect.TypeOf(time.Duration(0)):
			v.SetInt(int64(time.Hour + time.Minute))
		case f.Type.Kind() == reflect.Int:
			v.SetInt(7)
		case f.Type.Kind() == reflect.Int64:
			v.SetInt(1 << 30)
		case f.Name == "JobDir":
			v.SetString(t.TempDir())
		default:
			t.Fatalf("Config.%s (%s) has no non-default value; add one here", f.Name, f.Type)
		}
		other, _ := newTestServer(t, cfg)
		for endpoint, bases := range keyBases {
			for _, base := range bases {
				if _, got := serveBody(t, other.Handler(), endpoint, base); !bytes.Equal(got, want[endpoint+base]) {
					t.Errorf("Config.%s = %v changed the %s body for %s", f.Name, v, endpoint, base)
				}
			}
		}
	}
}

// TestFaultsimDetectCountsOption: count_detections populates a sorted
// detect_counts section with one entry per detected fault, and no
// section without it.
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

	st, _, b2 := post(t, ts.URL+"/v1/faultsim", plain)
	if st != 200 {
		t.Fatalf("plain: status=%d body=%s", st, b2)
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
// the implicit-default cache entry, and negative values are rejected.
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
	st, _, b := post(t, ts.URL+"/v1/plan", body(`{"planner":"control","max_candidates":-1}`))
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
