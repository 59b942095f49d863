package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/cli"
)

// fuzzEndpoints are the engine endpoints FuzzServeRequest picks from.
var fuzzEndpoints = []string{"/v1/plan", "/v1/faultsim", "/v1/atpg", "/v1/lint"}

// fuzzGates bounds the generator specs FuzzServeRequest sends, so that
// an input costs milliseconds; a larger spec is skipped.
const fuzzGates = 600

// fuzzValues are the values an option field of each kind takes, picked
// by a fuzz byte: the defaults' neighbours, limits, and values every
// endpoint refuses.
var fuzzValues = map[reflect.Kind][]any{
	reflect.Bool:    {false, true},
	reflect.Int:     {0, 1, 2, 3, 4, -1, 64, 100000},
	reflect.Uint64:  {0, 1, 2, 7, 1 << 40},
	reflect.Float64: {0.25, 1.0 / 4096, 1, 0, -1, 2, 1e-300},
}

// fuzzStrings are the values of each string option field: every value
// the endpoint knows, and one it does not.
var fuzzStrings = map[string][]any{
	"planner": {"cuts", "observe", "control", "hybrid", "nosuch"},
	"source":  {"lfsr", "counter", "nosuch"},
}

// fuzzOptions builds an endpoint's option object from fuzz bytes over
// the fields TestCacheKeySoundness perturbs, found the same way: by
// reflection over the defaulted options struct the endpoint's parser
// returns. Byte i decides field i: 0 leaves it out, any other value
// picks one of the field's values. timeout_ms is always 200.
func fuzzOptions(t *testing.T, s *Server, endpoint string, choice []byte) map[string]any {
	keyOpts, _, _, err := s.parsers[endpoint](nil)
	if err != nil {
		t.Fatal(err)
	}
	opts := map[string]any{"timeout_ms": 200}
	typ := reflect.TypeOf(keyOpts)
	for k := 0; k < typ.NumField(); k++ {
		name := jsonName(typ.Field(k))
		if name == "" || outsideKey[name] || k >= len(choice) || choice[k] == 0 {
			continue
		}
		values := fuzzValues[typ.Field(k).Type.Kind()]
		if typ.Field(k).Type.Kind() == reflect.String {
			values = fuzzStrings[name]
		}
		if len(values) == 0 {
			t.Fatalf("%s option %q has kind %s, which fuzzValues lacks", endpoint, name, typ.Field(k).Type.Kind())
		}
		opts[name] = values[int(choice[k]-1)%len(values)]
	}
	return opts
}

// FuzzServeRequest sends one request to a one-worker in-process server
// with a 200 ms deadline: an endpoint, and a generator spec, an inline
// netlist or a whole raw body (form 0, 1 or 2), with options built by
// fuzzOptions. The server must answer 200, 400 or 504 with one JSON
// value, leave no worker running, and answer a repeat of a 200 or 400
// with the same bytes. A 504 depends on timing, so its repeat may
// answer 200 instead.
func FuzzServeRequest(f *testing.F) {
	text := func(spec string) string {
		c, err := cli.Generate(spec)
		if err != nil {
			f.Fatal(err)
		}
		return string(canonicalNetlist(c))
	}
	for _, tc := range badRequestCases {
		f.Add(uint8(slices.Index(fuzzEndpoints, tc.endpoint)), uint8(2), tc.body, []byte(nil))
	}
	// Small versions of TestEndpointTimeouts' rows. The plan option
	// bytes pick the planner: 1 cuts, 2 observe, 3 control, 4 hybrid.
	for _, spec := range []string{"dag:gates=300,seed=5", "mul:width=6", "rpr:cones=3,width=10,glue=60,seed=3"} {
		for ep := range fuzzEndpoints {
			f.Add(uint8(ep), uint8(0), spec, []byte(nil))
		}
		for planner := byte(2); planner <= 4; planner++ {
			f.Add(uint8(0), uint8(0), spec, []byte{planner})
		}
	}
	for planner := byte(1); planner <= 4; planner++ {
		f.Add(uint8(0), uint8(0), "tree:leaves=200,seed=3", []byte{planner})
	}
	rca := text("rca:width=8")
	for ep := range fuzzEndpoints {
		f.Add(uint8(ep), uint8(1), rca, []byte{4, 1, 1, 1, 3, 1})
	}
	f.Add(uint8(1), uint8(0), "mul:width=8", []byte{8, 2, 1}) // 100000 counter patterns
	f.Add(uint8(2), uint8(1), text("c17"), []byte{3, 2, 2})   // backtrack limit 2, full universe, learning
	f.Add(uint8(0), uint8(1), "INPUT(a)\nOUTPUT(z)\nz = FOO(a)\n", []byte(nil))

	s, err := New(Config{Workers: 1})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(s.Close)
	h := s.Handler()
	f.Fuzz(func(t *testing.T, ep, form uint8, circuit string, choice []byte) {
		endpoint := fuzzEndpoints[int(ep)%len(fuzzEndpoints)]
		var body []byte
		switch form % 3 {
		case 0:
			if _, err := cli.GenerateWithin(circuit, fuzzGates); err != nil && strings.Contains(err.Error(), "over the limit") {
				t.Skip("generator spec over the fuzz size bound")
			}
			body = marshal(t, map[string]any{"generate": circuit, "options": fuzzOptions(t, s, endpoint, choice)})
		case 1:
			body = marshal(t, map[string]any{"bench": circuit, "options": fuzzOptions(t, s, endpoint, choice)})
		default:
			// An async body answers 202 and leaves a job running.
			if req, err := decodeEnvelope([]byte(circuit)); err == nil && req.Mode == "async" {
				t.Skip("async body")
			}
			body = []byte(circuit)
		}
		send := func() (int, []byte) {
			rr := httptest.NewRecorder()
			h.ServeHTTP(rr, httptest.NewRequest(http.MethodPost, endpoint, bytes.NewReader(body)))
			st, b := rr.Code, rr.Body.Bytes()
			switch st {
			case http.StatusOK, http.StatusBadRequest, http.StatusGatewayTimeout:
			default:
				t.Fatalf("%s %.300s: status %d body %.300s", endpoint, body, st, b)
			}
			if err := oneJSONValue(b); err != nil {
				t.Fatalf("%s %.300s: status %d, body %.300q is not one JSON value: %v", endpoint, body, st, b, err)
			}
			if running := s.pool.Stats().Running; running != 0 {
				t.Fatalf("%s %.300s: %d worker(s) still running after the answer", endpoint, body, running)
			}
			return st, b
		}
		st, first := send()
		st2, again := send()
		switch {
		case st == http.StatusGatewayTimeout && st2 != http.StatusOK && st2 != http.StatusGatewayTimeout:
			t.Fatalf("%s %.300s: repeat of a 504 answered %d", endpoint, body, st2)
		case st != http.StatusGatewayTimeout && !bytes.Equal(first, again):
			t.Fatalf("%s %.300s: status %d body %.300s, repeated: status %d body %.300s", endpoint, body, st, first, st2, again)
		}
	})
}

// marshal is json.Marshal for test values that always encode.
func marshal(t *testing.T, v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// oneJSONValue reports whether b holds exactly one JSON value, with
// nothing but white space after it.
func oneJSONValue(b []byte) error {
	dec := json.NewDecoder(bytes.NewReader(b))
	var v json.RawMessage
	if err := dec.Decode(&v); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return errors.New("data after the first value")
	}
	return nil
}
