// Package g011 is a codelint fixture: cache-key soundness (rule G011).
// The route literal in Register marks parseThing as a handler root; its
// first return operand makes thingOptions the canonicalized (keyed)
// struct, and EngineOpts is pinned in engineOptionStructs. Depth shows
// the sound shape end to end — keyed request field, tainted feed,
// engine read — and must stay clean, as must Tuning (vetted in
// cacheKeyFieldAllowlist) and TimeoutMS (zero-stripped and vetted in
// keyExemptFields).
package g011

// EngineOpts mirrors an engine option struct handed across the serve
// boundary.
type EngineOpts struct {
	Depth  int  // fed from keyed request data and read: clean
	Boost  int  // finding: read by the engine but never fed
	Trace  bool // finding: fed from keyed data but never read
	Tuning int  // read at its zero default, vetted: clean
}

// thingOptions is the canonicalized request option struct.
type thingOptions struct {
	Depth     int    `json:"depth"` // keyed and read: clean
	Width     int    `json:"width"` // finding: hashed but never read
	Label     string `json:"-"`     // finding: excluded from the key but read
	TimeoutMS int    `json:"timeout_ms,omitempty"`
}

// mount records one route the way serve wires its endpoints; the
// "/v1/..." literal is what marks the parse argument as a root.
func mount(route string, parse func(int) (thingOptions, int)) map[string]func(int) (thingOptions, int) {
	return map[string]func(int) (thingOptions, int){route: parse}
}

// Register wires the fixture's single handler.
func Register() map[string]func(int) (thingOptions, int) {
	return mount("/v1/thing", parseThing)
}

// parseThing decodes, defaults, and strips the request options, then
// runs the engine — the shape of a serve parse function.
func parseThing(depth int) (thingOptions, int) {
	opts := thingOptions{Depth: depth, Width: 8, Label: "thing"}
	timeout := opts.TimeoutMS
	opts.TimeoutMS = 0
	return opts, timeout + runThing(buildOpts(opts), opts.Label)
}

// buildOpts is the serve-to-engine feed site.
func buildOpts(o thingOptions) EngineOpts {
	return EngineOpts{Depth: o.Depth, Trace: o.Depth > 2}
}

// runThing is the engine: what it reads is what must be keyed.
func runThing(o EngineOpts, label string) int {
	n := o.Depth + o.Boost + o.Tuning
	if label != "" {
		n++
	}
	return n
}

// The declarations below pin the reachability edges beyond plain calls
// and add no finding: Serve wires flush as a method value, and flush
// reaches reset only through a deferred call.

// handle records one route whose handler takes no options.
func handle(route string, h func()) map[string]func() {
	return map[string]func(){route: h}
}

// buffer owns the handler the method value binds.
type buffer struct{ pending []int }

// Serve wires flush as the "/v1/flush" handler via a method value.
func Serve(b *buffer) map[string]func() {
	return handle("/v1/flush", b.flush)
}

// flush reaches reset only through its deferred call.
func (b *buffer) flush() {
	defer b.reset()
	b.pending = append(b.pending, len(b.pending))
}

// reset empties the buffer.
func (b *buffer) reset() { b.pending = b.pending[:0] }
