// Package serve exposes the repro engines — test point planning, fault
// simulation, ATPG, and netlist lint — as an HTTP/JSON service with a
// bounded worker pool, per-request deadlines, and a content-addressed
// result cache.
//
// Caching correctness rests on two invariants enforced here:
//
//  1. Cache keys are content-addressed over a *canonical* form of the
//     request, not its wire bytes: the netlist is parsed and re-rendered
//     through bench.Write (fixed header, topological gate order, fixed
//     mnemonics), and the options are decoded into a typed struct,
//     defaulted, and re-marshalled (fixed field order). Two requests
//     that differ only in whitespace, key order, or explicitly-spelled
//     defaults therefore share a key. The per-request timeout is
//     excluded from the key because it does not affect the result.
//
//  2. Responses are rendered to JSON once, by the engine execution that
//     populated the cache, and the stored bytes are replayed verbatim
//     on hits — cache hits are byte-identical to the cold response.
//
//  3. The key memo only short-cuts computing a key; it never changes
//     one. It maps SHA-256 of the endpoint and the raw request body to
//     what the full path (derive) derived from that body: the cache
//     key, timeout_ms, and whether the envelope asked for async mode.
//     An entry is stored only after the request it came from succeeded,
//     so a refused body is never memoized. A repeat body then reaches
//     the result cache without decoding, parsing or generating,
//     canonicalizing, or re-hashing. If its result is no longer cached,
//     the body is decoded and its circuit and engine runner rebuilt, but
//     the memoized key is kept: derivation is deterministic in the body,
//     so canonicalizing and hashing again would reproduce it. A body
//     that differs in any byte, whitespace included, misses the memo and
//     still lands on its canonical key through the full path.
package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"

	"repro/internal/bench"
	"repro/internal/cli"
	"repro/internal/netlist"
)

// netlistRequest is the common request envelope: every engine endpoint
// accepts a circuit as either inline .bench text or a generator spec,
// plus endpoint-specific options.
type netlistRequest struct {
	// Bench is inline .bench netlist text.
	Bench string `json:"bench,omitempty"`
	// Generate is a generator spec ("kind:key=value,..."), e.g.
	// "dag:gates=600,seed=7" — see internal/cli.Generate.
	Generate string `json:"generate,omitempty"`
	// Options carries endpoint-specific options, decoded by the
	// endpoint handler.
	Options json.RawMessage `json:"options,omitempty"`
	// Mode selects the execution mode: "sync" (the default) answers in
	// the request, "async" enqueues a job and answers 202 with its ID.
	// Mode lives on the envelope, not in Options, so it stays out of
	// the cache key: a request computes the same result either way.
	Mode string `json:"mode,omitempty"`
}

var errNoCircuit = errors.New(`request must set exactly one of "bench" or "generate"`)

// requestName is the fixed circuit name given to inline bench uploads so
// that uploads differing only in formatting canonicalize identically
// (bench.Write embeds the circuit name in its header).
const requestName = "request"

// maxGenerateGates bounds the circuits a generator spec may build.
// Generation runs before the request deadline and the worker pool
// apply, and the random generators are quadratic in their size, so an
// unbounded spec would hold a handler and a CPU far past any timeout;
// oversized specs are refused with 400 before anything is built. Inline
// bench uploads are bounded by Config.MaxBody instead.
const maxGenerateGates = 10000

// parseCircuit materializes the request's circuit. Generator specs are
// deterministic, so both forms canonicalize through bench.Write. A
// parsed circuit needs no Validate: netlist.Assemble checks the name
// index the parser hands it, and builds everything else Validate
// checks.
func parseCircuit(req *netlistRequest) (*netlist.Circuit, error) {
	switch {
	case req.Bench != "" && req.Generate != "":
		return nil, errNoCircuit
	case req.Bench != "":
		return bench.ParseString(req.Bench, requestName)
	case req.Generate != "":
		return cli.GenerateWithin(req.Generate, maxGenerateGates)
	default:
		return nil, errNoCircuit
	}
}

// canonicalNetlist renders the circuit in canonical .bench form: the
// content-addressed half of every cache key.
func canonicalNetlist(c *netlist.Circuit) []byte { return bench.Append(nil, c) }

// cacheKey derives the content address for one engine invocation:
// SHA-256 over the endpoint name, the canonical netlist, and the
// canonicalized (defaulted, timeout-stripped) options. opts must be a
// struct so its JSON encoding has a fixed field order. The hashed
// stream is "endpoint\nlen(canon)\n", canon, then the options JSON.
func cacheKey(endpoint string, canon []byte, opts any) (string, error) {
	oj, err := json.Marshal(opts)
	if err != nil {
		return "", fmt.Errorf("serve: canonicalize options: %w", err)
	}
	h := sha256.New()
	hdr := append([]byte(endpoint), '\n')
	hdr = strconv.AppendInt(hdr, int64(len(canon)), 10)
	h.Write(append(hdr, '\n'))
	h.Write(canon)
	h.Write(oj)
	return hex.EncodeToString(h.Sum(nil)), nil
}

// invocation is one engine request derived from its body. Taken from
// the key memo it carries only the memoized entry: enough to replay a
// cached result or submit a job. Derived along the full path it also
// carries the circuit and the engine runner.
type invocation struct {
	memoEntry
	endpoint string
	body     []byte
	digest   [sha256.Size]byte
	parse    parseFunc
	c        *netlist.Circuit // nil when taken from the memo
	run      runFunc
}

// requestError is a request body the full path refused, with the HTTP
// status it is answered with.
type requestError struct {
	status int
	msg    string
}

func (e *requestError) Error() string { return e.msg }

func badRequest(msg string) error { return &requestError{status: http.StatusBadRequest, msg: msg} }

// derive takes the full path from a request body to its invocation:
// materialize the circuit and runner, canonicalize the netlist, and hash
// the cache key.
func derive(endpoint string, parse parseFunc, body []byte, digest [sha256.Size]byte) (*invocation, error) {
	inv, keyOpts, err := materialize(endpoint, parse, body, digest)
	if err != nil {
		return nil, err
	}
	if inv.key, err = cacheKey(endpoint, canonicalNetlist(inv.c), keyOpts); err != nil {
		return nil, &requestError{status: http.StatusInternalServerError, msg: err.Error()}
	}
	return inv, nil
}

// materialize is derive short of the cache key: decode the envelope,
// materialize the circuit, and decode the options into the runner. It
// also returns the canonical options the key is hashed over.
func materialize(endpoint string, parse parseFunc, body []byte, digest [sha256.Size]byte) (*invocation, any, error) {
	req, err := decodeEnvelope(body)
	if err != nil {
		return nil, nil, badRequest("decode request: " + err.Error())
	}
	var async bool
	switch req.Mode {
	case "", "sync":
	case "async":
		async = true
	default:
		return nil, nil, badRequest(fmt.Sprintf("unknown mode %q (want \"sync\" or \"async\")", req.Mode))
	}
	c, err := parseCircuit(&req)
	if err != nil {
		return nil, nil, badRequest(err.Error())
	}
	keyOpts, timeoutMS, run, err := parse(req.Options)
	if err != nil {
		return nil, nil, badRequest("decode options: " + err.Error())
	}
	if err := fitCircuit(keyOpts, c); err != nil {
		return nil, nil, badRequest(err.Error())
	}
	return &invocation{
		memoEntry: memoEntry{timeoutMS: timeoutMS, async: async},
		endpoint:  endpoint,
		body:      body,
		digest:    digest,
		parse:     parse,
		c:         c,
		run:       run,
	}, keyOpts, nil
}
