package serve

// Async job surface: POST /v1/{plan,faultsim,atpg} with mode=async (or
// a Prefer: respond-async header) enqueues the request as a persistent
// job and answers 202 with its ID; the job API then serves status,
// progress streaming, cancellation, and listing. Jobs execute through
// the same content-addressed cache and worker pool as synchronous
// requests, so an async result is byte-identical to the synchronous
// response for the same request and identical concurrent submissions
// collapse into one engine run.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"time"

	"repro/internal/jobs"
)

// preferAsync reports whether the request opts into asynchronous
// execution through the standard Prefer: respond-async header (RFC
// 7240). The envelope's "mode":"async" is the other way in; derive
// reads it with the rest of the body.
func preferAsync(r *http.Request) bool {
	for _, pref := range r.Header.Values("Prefer") {
		for _, tok := range strings.Split(pref, ",") {
			if strings.EqualFold(strings.TrimSpace(tok), "respond-async") {
				return true
			}
		}
	}
	return false
}

// submitResponse is the 202 body acknowledging an async submission.
type submitResponse struct {
	Job jobs.Snapshot `json:"job"`
	// Location duplicates the Location header for JSON-only clients.
	Location string `json:"location"`
}

// submitJob enqueues one async engine invocation and writes the 202
// (or 429 when the queue is full). It returns the status written, for
// the caller's metrics.
func (s *Server) submitJob(w http.ResponseWriter, name, key string, body []byte, timeoutMS int) int {
	if name == "/v1/lint" {
		writeError(w, http.StatusBadRequest, "async mode is not supported for /v1/lint; lint runs are fast enough to answer synchronously")
		return http.StatusBadRequest
	}
	var timeout time.Duration
	if timeoutMS > 0 {
		timeout = time.Duration(timeoutMS) * time.Millisecond
	}
	snap, err := s.jobs.Submit(name, key, body, timeout)
	switch {
	case errors.Is(err, jobs.ErrQueueFull):
		// Back-pressure, not failure: the client should retry later.
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, "job queue full")
		return http.StatusTooManyRequests
	case err != nil:
		writeError(w, http.StatusInternalServerError, "submit job: "+err.Error())
		return http.StatusInternalServerError
	}
	loc := "/v1/jobs/" + snap.ID
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Location", loc)
	w.WriteHeader(http.StatusAccepted)
	_ = json.NewEncoder(w).Encode(submitResponse{Job: snap, Location: loc})
	return http.StatusAccepted
}

// executeJob is the jobs.Runner: it re-derives the engine invocation
// from the journaled request envelope and executes it through the same
// key memo, single-flight cache and worker pool as the synchronous
// path. The returned bytes are exactly what the synchronous endpoint
// would have written, and identical concurrent jobs collapse into one
// engine run.
func (s *Server) executeJob(ctx context.Context, spec jobs.Spec) ([]byte, error) {
	parse, ok := s.parsers[spec.Endpoint]
	if !ok {
		return nil, fmt.Errorf("serve: job targets unknown endpoint %q", spec.Endpoint)
	}
	// The key is derived from the journaled body rather than trusted
	// from spec.Key: a tampered or stale journal body has a digest of
	// its own, misses the memo, and gets the key of what it says, so it
	// cannot poison the cache under a mismatched key.
	inv, err := s.resolve(spec.Endpoint, parse, spec.Request)
	if err != nil {
		return nil, err
	}
	val, _, err := s.execute(ctx, inv)
	return val, err
}

// jobStatusResponse is the GET /v1/jobs/{id} body: the snapshot plus,
// once the job is done, the verbatim result bytes of the engine run.
type jobStatusResponse struct {
	jobs.Snapshot
	Result json.RawMessage `json:"result,omitempty"`
}

// handleJobList serves GET /v1/jobs: every retained job, oldest first.
func (s *Server) handleJobList(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	list := s.jobs.List()
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(map[string][]jobs.Snapshot{"jobs": list})
	s.metrics.record("/v1/jobs", http.StatusOK, time.Since(start).Milliseconds())
}

// handleJobGet serves GET /v1/jobs/{id}: state, progress, and — when
// the job is done — the result, byte-identical to the synchronous
// response for the same request.
func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	status := http.StatusOK
	defer func() {
		s.metrics.record("/v1/jobs/{id}", status, time.Since(start).Milliseconds())
	}()
	id := r.PathValue("id")
	snap, ok := s.jobs.Get(id)
	if !ok {
		status = http.StatusNotFound
		writeError(w, status, "unknown job "+id)
		return
	}
	resp := jobStatusResponse{Snapshot: snap}
	if snap.State == jobs.Done {
		val, err := s.jobs.Result(id)
		if err != nil {
			status = http.StatusInternalServerError
			writeError(w, status, err.Error())
			return
		}
		resp.Result = json.RawMessage(val)
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(resp)
}

// handleJobCancel serves DELETE /v1/jobs/{id}: cooperative
// cancellation. A queued job flips to canceled immediately; a running
// job's context is cancelled and the engine unwinds at its next poll.
// The response reports the state after the request took effect.
func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	status := http.StatusOK
	defer func() {
		s.metrics.record("/v1/jobs/{id}", status, time.Since(start).Milliseconds())
	}()
	id := r.PathValue("id")
	snap, ok := s.jobs.Cancel(id)
	if !ok {
		status = http.StatusNotFound
		writeError(w, status, "unknown job "+id)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(snap)
}

// handleJobEvents serves GET /v1/jobs/{id}/events: a chunked stream of
// JSON lines, one snapshot per observable change (state transitions
// and progress samples), ending with the terminal snapshot. Clients
// poll nothing; the stream closes itself when the job finishes.
func (s *Server) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	status := http.StatusOK
	defer func() {
		s.metrics.record("/v1/jobs/{id}/events", status, time.Since(start).Milliseconds())
	}()
	id := r.PathValue("id")
	snap, watch, ok := s.jobs.Watch(id)
	if !ok {
		status = http.StatusNotFound
		writeError(w, status, "unknown job "+id)
		return
	}
	// NewResponseController reaches the underlying Flusher through
	// wrapped ResponseWriters; a nil-tolerated comma-ok Flusher would
	// silently stop streaming behind middleware
	// (TestEventStreamFlushesThroughWrapper).
	rc := http.NewResponseController(w)
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-store")
	enc := json.NewEncoder(w)
	done := r.Context().Done()
	for {
		if err := enc.Encode(snap); err != nil {
			status = statusClientClosed
			return
		}
		if err := rc.Flush(); err != nil {
			status = statusClientClosed
			return
		}
		if snap.State.Terminal() {
			return
		}
		select {
		case <-watch:
		case <-done:
			status = statusClientClosed
			return
		case <-s.draining:
			// Graceful shutdown: end the stream cleanly; the client has
			// every snapshot up to this point and can resubscribe.
			return
		}
		snap, watch, ok = s.jobs.Watch(id)
		if !ok {
			// Garbage-collected mid-stream; the last snapshot stands.
			return
		}
	}
}
