// Package g016 is a codelint fixture: streaming-handler discipline
// (rule G016). BareAssert asserts http.Flusher without the comma-ok
// form, StreamNoFlush never flushes its NDJSON loop,
// StreamOptionalFlush gates the flush on a nil-able Flusher, and
// WriteAfterError and DoubleHeader keep writing after the response
// was completed: findings.
//
// StreamSolid (ResponseController flush) and GuardedError (return
// after the error write) must stay clean; fail is the helper shape
// the header-writer summary detects.
package g016

import (
	"encoding/json"
	"fmt"
	"net/http"
)

// BareAssert panics as soon as middleware wraps the writer: finding.
func BareAssert(w http.ResponseWriter, r *http.Request) {
	fl := w.(http.Flusher)
	fl.Flush()
	fmt.Fprintln(w, "done")
}

// StreamNoFlush writes an NDJSON stream but never flushes, so clients
// see nothing until the handler returns: finding at the loop.
func StreamNoFlush(w http.ResponseWriter, events <-chan int) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	enc := json.NewEncoder(w)
	for ev := range events {
		_ = enc.Encode(ev)
	}
}

// StreamOptionalFlush flushes only when the comma-ok Flusher is
// non-nil, so a wrapped writer silently stops streaming: finding at
// the flush.
func StreamOptionalFlush(w http.ResponseWriter, events <-chan int) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	fl, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	for ev := range events {
		_ = enc.Encode(ev)
		if fl != nil {
			fl.Flush()
		}
	}
}

// StreamSolid flushes through the ResponseController, which reaches
// through wrapped writers: clean.
func StreamSolid(w http.ResponseWriter, events <-chan int) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	rc := http.NewResponseController(w)
	enc := json.NewEncoder(w)
	for ev := range events {
		_ = enc.Encode(ev)
		_ = rc.Flush()
	}
}

// WriteAfterError keeps writing after fail already completed the
// response: finding at the write.
func WriteAfterError(w http.ResponseWriter, ok bool) {
	if !ok {
		fail(w, http.StatusBadRequest, "bad input")
		fmt.Fprintln(w, "ignored by the client")
	}
}

// DoubleHeader sends two status lines: finding at the second.
func DoubleHeader(w http.ResponseWriter) {
	w.WriteHeader(http.StatusAccepted)
	w.WriteHeader(http.StatusOK)
}

// GuardedError returns right after the error response: clean.
func GuardedError(w http.ResponseWriter, ok bool) {
	if !ok {
		fail(w, http.StatusBadRequest, "bad input")
		return
	}
	fmt.Fprintln(w, "ok")
}

// fail completes an error response; the header-writer summary records
// that it WriteHeaders-and-writes its ResponseWriter parameter.
func fail(w http.ResponseWriter, status int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(msg)
}
