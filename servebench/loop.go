package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"
)

// outcome is one measured request.
type outcome struct {
	Idx     int           // index in the pass
	Seq     int           // index in the run: pass number × pass length + Idx
	Done    time.Duration // completion, since the timed phase started
	Latency time.Duration // sync: send to last byte; async: submit to terminal event
	Err     error
	Body    []byte // sync response body
	JobID   string // async job, fetched after the timed phase
}

func newHTTPClient() *http.Client {
	return &http.Client{
		Timeout:   2 * time.Minute,
		Transport: &http.Transport{MaxIdleConnsPerHost: 8, DisableCompression: true},
	}
}

// post sends body and returns the status, X-Cache header and body.
func post(hc *http.Client, url string, body []byte) (int, string, []byte, error) {
	resp, err := hc.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, "", nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, resp.Header.Get("X-Cache"), b, err
}

// doSync sends one synchronous request; wantCache, when set, is the
// X-Cache value the workload's premise requires.
func doSync(hc *http.Client, base string, r request, wantCache string) outcome {
	start := time.Now()
	status, cache, body, err := post(hc, base+r.Endpoint, r.Body)
	o := outcome{Latency: time.Since(start), Body: body, Err: err}
	switch {
	case err != nil:
	case status != http.StatusOK:
		o.Err = fmt.Errorf("%s: status %d: %s", r.Endpoint, status, bytes.TrimSpace(body))
	case wantCache != "" && cache != wantCache:
		o.Err = fmt.Errorf("%s: X-Cache %q, want %q", r.Endpoint, cache, wantCache)
	}
	return o
}

// jobSnapshot is the part of a job snapshot the client reads.
type jobSnapshot struct {
	ID    string `json:"id"`
	State string `json:"state"`
	Error string `json:"error"`
}

// doAsync submits one job and follows its event stream to the terminal
// snapshot.
func doAsync(hc *http.Client, base string, r request) outcome {
	start := time.Now()
	status, _, body, err := post(hc, base+r.Endpoint, r.Body)
	var o outcome
	if err == nil && status != http.StatusAccepted {
		err = fmt.Errorf("%s: submit status %d: %s", r.Endpoint, status, bytes.TrimSpace(body))
	}
	var sub struct{ Job jobSnapshot }
	if err == nil {
		err = json.Unmarshal(body, &sub)
	}
	if err != nil {
		o.Err = err
		return o
	}
	o.JobID = sub.Job.ID
	state, err := followEvents(hc, base, o.JobID)
	o.Latency, o.Err = time.Since(start), err
	if err == nil && state.State != "done" {
		o.Err = fmt.Errorf("job %s ended %s: %s", o.JobID, state.State, state.Error)
	}
	return o
}

// followEvents reads the job's NDJSON event stream until a terminal
// snapshot and returns it.
func followEvents(hc *http.Client, base, id string) (jobSnapshot, error) {
	var last jobSnapshot
	resp, err := hc.Get(base + "/v1/jobs/" + id + "/events")
	if err != nil {
		return last, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return last, fmt.Errorf("events for %s: %s", id, resp.Status)
	}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if err := json.Unmarshal(sc.Bytes(), &last); err != nil {
			return last, err
		}
		switch last.State {
		case "done", "failed", "canceled":
			return last, nil
		}
	}
	if err := sc.Err(); err != nil {
		return last, err
	}
	return last, fmt.Errorf("event stream for %s ended in state %q", id, last.State)
}

// fetchResult returns a done job's embedded result bytes.
func fetchResult(hc *http.Client, base, id string) ([]byte, error) {
	resp, err := hc.Get(base + "/v1/jobs/" + id)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var st struct {
		State  string          `json:"state"`
		Result json.RawMessage `json:"result"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return nil, err
	}
	if st.State != "done" || len(st.Result) == 0 {
		return nil, fmt.Errorf("job %s: state %q without result", id, st.State)
	}
	return st.Result, nil
}

// send issues r in its mode and, for async jobs, fetches the result so
// every outcome carries a body to verify.
func send(hc *http.Client, base string, r request, wantCache string) outcome {
	if !r.Async {
		return doSync(hc, base, r, wantCache)
	}
	o := doAsync(hc, base, r)
	if o.Err == nil {
		o.Body, o.Err = fetchResult(hc, base, o.JobID)
	}
	return o
}

// closedLoop replays the workload's pass the given number of times
// against base from one client, which sends its next request only after
// the previous one completed, and calls passDone (when set) after each
// pass. Async results are not fetched here: that happens after the timed
// phase.
func closedLoop(hc *http.Client, base string, w *workload, passes int, wantCache string, passDone func()) []outcome {
	start := time.Now()
	out := make([]outcome, 0, passes*len(w.Pass))
	for p := 0; p < passes; p++ {
		for idx, r := range w.Pass {
			var o outcome
			if r.Async {
				o = doAsync(hc, base, r)
			} else {
				o = doSync(hc, base, r, wantCache)
			}
			o.Idx, o.Seq, o.Done = idx, p*len(w.Pass)+idx, time.Since(start)
			out = append(out, o)
		}
		if passDone != nil {
			passDone()
		}
	}
	return out
}
