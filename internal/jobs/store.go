package jobs

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync/atomic"
	"time"
)

// Journal file layout: every job owns <id>.jnl, a JSON-lines journal
// whose first line is a create record and whose remaining lines are
// state transitions and progress samples, strictly appended. A job's
// result is a separate <id>.res blob written to a temp file, fsynced,
// and atomically renamed into place *before* the done record is
// journaled — so a journal that says done implies a readable result,
// and a crash between the two leaves a running job that recovery
// simply re-queues.
//
// Every directory entry the store creates, renames or removes is made
// durable by a directory fsync before anything depends on it: the new
// journal before Submit returns (a 202 the client saw must survive a
// power loss), the store directory itself at open, the renamed result
// blob before its done record, and a collected journal before its
// result blob is unlinked.
//
// Recovery is deliberately forgiving at the tail and strict in the
// middle: a torn final line is what an append interrupted by SIGKILL
// looks like, so it is ignored; garbage before the final line means
// the file did not grow append-only and the job is marked failed
// rather than trusted or wedged.

// record is one journal line. Op selects which fields are meaningful.
type record struct {
	// Op is "create", "state", or "progress".
	Op string `json:"op"`
	// Create carries the immutable job description (op "create").
	Create *createRecord `json:"create,omitempty"`
	// State is the entered state (op "state").
	State State `json:"state,omitempty"`
	// Error is the failure reason accompanying a failed state.
	Error string `json:"error,omitempty"`
	// MS is the transition timestamp in Unix milliseconds (op "state").
	MS int64 `json:"ms,omitempty"`
	// Stage/Done/Total are the progress sample (op "progress").
	Stage string `json:"stage,omitempty"`
	Done  int64  `json:"done,omitempty"`
	Total int64  `json:"total,omitempty"`
}

// createRecord is the journal's immutable job description: everything
// needed to re-run the job after a restart.
type createRecord struct {
	ID         string          `json:"id"`
	Endpoint   string          `json:"endpoint"`
	Key        string          `json:"key"`
	Request    json.RawMessage `json:"request"`
	DeadlineMS int64           `json:"deadline_ms"`
	CreatedMS  int64           `json:"created_ms"`
}

// fileSystem is every file operation the store performs. Production
// uses osFS; the crash-state tests substitute a recording
// implementation that models what survives a power loss.
type fileSystem interface {
	// OpenFile opens (with os.O_CREATE, creates) a file for writing.
	OpenFile(name string, flag int, perm os.FileMode) (file, error)
	Rename(oldpath, newpath string) error
	Remove(name string) error
	MkdirAll(path string, perm os.FileMode) error
	// SyncDir fsyncs a directory, making the entries created, renamed
	// or removed in it durable.
	SyncDir(dir string) error
	// ReadDir returns the names of the entries in dir that are not
	// directories.
	ReadDir(dir string) ([]string, error)
	ReadFile(name string) ([]byte, error)
	// Stat reports whether name exists: nil, or the error os.Stat
	// returns.
	Stat(name string) error
}

// file is an open file: appends, fsync, close.
type file interface {
	Write(b []byte) (int, error)
	Sync() error
	Close() error
}

// osFS is the production fileSystem.
type osFS struct{}

func (osFS) OpenFile(name string, flag int, perm os.FileMode) (file, error) {
	return os.OpenFile(name, flag, perm)
}
func (osFS) Rename(oldpath, newpath string) error         { return os.Rename(oldpath, newpath) }
func (osFS) Remove(name string) error                     { return os.Remove(name) }
func (osFS) MkdirAll(path string, perm os.FileMode) error { return os.MkdirAll(path, perm) }
func (osFS) ReadFile(name string) ([]byte, error)         { return os.ReadFile(name) }

func (osFS) Stat(name string) error {
	_, err := os.Stat(name)
	return err
}

func (osFS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	serr := d.Sync()
	cerr := d.Close()
	if serr != nil {
		return serr
	}
	return cerr
}

func (osFS) ReadDir(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() {
			names = append(names, e.Name())
		}
	}
	return names, nil
}

// store persists jobs under one directory. A nil *store (no -job-dir)
// disables persistence; the manager checks before every call.
type store struct {
	fs     fileSystem
	dir    string
	fsyncs atomic.Int64
}

// openStore creates dir if needed and returns the store. It syncs the
// parent of dir and of every ancestor MkdirAll creates, so the path to
// the journals is as durable as the journals. dir's parent is synced
// even when dir exists: the process that created it may have died
// before syncing it.
func openStore(fsys fileSystem, dir string) (*store, error) {
	parents := []string{filepath.Dir(dir)}
	for d := filepath.Dir(dir); fsys.Stat(d) != nil && filepath.Dir(d) != d; d = filepath.Dir(d) {
		parents = append(parents, filepath.Dir(d))
	}
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("jobs: create store dir: %w", err)
	}
	st := &store{fs: fsys, dir: dir}
	for _, p := range parents {
		if err := st.syncDir(p); err != nil {
			return nil, fmt.Errorf("jobs: sync store dir parent: %w", err)
		}
	}
	return st, nil
}

func (st *store) journalPath(id string) string { return filepath.Join(st.dir, id+".jnl") }
func (st *store) resultPath(id string) string  { return filepath.Join(st.dir, id+".res") }

// appendLine marshals rec and appends it as one line to the job's
// journal, fsyncing when sync is set (state transitions; progress
// samples ride on the next sync).
func (st *store) appendLine(id string, rec record, sync bool) error {
	b, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("jobs: marshal journal record: %w", err)
	}
	f, err := st.fs.OpenFile(st.journalPath(id), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("jobs: open journal: %w", err)
	}
	_, werr := f.Write(append(b, '\n'))
	var serr error
	if sync && werr == nil {
		serr = f.Sync()
		if serr == nil {
			st.fsyncs.Add(1)
		}
	}
	cerr := f.Close()
	switch {
	case werr != nil:
		return fmt.Errorf("jobs: append journal: %w", werr)
	case serr != nil:
		return fmt.Errorf("jobs: sync journal: %w", serr)
	case cerr != nil:
		return fmt.Errorf("jobs: close journal: %w", cerr)
	}
	return nil
}

// appendCreate journals the job's create record and makes the new
// journal's directory entry durable: acceptance of a 202 must survive
// a crash, and fsyncing the file alone does not persist its name.
func (st *store) appendCreate(j *job) error {
	err := st.appendLine(j.id, record{Op: "create", Create: &createRecord{
		ID:         j.id,
		Endpoint:   j.endpoint,
		Key:        j.key,
		Request:    json.RawMessage(j.request),
		DeadlineMS: j.deadline.Milliseconds(),
		CreatedMS:  j.createdMS,
	}}, true)
	if err != nil {
		return err
	}
	if err := st.syncDir(st.dir); err != nil {
		return fmt.Errorf("jobs: sync journal dir: %w", err)
	}
	return nil
}

// appendState journals a state transition (fsynced).
func (st *store) appendState(id string, s State, errMsg string, ms int64) error {
	return st.appendLine(id, record{Op: "state", State: s, Error: errMsg, MS: ms}, true)
}

// appendProgress journals a progress sample (not fsynced — samples are
// advisory and the next state transition syncs the file).
func (st *store) appendProgress(id string, p Progress) error {
	return st.appendLine(id, record{Op: "progress", Stage: p.Stage, Done: p.Done, Total: p.Total}, false)
}

// writeResult atomically installs the job's result blob: temp file in
// the same directory, fsync, rename. Readers either see the complete
// blob or no file at all.
func (st *store) writeResult(id string, val []byte) error {
	tmp := st.resultPath(id) + ".tmp"
	f, err := st.fs.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("jobs: create result temp: %w", err)
	}
	_, werr := f.Write(val)
	var serr error
	if werr == nil {
		serr = f.Sync()
		if serr == nil {
			st.fsyncs.Add(1)
		}
	}
	cerr := f.Close()
	if werr != nil || serr != nil || cerr != nil {
		_ = st.fs.Remove(tmp)
		if werr == nil {
			werr = serr
		}
		if werr == nil {
			werr = cerr
		}
		return fmt.Errorf("jobs: write result: %w", werr)
	}
	if err := st.fs.Rename(tmp, st.resultPath(id)); err != nil {
		_ = st.fs.Remove(tmp)
		return fmt.Errorf("jobs: install result: %w", err)
	}
	// The rename updated directory metadata; without a directory fsync a
	// crash can forget the installed name even though the blob's bytes
	// are durable.
	if err := st.syncDir(st.dir); err != nil {
		return fmt.Errorf("jobs: sync result dir: %w", err)
	}
	return nil
}

// syncDir fsyncs dir so the entries created, renamed or removed in it
// survive a crash.
func (st *store) syncDir(dir string) error {
	if err := st.fs.SyncDir(dir); err != nil {
		return err
	}
	st.fsyncs.Add(1)
	return nil
}

// readResult returns the job's result blob.
func (st *store) readResult(id string) ([]byte, error) {
	b, err := st.fs.ReadFile(st.resultPath(id))
	if err != nil {
		return nil, fmt.Errorf("jobs: read result: %w", err)
	}
	return b, nil
}

// remove deletes the job's journal and then its result blob (GC). The
// journal's removal is synced first: if only the blob's unlink
// survived a crash, recovery would find a done journal without its
// blob and report the job failed. It is best effort: a step that fails
// leaves the blob, so a leftover pair is re-read (and re-collected) on
// the next recovery, never served.
func (st *store) remove(id string) {
	if err := st.fs.Remove(st.journalPath(id)); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return
	}
	if st.syncDir(st.dir) != nil {
		return
	}
	_ = st.fs.Remove(st.resultPath(id))
}

// recover replays every journal in the store directory and returns the
// reconstructed jobs sorted by creation time then ID. Jobs that were
// queued or running are returned in state Queued with requeued set;
// the caller re-journals and re-queues them. Corrupted journals yield
// Failed jobs; a torn final line is silently dropped.
func (st *store) recover(now time.Time) ([]*job, error) {
	files, err := st.fs.ReadDir(st.dir)
	if err != nil {
		return nil, fmt.Errorf("jobs: scan store dir: %w", err)
	}
	var names []string
	for _, name := range files {
		if strings.HasSuffix(name, ".jnl") {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	var out []*job
	for _, name := range names {
		id := strings.TrimSuffix(name, ".jnl")
		b, err := st.fs.ReadFile(filepath.Join(st.dir, name))
		if err != nil {
			return nil, fmt.Errorf("jobs: read journal %s: %w", name, err)
		}
		out = append(out, st.replay(id, b, now))
	}
	sort.Slice(out, func(i, k int) bool {
		if out[i].createdMS != out[k].createdMS {
			return out[i].createdMS < out[k].createdMS
		}
		return out[i].id < out[k].id
	})
	return out, nil
}

// replay reconstructs one job from its journal bytes.
func (st *store) replay(id string, data []byte, now time.Time) *job {
	j := &job{id: id, state: Queued, watch: make(chan struct{})}
	fail := func(msg string) *job {
		j.state = Failed
		j.errMsg = msg
		if j.finishedMS == 0 {
			j.finishedMS = now.UnixMilli()
		}
		return j
	}
	lines := bytes.Split(data, []byte{'\n'})
	// Drop the empty tail produced by the final newline, so "last line"
	// below means the last record actually written.
	for len(lines) > 0 && len(bytes.TrimSpace(lines[len(lines)-1])) == 0 {
		lines = lines[:len(lines)-1]
	}
	if len(lines) == 0 {
		return fail("journal corrupted: empty file")
	}
	for i, line := range lines {
		var rec record
		if err := json.Unmarshal(line, &rec); err != nil {
			if i == len(lines)-1 {
				// Torn final append (crash mid-write): everything before
				// it is intact, use it.
				break
			}
			return fail("journal corrupted: unreadable record before the final line")
		}
		switch rec.Op {
		case "create":
			if i != 0 || rec.Create == nil || rec.Create.ID != id {
				return fail("journal corrupted: misplaced or mismatched create record")
			}
			j.endpoint = rec.Create.Endpoint
			j.key = rec.Create.Key
			j.request = []byte(rec.Create.Request)
			j.deadline = time.Duration(rec.Create.DeadlineMS) * time.Millisecond
			j.createdMS = rec.Create.CreatedMS
		case "state":
			if i == 0 {
				return fail("journal corrupted: missing create record")
			}
			if !rec.State.valid() {
				return fail("journal corrupted: unknown state " + string(rec.State))
			}
			j.state = rec.State
			j.errMsg = rec.Error
			switch rec.State {
			case Running:
				j.startedMS = rec.MS
			case Done, Failed, Canceled:
				j.finishedMS = rec.MS
			}
		case "progress":
			if i == 0 {
				return fail("journal corrupted: missing create record")
			}
			j.progress = Progress{Stage: rec.Stage, Done: rec.Done, Total: rec.Total}
			j.hasProgress = true
			j.lastJournaled = j.progress
		default:
			return fail("journal corrupted: unknown record op " + rec.Op)
		}
	}
	if j.endpoint == "" && j.state != Failed {
		return fail("journal corrupted: no create record")
	}
	switch j.state {
	case Done:
		// The done record is only written after the result blob rename,
		// so a missing blob means the directory was tampered with.
		if err := st.fs.Stat(st.resultPath(id)); err != nil {
			return fail("result blob missing for completed job")
		}
	case Queued, Running:
		// The process died with the job incomplete: re-queue it. Its
		// progress restarts from the engine's next report.
		j.state = Queued
		j.requeued = true
		j.startedMS = 0
	}
	return j
}

// Fsyncs reports how many fsyncs the store has issued: journal
// records, result blobs, and directory syncs.
func (st *store) Fsyncs() int64 {
	if st == nil {
		return 0
	}
	return st.fsyncs.Load()
}
