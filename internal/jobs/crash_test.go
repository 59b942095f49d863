package jobs

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/progress"
)

// The crash-state enumeration: a scripted run of the manager on a
// recording file system logs every file operation; for every prefix of
// that log and every subset of what the prefix left unsynced, the test
// rebuilds what a power loss would leave on disk, starts a Manager on
// it, and checks what recovery makes of it.
//
// The crash model keeps only what POSIX guarantees, plus any subset of
// what it does not:
//   - a file's bytes survive up to that file's last fsync; the bytes
//     written after it survive wholly or not at all;
//   - a directory entry (create, rename, remove, mkdir) survives once its
//     directory was fsynced after it;
//   - unsynced entry operations survive in any subset, applied in log
//     order; an entry whose parent directory did not survive is lost.

// dirIno marks a directory in memFS's name table.
const dirIno = -1

type opKind int

const (
	opMkdir opKind = iota
	opCreate
	opRename
	opRemove
	opWrite
	opTrunc
	opFsync
	opSyncDir
	opAcked // Submit returned the job (path is its ID)
	opDone  // a client saw the job done (path is its ID)
)

// fsOp is one logged operation.
type fsOp struct {
	kind opKind
	path string // the entry, the synced directory, or the job ID
	to   string // rename target
	ino  int
	data []byte // write
}

// dir returns the directory an entry operation changes.
func (op fsOp) dir() string { return filepath.Dir(op.path) }

// memFS is an in-memory fileSystem that logs every operation that
// changes it.
type memFS struct {
	mu    sync.Mutex
	names map[string]int // path → inode, or dirIno
	data  map[int][]byte
	next  int
	log   []fsOp
	// failAt, when positive, makes the failAt-th operation that can
	// fail (every one but Stat) return errInjected instead; failedIn
	// names the store function that operation came from.
	failAt, ops int
	failedIn    string
}

var errInjected = errors.New("injected failure")

// injected counts one operation that can fail and reports whether it
// is the one to fail. Callers hold m.mu.
func (m *memFS) injected() bool {
	m.ops++
	if m.ops != m.failAt {
		return false
	}
	m.failedIn = storeSite()
	return true
}

// storeSite names the outermost store function on the caller's stack,
// openStore or a (*store) method, and the function that called it, as
// in "appendState in newManager".
func storeSite() string {
	pcs := make([]uintptr, 32)
	frames := runtime.CallersFrames(pcs[:runtime.Callers(2, pcs)])
	site := ""
	for {
		f, more := frames.Next()
		name := f.Function[strings.LastIndex(f.Function, "/")+1:]
		switch {
		case strings.HasPrefix(name, "jobs.(*store)."):
			site = strings.TrimPrefix(name, "jobs.(*store).")
		case name == "jobs.openStore":
			site = "openStore"
		case site != "":
			return site + " in " + name[strings.LastIndex(name, ".")+1:]
		case !more:
			return ""
		}
	}
}

func newMemFS(dirs ...string) *memFS {
	m := &memFS{names: map[string]int{"/": dirIno}, data: map[int][]byte{}}
	for _, d := range dirs {
		m.names[d] = dirIno
	}
	return m
}

func notExist(op, path string) error { return &fs.PathError{Op: op, Path: path, Err: fs.ErrNotExist} }

func (m *memFS) record(op fsOp) { m.log = append(m.log, op) }

// mark logs a point in the script with no file-system effect.
func (m *memFS) mark(kind opKind, id string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.record(fsOp{kind: kind, path: id})
}

func (m *memFS) OpenFile(name string, flag int, _ os.FileMode) (file, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.injected() {
		return nil, errInjected
	}
	ino, ok := m.names[name]
	switch {
	case ok && ino == dirIno:
		return nil, &fs.PathError{Op: "open", Path: name, Err: syscall.EISDIR}
	case !ok && (flag&os.O_CREATE == 0 || m.names[filepath.Dir(name)] != dirIno):
		return nil, notExist("open", name)
	case !ok:
		m.next++
		ino = m.next
		m.names[name] = ino
		m.record(fsOp{kind: opCreate, path: name, ino: ino})
	}
	if flag&os.O_TRUNC != 0 && len(m.data[ino]) > 0 {
		m.data[ino] = nil
		m.record(fsOp{kind: opTrunc, ino: ino})
	}
	return &memFile{fs: m, ino: ino}, nil
}

func (m *memFS) Rename(oldpath, newpath string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.injected() {
		return errInjected
	}
	ino, ok := m.names[oldpath]
	if !ok || ino == dirIno || m.names[filepath.Dir(newpath)] != dirIno {
		return notExist("rename", oldpath)
	}
	delete(m.names, oldpath)
	m.names[newpath] = ino
	m.record(fsOp{kind: opRename, path: oldpath, to: newpath, ino: ino})
	return nil
}

func (m *memFS) Remove(name string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.injected() {
		return errInjected
	}
	ino, ok := m.names[name]
	if !ok || ino == dirIno {
		return notExist("remove", name)
	}
	delete(m.names, name)
	m.record(fsOp{kind: opRemove, path: name, ino: ino})
	return nil
}

func (m *memFS) MkdirAll(path string, _ os.FileMode) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.injected() {
		return errInjected
	}
	var missing []string
	for d := path; m.names[d] != dirIno; d = filepath.Dir(d) {
		if _, ok := m.names[d]; ok {
			return &fs.PathError{Op: "mkdir", Path: d, Err: syscall.ENOTDIR}
		}
		missing = append(missing, d)
	}
	for i := len(missing) - 1; i >= 0; i-- {
		m.names[missing[i]] = dirIno
		m.record(fsOp{kind: opMkdir, path: missing[i]})
	}
	return nil
}

func (m *memFS) SyncDir(dir string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.injected() {
		return errInjected
	}
	if m.names[dir] != dirIno {
		return notExist("sync", dir)
	}
	m.record(fsOp{kind: opSyncDir, path: dir})
	return nil
}

func (m *memFS) ReadDir(dir string) ([]string, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.injected() {
		return nil, errInjected
	}
	if m.names[dir] != dirIno {
		return nil, notExist("readdir", dir)
	}
	var out []string
	for name, ino := range m.names {
		if ino != dirIno && filepath.Dir(name) == dir {
			out = append(out, filepath.Base(name))
		}
	}
	sort.Strings(out)
	return out, nil
}

func (m *memFS) ReadFile(name string) ([]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.injected() {
		return nil, errInjected
	}
	ino, ok := m.names[name]
	if !ok || ino == dirIno {
		return nil, notExist("read", name)
	}
	return append([]byte(nil), m.data[ino]...), nil
}

func (m *memFS) Stat(name string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.names[name]; !ok {
		return notExist("stat", name)
	}
	return nil
}

// memFile is an open memFS file.
type memFile struct {
	fs  *memFS
	ino int
}

func (f *memFile) Write(b []byte) (int, error) {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if f.fs.injected() {
		return 0, errInjected
	}
	f.fs.data[f.ino] = append(f.fs.data[f.ino], b...)
	f.fs.record(fsOp{kind: opWrite, ino: f.ino, data: append([]byte(nil), b...)})
	return len(b), nil
}

func (f *memFile) Sync() error {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if f.fs.injected() {
		return errInjected
	}
	f.fs.record(fsOp{kind: opFsync, ino: f.ino})
	return nil
}

func (f *memFile) Close() error {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if f.fs.injected() {
		return errInjected
	}
	return nil
}

// crashModel replays a log prefix into what is durable and what is not.
type crashModel struct {
	names   map[string]int // entries made durable by a directory sync
	pending []fsOp         // entry operations no directory sync covers yet
	data    map[int][]byte // every byte written, per inode
	synced  map[int]int    // bytes guaranteed by each inode's last fsync
	acked   map[string]bool
	done    map[string]bool
}

func newCrashModel(base *memFS) *crashModel {
	cm := &crashModel{names: map[string]int{}, data: map[int][]byte{}, synced: map[int]int{},
		acked: map[string]bool{}, done: map[string]bool{}}
	for name, ino := range base.names {
		cm.names[name] = ino
	}
	return cm
}

// applyEntry applies one entry operation to a name table.
func applyEntry(names map[string]int, op fsOp) {
	switch op.kind {
	case opMkdir:
		names[op.path] = dirIno
	case opCreate:
		names[op.path] = op.ino
	case opRename:
		if names[op.path] == op.ino {
			delete(names, op.path)
		}
		names[op.to] = op.ino
	case opRemove:
		if names[op.path] == op.ino {
			delete(names, op.path)
		}
	}
}

func (cm *crashModel) apply(op fsOp) {
	switch op.kind {
	case opMkdir, opCreate, opRename, opRemove:
		cm.pending = append(cm.pending, op)
	case opWrite:
		cm.data[op.ino] = append(cm.data[op.ino], op.data...)
	case opTrunc:
		cm.data[op.ino], cm.synced[op.ino] = nil, 0
	case opFsync:
		cm.synced[op.ino] = len(cm.data[op.ino])
	case opSyncDir:
		var keep []fsOp
		for _, p := range cm.pending {
			if p.dir() == op.path {
				applyEntry(cm.names, p)
			} else {
				keep = append(keep, p)
			}
		}
		cm.pending = keep
	case opAcked:
		cm.acked[op.path] = true
	case opDone:
		cm.done[op.path] = true
	}
}

// dirty lists the inodes holding bytes past their last fsync.
func (cm *crashModel) dirty() []int {
	var out []int
	for ino, b := range cm.data {
		if len(b) > cm.synced[ino] {
			out = append(out, ino)
		}
	}
	sort.Ints(out)
	return out
}

// crashState materializes one crash outcome: the pending entry
// operations whose bit is set in mask survive, and so do the unsynced
// bytes of the dirty inodes whose bit (after the pending ones) is set.
func (cm *crashModel) crashState(mask uint, dirty []int) *memFS {
	names := make(map[string]int, len(cm.names))
	for name, ino := range cm.names {
		names[name] = ino
	}
	for i, op := range cm.pending {
		if mask&(1<<i) != 0 {
			applyEntry(names, op)
		}
	}
	tail := map[int]bool{}
	for i, ino := range dirty {
		tail[ino] = mask&(1<<(len(cm.pending)+i)) != 0
	}
	out := newMemFS()
	for name, ino := range names {
		if !parentsSurvive(names, name) {
			continue
		}
		out.names[name] = ino
		if ino == dirIno {
			continue
		}
		b := cm.data[ino]
		if !tail[ino] {
			b = b[:cm.synced[ino]]
		}
		out.data[ino] = append([]byte(nil), b...)
		if ino > out.next {
			out.next = ino
		}
	}
	return out
}

// parentsSurvive reports whether every ancestor directory of name is in
// the table.
func parentsSurvive(names map[string]int, name string) bool {
	for d := filepath.Dir(name); d != name; name, d = d, filepath.Dir(d) {
		if names[d] != dirIno {
			return false
		}
	}
	return true
}

const crashStoreDir = "/data/jobs"

// crashRunner is the script's engine: it reports two progress samples
// and returns resultBytes.
func crashRunner(ctx context.Context, spec Spec) ([]byte, error) {
	progress.Report(ctx, "units", 1, 2)
	progress.Report(ctx, "units", 2, 2)
	return resultBytes(spec), nil
}

func crashConfig(nonce func() string) Config {
	return Config{
		Dir:     crashStoreDir,
		Workers: 1,
		Now:     func() time.Time { return time.UnixMilli(1_700_000_000_000) },
		Nonce:   nonce,
	}
}

// runCrashScript runs the script on a fresh recording file system whose
// store directory does not exist yet: submit job A and run it to done,
// then submit job B, whose submission garbage-collects A (MaxJobs 1),
// and run B to done. Crash points inside a run are the script's
// "crash mid-run" states. It returns the log and every job's expected
// result bytes.
func runCrashScript(t *testing.T) (*memFS, map[string][]byte) {
	t.Helper()
	fsys := newMemFS("/data")
	n := 0
	cfg := crashConfig(func() string { n++; return fmt.Sprintf("n%d", n) })
	cfg.MaxJobs = 1
	m, err := newManager(cfg, crashRunner, fsys)
	if err != nil {
		t.Fatalf("newManager: %v", err)
	}
	defer m.Close()
	want := map[string][]byte{}
	for _, key := range []string{"key-a", "key-b"} {
		req := []byte(`{"generate":"` + key + `"}`)
		snap, err := m.Submit("/v1/plan", key, req, 0)
		if err != nil {
			t.Fatalf("Submit %s: %v", key, err)
		}
		fsys.mark(opAcked, snap.ID)
		want[snap.ID] = resultBytes(Spec{ID: snap.ID, Endpoint: "/v1/plan", Key: key, Request: req})
		waitState(t, m, snap.ID, Done)
		fsys.mark(opDone, snap.ID)
	}
	return fsys, want
}

// checkRecovery starts a Manager on one crash state and returns what is
// wrong with the result:
//   - every acknowledged job is present unless its journal's removal
//     is in the log prefix, and a present acknowledged job ends done
//     with its exact bytes;
//   - a job a client saw done comes back done without re-running;
//   - a job never acknowledged may be absent or failed, but if it runs
//     it ends with its exact bytes;
//   - New and Close return.
func checkRecovery(state *memFS, cm *crashModel, removed map[string]bool, want map[string][]byte) []string {
	finished := make(chan []string, 1)
	go func() {
		var problems []string
		defer func() { finished <- problems }()
		m, err := newManager(crashConfig(func() string { return "r" }), crashRunner, state)
		if err != nil {
			problems = append(problems, "New: "+err.Error())
			return
		}
		defer m.Close()
		for id, res := range want {
			snap, ok := m.Get(id)
			if !ok {
				if cm.acked[id] && !removed[id] {
					problems = append(problems, fmt.Sprintf("acknowledged job %s is missing", id))
				}
				continue
			}
			if cm.done[id] && (snap.State != Done || snap.Requeued) {
				problems = append(problems, fmt.Sprintf("job %s was done but recovered %s (requeued %v)", id, snap.State, snap.Requeued))
			}
			snap = awaitTerminal(m, id)
			if snap.State == Failed && !cm.acked[id] {
				continue
			}
			if snap.State != Done {
				problems = append(problems, fmt.Sprintf("job %s ended %s (%s), want done", id, snap.State, snap.Error))
				continue
			}
			if got, err := m.Result(id); err != nil || !bytes.Equal(got, res) {
				problems = append(problems, fmt.Sprintf("job %s result %q (err %v), want %q", id, got, err, res))
			}
		}
	}()
	select {
	case problems := <-finished:
		return problems
	case <-time.After(10 * time.Second):
		return []string{"recovery wedged: New, a recovered job or Close did not return"}
	}
}

// awaitTerminal waits up to 10 s for the job to reach a terminal state.
func awaitTerminal(m *Manager, id string) Snapshot {
	deadline := time.After(10 * time.Second)
	for {
		snap, ch, ok := m.Watch(id)
		if !ok || snap.State.Terminal() {
			return snap
		}
		select {
		case <-ch:
		case <-deadline:
			return snap
		}
	}
}

// TestCrashStateEnumeration enumerates every crash point of the script
// and every subset of the unsynced state at each one.
func TestCrashStateEnumeration(t *testing.T) {
	script, want := runCrashScript(t)
	cm := newCrashModel(newMemFS("/data"))
	removed := map[string]bool{}
	states := 0
	for point := 0; point <= len(script.log); point++ {
		if point > 0 {
			op := script.log[point-1]
			cm.apply(op)
			if op.kind == opRemove && strings.HasSuffix(op.path, ".jnl") {
				removed[strings.TrimSuffix(filepath.Base(op.path), ".jnl")] = true
			}
		}
		dirty := cm.dirty()
		bits := len(cm.pending) + len(dirty)
		if bits > 12 {
			t.Fatalf("crash point %d leaves %d unsynced operations; the enumeration would explode", point, bits)
		}
		for mask := uint(0); mask < 1<<bits; mask++ {
			states++
			for _, p := range checkRecovery(cm.crashState(mask, dirty), cm, removed, want) {
				t.Errorf("crash after op %d/%d (%s), surviving mask %b: %s",
					point, len(script.log), describeOp(script.log, point), mask, p)
			}
		}
		if t.Failed() {
			return
		}
	}
	t.Logf("%d operations, %d crash states", len(script.log), states)
}

// TestStoreErrorEnumeration runs a script, fails one file operation of
// it, and checks the outcome by the store function the failure came
// from and its caller; it does so once for every operation the script
// makes. The script submits jobs A, B and C with MaxJobs 1 and runs A
// and B to done; C's run waits until Close cuts it off. Recovery then
// runs twice on what is left: the first re-journals and re-runs C, the
// second finds C done. The outcomes:
//   - openStore, recover, or appendState in newManager (re-journaling
//     a job to re-queue it): New returns an error;
//   - appendCreate: Submit returns an error, keeps no job and removes
//     the journal, so recovery does not find the job either;
//   - writeResult: the job ends failed, and recovers failed;
//   - readResult: Result returns an error;
//   - appendState in a transition, or appendProgress: the manager drops
//     the error on purpose, so every job still ends done with its bytes
//     and its last progress sample;
//   - remove: the job submitted before the last still leaves the table,
//     and its result blob stays for the next recovery to re-read.
//
// Every job recovery finds was accepted, and ends done with its bytes
// unless it failed. (A crash before Submit returns may still leave a
// journal; TestCrashStateEnumeration covers that.)
func TestStoreErrorEnumeration(t *testing.T) {
	hit := map[string]bool{}
	for at := 1; ; at++ {
		fsys := newMemFS("/data")
		fsys.failAt = at
		problems := runFailingScript(fsys)
		fsys.mu.Lock()
		site, ops := fsys.failedIn, fsys.ops
		fsys.mu.Unlock()
		if ops < at {
			break
		}
		hit[site] = true
		for _, p := range problems {
			t.Errorf("operation %d fails in %s: %s", at, site, p)
		}
	}
	for _, site := range []string{
		"openStore in newManager", "recover in newManager", "appendState in newManager",
		"appendCreate in Submit", "appendState in transitionLocked", "appendProgress in updateProgress",
		"writeResult in runJob", "readResult in Result", "remove in removeLocked",
	} {
		if !hit[site] {
			t.Errorf("no failed operation came from %s", site)
		}
	}
	m, err := newManager(crashConfig(nil), crashRunner, newMemFS("/data"))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if _, err := m.Submit("/v1/plan", "key", []byte("{"), 0); err == nil {
		t.Error("Submit journaled a request that is not JSON")
	}
}

// runFailingScript runs the script of TestStoreErrorEnumeration on
// fsys and returns what is wrong with the outcome.
func runFailingScript(fsys *memFS) (problems []string) {
	failedIn := func() string {
		fsys.mu.Lock()
		defer fsys.mu.Unlock()
		return fsys.failedIn
	}
	fail := func(format string, args ...any) { problems = append(problems, fmt.Sprintf(format, args...)) }
	// start runs New on fsys; it returns nil when New fails.
	start := func(cfg Config, run Runner) *Manager {
		before := failedIn()
		m, err := newManager(cfg, run, fsys)
		switch failedIn() {
		case "openStore in newManager", "recover in newManager", "appendState in newManager":
			if before == "" && err == nil {
				fail("New returned no error")
			}
		default:
			if err != nil {
				fail("New returned %v", err)
			}
		}
		return m
	}
	n := 0
	cfg := crashConfig(func() string { n++; return fmt.Sprintf("n%d", n) })
	cfg.MaxJobs = 1
	m := start(cfg, func(ctx context.Context, spec Spec) ([]byte, error) {
		if spec.Key == "key-c" {
			<-ctx.Done()
			return nil, ctx.Err()
		}
		return crashRunner(ctx, spec)
	})
	if m == nil {
		return problems
	}
	want := map[string][]byte{}
	failed := map[string]bool{}
	prev := ""
	for _, key := range []string{"key-a", "key-b", "key-c"} {
		req := []byte(`{"generate":"` + key + `"}`)
		before, held := failedIn(), len(m.List())
		snap, err := m.Submit("/v1/plan", key, req, 0)
		if rejected := before == "" && failedIn() == "appendCreate in Submit"; rejected != (err != nil) {
			fail("Submit %s returned %v", key, err)
		}
		if err != nil {
			if len(m.List()) != held {
				fail("rejected job %s is in the table", key)
			}
			continue
		}
		want[snap.ID] = resultBytes(Spec{ID: snap.ID, Endpoint: "/v1/plan", Key: key, Request: req})
		if prev != "" {
			if _, ok := m.Get(prev); ok {
				fail("job %s was not collected", prev)
			}
			if before == "" && failedIn() == "remove in removeLocked" && fsys.Stat(filepath.Join(crashStoreDir, prev+".res")) != nil {
				fail("failed collection of job %s removed its result blob", prev)
			}
		}
		prev = snap.ID
		if key == "key-c" {
			for snap.State == Queued {
				var ch <-chan struct{}
				if snap, ch, _ = m.Watch(snap.ID); snap.State == Queued {
					<-ch
				}
			}
			break
		}
		// Only the run calls writeResult; it may have begun already.
		end := awaitTerminal(m, snap.ID)
		failed[snap.ID] = before == "" && failedIn() == "writeResult in runJob"
		switch {
		case failed[snap.ID] && end.State != Failed:
			fail("job %s ended %s, want failed", key, end.State)
		case failed[snap.ID]:
		case end.State != Done:
			fail("job %s ended %s (%s), want done", key, end.State, end.Error)
		case end.Progress == nil || *end.Progress != (Progress{Stage: "units", Done: 2, Total: 2}):
			fail("job %s progress %v, want units 2/2", key, end.Progress)
		default:
			if got, err := m.Result(snap.ID); err != nil || !bytes.Equal(got, want[snap.ID]) {
				fail("job %s result %q (err %v)", key, got, err)
			}
		}
	}
	m.Close()

	for round := 0; round < 2; round++ {
		before := failedIn()
		r := start(crashConfig(nil), crashRunner)
		if r == nil {
			return problems
		}
		for _, snap := range r.List() {
			end := awaitTerminal(r, snap.ID)
			if end.State == Failed && before == "" && failedIn() == "writeResult in runJob" {
				failed[snap.ID] = true
			}
			_, accepted := want[snap.ID]
			switch {
			case !accepted:
				fail("rejected job %s recovered %s", snap.ID, end.State)
			case failed[snap.ID]:
				if end.State != Failed {
					fail("failed job %s recovered %s", snap.ID, end.State)
				}
			case end.State != Done:
				fail("job %s recovered %s (%s), want done", snap.ID, end.State, end.Error)
			default:
				before := failedIn()
				got, err := r.Result(snap.ID)
				if before == "" && failedIn() == "readResult in Result" {
					if err == nil {
						fail("Result of job %s returned no error", snap.ID)
					}
				} else if err != nil || !bytes.Equal(got, want[snap.ID]) {
					fail("recovered job %s result %q (err %v), want %q", snap.ID, got, err, want[snap.ID])
				}
			}
		}
		r.Close()
	}
	return problems
}

// describeOp renders the last operation of a log prefix for failure
// messages.
func describeOp(log []fsOp, point int) string {
	if point == 0 {
		return "start"
	}
	op := log[point-1]
	names := [...]string{"mkdir", "create", "rename", "remove", "write", "trunc", "fsync", "syncdir", "acked", "done"}
	if op.kind == opRename {
		return fmt.Sprintf("rename %s -> %s", op.path, op.to)
	}
	if op.path == "" {
		return fmt.Sprintf("%s inode %d", names[op.kind], op.ino)
	}
	return names[op.kind] + " " + op.path
}

// TestCrashModelKeepsOnlySyncedState pins the model itself: unsynced
// entries and bytes are optional, synced ones are not, and a lost
// directory takes its entries with it.
func TestCrashModelKeepsOnlySyncedState(t *testing.T) {
	fsys := newMemFS("/data")
	if err := fsys.MkdirAll("/data/jobs", 0o755); err != nil {
		t.Fatal(err)
	}
	f, err := fsys.OpenFile("/data/jobs/x.jnl", os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	mustWrite := func(s string) {
		if _, err := f.Write([]byte(s)); err != nil {
			t.Fatal(err)
		}
	}
	mustWrite("synced\n")
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	mustWrite("tail\n")
	if err := fsys.SyncDir("/data/jobs"); err != nil {
		t.Fatal(err)
	}
	cm := newCrashModel(newMemFS("/data"))
	for _, op := range fsys.log {
		cm.apply(op)
	}
	// The mkdir is pending in /data; x.jnl's entry was synced into
	// /data/jobs; its tail is dirty.
	dirty := cm.dirty()
	if len(cm.pending) != 1 || cm.pending[0].kind != opMkdir || len(dirty) != 1 {
		t.Fatalf("pending %v, dirty %v", cm.pending, dirty)
	}
	for mask, want := range []string{"", "synced\n", "", "synced\ntail\n"} {
		got, err := cm.crashState(uint(mask), dirty).ReadFile("/data/jobs/x.jnl")
		if want == "" {
			if err == nil {
				t.Errorf("mask %b: x.jnl survived without its directory", mask)
			}
			continue
		}
		if string(got) != want {
			t.Errorf("mask %b: x.jnl = %q (err %v), want %q", mask, got, err, want)
		}
	}
}
