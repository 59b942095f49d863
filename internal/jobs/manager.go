package jobs

import (
	"context"
	"errors"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/progress"
)

// ErrQueueFull is returned by Submit when the scheduler queue is at its
// depth limit; the serving layer maps it to 429 Too Many Requests so
// saturation is visible as back-pressure, never as timeouts.
var ErrQueueFull = errors.New("jobs: queue full")

// ErrUnknownJob is returned for operations on job IDs the manager does
// not know (never created, or already garbage-collected).
var ErrUnknownJob = errors.New("jobs: unknown job")

// Runner executes one job's engine request and returns the response
// bytes the synchronous endpoint would have written. The serving layer
// supplies its cache-and-pool path here, so identical concurrent jobs
// single-flight into one engine run and an async result is
// byte-identical to the synchronous response for the same request.
type Runner func(ctx context.Context, spec Spec) ([]byte, error)

// Config configures a Manager. Zero values select defaults.
type Config struct {
	// Dir is the persistent store directory. Empty disables persistence:
	// jobs live in memory only and do not survive restarts.
	Dir string
	// Workers bounds concurrently executing jobs (default GOMAXPROCS).
	// Engine concurrency is additionally bounded by the serving layer's
	// worker pool, which the Runner acquires.
	Workers int
	// QueueDepth bounds jobs waiting to run; Submit fails with
	// ErrQueueFull beyond it (default 64).
	QueueDepth int
	// MaxJobs caps retained jobs; the oldest terminal jobs are
	// garbage-collected beyond it (default 1024).
	MaxJobs int
	// Retention is how long terminal jobs stay readable (default 1h).
	Retention time.Duration
	// Timeout is the per-job execution deadline, independent of any
	// HTTP request deadline (default 10m). A submission's timeout_ms
	// may shorten but never extend it.
	Timeout time.Duration
	// Now overrides the clock (tests). Default time.Now.
	Now func() time.Time
	// Nonce overrides the job-ID nonce source (tests). Default 8 bytes
	// of crypto/rand.
	Nonce func() string
}

// Stats is a point-in-time snapshot of the job subsystem's gauges and
// counters, published under /v1/stats and expvar.
type Stats struct {
	// Queued/Running/Done/Failed/Canceled count retained jobs by state.
	Queued   int `json:"queued"`
	Running  int `json:"running"`
	Done     int `json:"done"`
	Failed   int `json:"failed"`
	Canceled int `json:"canceled"`
	// QueueDepth/QueueCap describe the scheduler queue.
	QueueDepth int `json:"queue_depth"`
	QueueCap   int `json:"queue_cap"`
	// Submitted/Completed/Requeued/Expired are lifetime counters:
	// accepted submissions, jobs reaching done, crash-recovered
	// re-queues, and garbage-collected jobs.
	Submitted int64 `json:"submitted"`
	Completed int64 `json:"completed"`
	Requeued  int64 `json:"requeued"`
	Expired   int64 `json:"expired"`
	// JournalFsyncs counts store fsyncs: journal state records, result
	// blobs, and the directory syncs that make new, renamed and removed
	// names durable.
	JournalFsyncs int64 `json:"journal_fsyncs"`
}

// Manager owns the job table, the persistent store, and the scheduler
// workers. Create with New, stop with Close.
type Manager struct {
	cfg Config
	run Runner
	st  *store // nil when persistence is disabled

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup
	queue  chan string

	mu   sync.Mutex
	jobs map[string]*job
	// queueLen counts IDs currently in the queue channel. It is the
	// admission gauge: Submit reserves a slot under mu and sends outside
	// it, so the send is guaranteed non-blocking (channel capacity covers
	// every reservation) and no channel operation happens under the lock.
	queueLen int

	submitted, completed, requeued, expired atomic.Int64
}

// New opens the store (when cfg.Dir is set), replays its journals —
// re-queueing jobs that were queued or running when the previous
// process died — and starts the scheduler workers and the retention
// sweeper.
func New(cfg Config, run Runner) (*Manager, error) {
	return newManager(cfg, run, osFS{})
}

// newManager is New over the given file system.
func newManager(cfg Config, run Runner, fsys fileSystem) (*Manager, error) {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 64
	}
	if cfg.MaxJobs <= 0 {
		cfg.MaxJobs = 1024
	}
	if cfg.Retention <= 0 {
		cfg.Retention = time.Hour
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 10 * time.Minute
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	if cfg.Nonce == nil {
		cfg.Nonce = randomNonce
	}
	m := &Manager{cfg: cfg, run: run, jobs: make(map[string]*job)}
	m.ctx, m.cancel = context.WithCancel(context.Background())

	var recovered []*job
	if cfg.Dir != "" {
		st, err := openStore(fsys, cfg.Dir)
		if err != nil {
			return nil, err
		}
		m.st = st
		recovered, err = st.recover(cfg.Now())
		if err != nil {
			return nil, err
		}
	}
	// The queue must absorb every recovered job on top of the
	// configured depth, or a restart under a full backlog would drop
	// accepted (202'd) work.
	m.queue = make(chan string, cfg.QueueDepth+len(recovered))
	for _, j := range recovered {
		if j.deadline <= 0 {
			j.deadline = cfg.Timeout
		}
		m.jobs[j.id] = j
		if j.requeued {
			m.requeued.Add(1)
			// Re-journal the queued state so a second crash replays the
			// same decision, then hand it back to the scheduler.
			if err := m.st.appendState(j.id, Queued, "", cfg.Now().UnixMilli()); err != nil {
				return nil, err
			}
			m.queueLen++
			m.queue <- j.id
		}
	}

	for w := 0; w < cfg.Workers; w++ {
		m.wg.Add(1)
		go func() {
			defer m.wg.Done()
			m.workerLoop()
		}()
	}
	m.wg.Add(1)
	go func() {
		defer m.wg.Done()
		m.gcLoop()
	}()
	return m, nil
}

// Close stops accepting work, cancels running jobs, and joins every
// manager goroutine. Jobs interrupted mid-run keep their journal in
// the running state, so the next New on the same directory re-queues
// them — Close is indistinguishable from a crash on purpose.
func (m *Manager) Close() {
	m.cancel()
	m.wg.Wait()
}

// Submit accepts one job: journals it, enqueues it, and returns its
// snapshot. timeout, when positive, shortens the per-job deadline.
// Returns ErrQueueFull when the scheduler queue is at its limit.
func (m *Manager) Submit(endpoint, key string, request []byte, timeout time.Duration) (Snapshot, error) {
	deadline := m.cfg.Timeout
	if timeout > 0 && timeout < deadline {
		deadline = timeout
	}
	j := &job{
		id:        NewID(key, m.cfg.Nonce()),
		endpoint:  endpoint,
		key:       key,
		request:   append([]byte(nil), request...),
		deadline:  deadline,
		state:     Queued,
		createdMS: m.cfg.Now().UnixMilli(),
		watch:     make(chan struct{}),
	}
	m.mu.Lock()
	if m.queueLen >= m.cfg.QueueDepth {
		m.mu.Unlock()
		return Snapshot{}, ErrQueueFull
	}
	if m.st != nil {
		if err := m.st.appendCreate(j); err != nil {
			// The client gets no ID, so recovery must not find the job:
			// a journal left here would come back failed or run.
			m.st.remove(j.id)
			m.mu.Unlock()
			return Snapshot{}, err
		}
	}
	m.jobs[j.id] = j
	m.submitted.Add(1)
	m.queueLen++
	m.gcLocked()
	snap := j.snapshot()
	m.mu.Unlock()
	// The slot was reserved under the lock and the channel's capacity
	// covers every reservation (depth plus recovery headroom), so this
	// send can never block.
	m.queue <- j.id
	return snap, nil
}

// Get returns the job's snapshot.
func (m *Manager) Get(id string) (Snapshot, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return Snapshot{}, false
	}
	return j.snapshot(), true
}

// Watch returns the job's snapshot plus a channel that is closed on
// its next observable change (state transition or progress sample).
func (m *Manager) Watch(id string) (Snapshot, <-chan struct{}, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return Snapshot{}, nil, false
	}
	return j.snapshot(), j.watch, true
}

// Result returns the response bytes of a done job.
func (m *Manager) Result(id string) ([]byte, error) {
	m.mu.Lock()
	j, ok := m.jobs[id]
	if !ok {
		m.mu.Unlock()
		return nil, ErrUnknownJob
	}
	if j.state != Done {
		m.mu.Unlock()
		return nil, fmt.Errorf("jobs: job %s is %s, not done", id, j.state)
	}
	val := j.result
	m.mu.Unlock()
	if val != nil {
		return val, nil
	}
	// Recovered done job: the blob lives only on disk.
	return m.st.readResult(id)
}

// Cancel requests cooperative cancellation: a queued job flips to
// canceled immediately; a running job's context is cancelled and the
// worker records the canceled state as soon as the engine unwinds
// (within one poll interval). Terminal jobs are left untouched.
func (m *Manager) Cancel(id string) (Snapshot, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return Snapshot{}, false
	}
	switch j.state {
	case Queued:
		j.cancelRequested = true
		m.transitionLocked(j, Canceled, "")
	case Running:
		j.cancelRequested = true
		if j.cancel != nil {
			j.cancel()
		}
	}
	return j.snapshot(), true
}

// List returns every retained job, oldest first (ties broken by ID, so
// the order is deterministic).
func (m *Manager) List() []Snapshot {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]Snapshot, 0, len(m.jobs))
	for _, j := range m.jobs {
		out = append(out, j.snapshot())
	}
	sort.Slice(out, func(i, k int) bool {
		if out[i].CreatedUnixMS != out[k].CreatedUnixMS {
			return out[i].CreatedUnixMS < out[k].CreatedUnixMS
		}
		return out[i].ID < out[k].ID
	})
	return out
}

// Stats snapshots the subsystem counters.
func (m *Manager) Stats() Stats {
	m.mu.Lock()
	s := Stats{
		QueueDepth: m.queueLen,
		QueueCap:   m.cfg.QueueDepth,
	}
	for _, j := range m.jobs {
		switch j.state {
		case Queued:
			s.Queued++
		case Running:
			s.Running++
		case Done:
			s.Done++
		case Failed:
			s.Failed++
		case Canceled:
			s.Canceled++
		}
	}
	m.mu.Unlock()
	s.Submitted = m.submitted.Load()
	s.Completed = m.completed.Load()
	s.Requeued = m.requeued.Load()
	s.Expired = m.expired.Load()
	s.JournalFsyncs = m.st.Fsyncs()
	return s
}

// workerLoop drains the queue until the manager closes.
func (m *Manager) workerLoop() {
	for {
		select {
		case <-m.ctx.Done():
			return
		case id := <-m.queue:
			m.runJob(id)
		}
	}
}

// runJob executes one dequeued job end to end.
func (m *Manager) runJob(id string) {
	m.mu.Lock()
	m.queueLen--
	j, ok := m.jobs[id]
	if !ok || j.state != Queued {
		// Cancelled while queued, or GC'd: nothing to run.
		m.mu.Unlock()
		return
	}
	jctx, cancel := context.WithTimeout(m.ctx, j.deadline)
	j.cancel = cancel
	m.transitionLocked(j, Running, "")
	spec := Spec{ID: j.id, Endpoint: j.endpoint, Key: j.key, Request: j.request}
	m.mu.Unlock()
	defer cancel()

	val, err := m.runRecovered(progressContext(jctx, m, id), spec)

	m.mu.Lock()
	defer m.mu.Unlock()
	j.cancel = nil
	switch {
	case err == nil:
		if m.st != nil {
			if werr := m.st.writeResult(id, val); werr != nil {
				m.transitionLocked(j, Failed, werr.Error())
				return
			}
		}
		j.result = val
		m.completed.Add(1)
		m.transitionLocked(j, Done, "")
	case j.cancelRequested:
		m.transitionLocked(j, Canceled, "")
	case m.ctx.Err() != nil:
		// Manager shutdown: leave the journal in the running state so
		// the next process re-queues the job — a clean Close is
		// indistinguishable from a crash by design.
		j.state = Queued
	case errors.Is(err, context.DeadlineExceeded):
		m.transitionLocked(j, Failed, "job deadline exceeded after "+j.deadline.String())
	default:
		m.transitionLocked(j, Failed, err.Error())
	}
}

// runRecovered calls the runner, turning a panic into an error after
// writing its value and stack to stderr. The job then ends failed, and
// the journal records it, so a restart neither re-runs it nor dies.
func (m *Manager) runRecovered(ctx context.Context, spec Spec) (val []byte, err error) {
	defer func() {
		if r := recover(); r != nil {
			fmt.Fprintf(os.Stderr, "jobs: job %s panicked: %v\n%s", spec.ID, r, debug.Stack())
			val, err = nil, fmt.Errorf("job panicked: %v", r)
		}
	}()
	return m.run(ctx, spec)
}

// progressContext attaches the manager's progress sink for one job.
// (Free function rather than a closure-in-runJob so the locking story
// stays in updateProgress.)
func progressContext(ctx context.Context, m *Manager, id string) context.Context {
	return progress.With(ctx, func(stage string, done, total int64) {
		m.updateProgress(id, stage, done, total)
	})
}

// updateProgress records one sample, clamping so done never regresses
// within a stage, and journals it at a throttled granularity (stage
// changes and ≥1% advances).
func (m *Manager) updateProgress(id, stage string, done, total int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok || j.state != Running {
		return
	}
	if j.hasProgress && j.progress.Stage == stage && done < j.progress.Done {
		return // monotonicity clamp
	}
	j.progress = Progress{Stage: stage, Done: done, Total: total}
	j.hasProgress = true
	m.notifyLocked(j)
	if m.st == nil {
		return
	}
	step := total / 100
	if step < 1 {
		step = 1
	}
	if j.lastJournaled.Stage == stage && done < j.lastJournaled.Done+step && done != total {
		return
	}
	j.lastJournaled = j.progress
	// A failed progress append is not worth failing the job over; the
	// journal just reports staler progress after a crash.
	_ = m.st.appendProgress(id, j.progress)
}

// transitionLocked moves the job to a new state, journals it, and
// wakes watchers. Callers hold m.mu.
func (m *Manager) transitionLocked(j *job, s State, errMsg string) {
	ms := m.cfg.Now().UnixMilli()
	j.state = s
	j.errMsg = errMsg
	switch s {
	case Running:
		j.startedMS = ms
	case Done, Failed, Canceled:
		j.finishedMS = ms
	}
	if m.st != nil {
		// Journal failures must not wedge the in-memory state machine;
		// the job proceeds and the journal is simply behind (recovery
		// would re-run it, which is safe: results are content-addressed).
		_ = m.st.appendState(j.id, s, errMsg, ms)
	}
	m.notifyLocked(j)
}

// notifyLocked wakes every Watch waiter on j.
func (m *Manager) notifyLocked(j *job) {
	close(j.watch)
	j.watch = make(chan struct{})
}

// gcLoop sweeps expired jobs until the manager closes.
func (m *Manager) gcLoop() {
	interval := m.cfg.Retention / 4
	if interval > 30*time.Second {
		interval = 30 * time.Second
	}
	if interval < time.Second {
		interval = time.Second
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-m.ctx.Done():
			return
		case <-t.C:
			m.mu.Lock()
			m.gcLocked()
			m.mu.Unlock()
		}
	}
}

// gcLocked enforces the retention policy: terminal jobs older than
// Retention are removed, then the oldest terminal jobs beyond MaxJobs.
// Queued and running jobs are never collected. Callers hold m.mu.
func (m *Manager) gcLocked() {
	cutoff := m.cfg.Now().Add(-m.cfg.Retention).UnixMilli()
	var terminal []*job
	for _, j := range m.jobs {
		if !j.state.Terminal() {
			continue
		}
		if j.finishedMS <= cutoff {
			m.removeLocked(j)
			continue
		}
		terminal = append(terminal, j)
	}
	over := len(m.jobs) - m.cfg.MaxJobs
	if over <= 0 {
		return
	}
	sort.Slice(terminal, func(i, k int) bool {
		if terminal[i].finishedMS != terminal[k].finishedMS {
			return terminal[i].finishedMS < terminal[k].finishedMS
		}
		return terminal[i].id < terminal[k].id
	})
	for i := 0; i < len(terminal) && over > 0; i++ {
		m.removeLocked(terminal[i])
		over--
	}
}

// removeLocked deletes one job from the table and the store.
func (m *Manager) removeLocked(j *job) {
	delete(m.jobs, j.id)
	m.expired.Add(1)
	if m.st != nil {
		m.st.remove(j.id)
	}
}
