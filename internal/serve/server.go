package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/audit"
	"repro/internal/experiments"
	"repro/internal/metrics"
	"repro/internal/par"
	"repro/internal/shard"
	"repro/internal/vfs"
)

// Config tunes the daemon.
type Config struct {
	// DataDir roots the durable job state: each job lives in
	// <DataDir>/jobs/<id>/ with its job.json record, campaign.ckpt
	// checkpoint, report.txt output, and optional .vubiq captures.
	DataDir string
	// Jobs bounds concurrently running jobs (the worker pool; min 1).
	Jobs int
	// QueueCap bounds queued jobs; a submission beyond it is rejected
	// with 429 + Retry-After (min 1).
	QueueCap int
	// JobParallel is the per-job experiment concurrency handed to
	// experiments.RunCampaign (min 1).
	JobParallel int
	// Deadline is the per-experiment wall-clock watchdog applied to
	// every job (experiments.Campaign.Deadline): one clock per
	// experiment, started at its launch and shared by all of its sweep
	// points, and private to its job. Zero disables it. Whole-job
	// budgets come from JobSpec.Deadline instead.
	Deadline time.Duration
	// RetryAfter is the hint returned with 429 rejections.
	RetryAfter time.Duration
	// ShardWorkerCommand builds the worker process for jobs that request
	// sharded execution (JobSpec.Shards > 0). The default re-execs the
	// current binary with the "shard-worker" subcommand — mmsimd's
	// protocol entry; tests substitute their own argv.
	ShardWorkerCommand func() (*exec.Cmd, error)
	// FS routes every durable write (job.json, report.txt, checkpoints,
	// captures) through an injectable filesystem; nil means the real OS.
	// Fault injection and crash-point enumeration substitute theirs.
	FS vfs.FS

	// lookup and allIDs are test seams over the experiment registry.
	lookup func(id string) (experiments.Runner, bool)
	allIDs func() []string
}

func (c *Config) fillDefaults() {
	if c.Jobs < 1 {
		c.Jobs = 1
	}
	if c.QueueCap < 1 {
		c.QueueCap = 64
	}
	if c.JobParallel < 1 {
		c.JobParallel = 1
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = 10 * time.Second
	}
	if c.FS == nil {
		c.FS = vfs.OS()
	}
	if c.ShardWorkerCommand == nil {
		c.ShardWorkerCommand = func() (*exec.Cmd, error) {
			exe, err := os.Executable()
			if err != nil {
				return nil, err
			}
			return exec.Command(exe, "shard-worker"), nil
		}
	}
	if c.lookup == nil {
		c.lookup = experiments.Get
	}
	if c.allIDs == nil {
		c.allIDs = func() []string {
			var ids []string
			for _, r := range experiments.All() {
				ids = append(ids, r.ID)
			}
			return ids
		}
	}
}

// Server is the mmsimd job daemon: HTTP API, admission-controlled
// priority queue, bounded worker pool, durable per-job checkpoints.
type Server struct {
	cfg   Config
	queue *jobQueue
	mux   *http.ServeMux

	mu   sync.Mutex
	jobs map[string]*Job

	nextID   uint64 // guarded by mu
	nextSeq  atomic.Uint64
	draining atomic.Bool
	wg       sync.WaitGroup

	running      atomic.Int64
	submitted    atomic.Uint64
	rejected     atomic.Uint64
	jobsDone     atomic.Uint64
	jobsFailed   atomic.Uint64
	jobsCanceled atomic.Uint64
	expCompleted atomic.Uint64
	expResumed   atomic.Uint64
}

// New builds a server over the data directory, reloading every job a
// previous daemon instance left behind: terminal jobs come back for
// status/report queries, queued and running ones re-enter the queue and
// resume from their campaign checkpoints byte-identically.
func New(cfg Config) (*Server, error) {
	cfg.fillDefaults()
	s := &Server{
		cfg:   cfg,
		queue: newJobQueue(cfg.QueueCap),
		jobs:  make(map[string]*Job),
	}
	if err := cfg.FS.MkdirAll(s.jobsRoot(), 0o755); err != nil {
		return nil, err
	}
	if err := s.reload(); err != nil {
		return nil, err
	}
	s.routes()
	return s, nil
}

func (s *Server) jobsRoot() string        { return filepath.Join(s.cfg.DataDir, "jobs") }
func (s *Server) jobDir(id string) string { return filepath.Join(s.jobsRoot(), id) }

// reload restores jobs from a previous daemon instance.
func (s *Server) reload() error {
	dirs, err := s.cfg.FS.ReadDir(s.jobsRoot())
	if err != nil {
		return err
	}
	var pending []*Job
	for _, d := range dirs {
		if !d.IsDir() {
			continue
		}
		j, err := loadJob(s.cfg.FS, s.jobDir(d.Name()))
		if err != nil {
			// A torn or foreign directory must not block the daemon;
			// leave it on disk for inspection.
			fmt.Fprintf(os.Stderr, "serve: skipping job dir %s: %v\n", d.Name(), err)
			continue
		}
		s.jobs[j.ID] = j
		if n, ok := parseJobID(j.ID); ok && n >= s.nextID {
			s.nextID = n + 1
		}
		if !j.State().terminal() {
			pending = append(pending, j)
		}
	}
	// Requeue interrupted jobs in submission order. Capacity is waived:
	// these jobs were already admitted once.
	sort.Slice(pending, func(i, k int) bool { return pending[i].ID < pending[k].ID })
	for _, j := range pending {
		j.seq = s.nextSeq.Add(1)
		s.queue.pushForce(j)
	}
	return nil
}

const jobIDPrefix = "job-"

func formatJobID(n uint64) string { return fmt.Sprintf("%s%06d", jobIDPrefix, n) }

func parseJobID(id string) (uint64, bool) {
	if !strings.HasPrefix(id, jobIDPrefix) {
		return 0, false
	}
	n, err := strconv.ParseUint(id[len(jobIDPrefix):], 10, 64)
	return n, err == nil
}

// Start launches the worker pool.
func (s *Server) Start() {
	for i := 0; i < s.cfg.Jobs; i++ {
		s.wg.Add(1)
		go s.worker()
	}
}

// Drain gracefully stops the server: admission closes (submissions get
// 503), running jobs stop launching new experiments and flush their
// checkpoints, and once every worker has parked their jobs are back in
// the durable queued state for the next daemon instance to resume.
func (s *Server) Drain() {
	s.draining.Store(true)
	s.queue.close()
	s.wg.Wait()
}

// Draining reports whether Drain has begun.
func (s *Server) Draining() bool { return s.draining.Load() }

func (s *Server) worker() {
	defer s.wg.Done()
	for {
		j := s.queue.popWait()
		if j == nil {
			return
		}
		s.running.Add(1)
		s.runJob(j)
		s.running.Add(-1)
	}
}

// runJob executes one job's campaign, resuming from its checkpoint.
func (s *Server) runJob(j *Job) {
	dir := s.jobDir(j.ID)
	j.mu.Lock()
	j.state = StateRunning
	j.started = time.Now()
	j.failed, j.resumed, j.skipped = 0, 0, 0
	j.results = nil
	j.mu.Unlock()
	if err := j.persist(s.cfg.FS, dir); err != nil {
		s.finishJob(j, dir, StateFailed, fmt.Sprintf("persisting job state: %v", err))
		return
	}
	j.events.append(Event{Event: "state", State: StateRunning})

	ids, err := expandIDs(j.Spec.Experiments, func(id string) bool {
		_, ok := s.cfg.lookup(id)
		return ok
	}, s.cfg.allIDs)
	if err != nil {
		s.finishJob(j, dir, StateFailed, err.Error())
		return
	}
	runners := make([]experiments.Runner, len(ids))
	for i, id := range ids {
		runners[i], _ = s.cfg.lookup(id)
	}
	opts := experiments.Options{Seed: j.EffSeed, Quick: j.Spec.Quick, DiskFS: s.cfg.FS}
	if j.Spec.Capture {
		opts.CaptureDir = dir
	}
	ckpt, err := experiments.ResumeCheckpointFS(s.cfg.FS, dir, opts, ids)
	if err != nil {
		s.finishJob(j, dir, StateFailed, err.Error())
		return
	}
	defer ckpt.Close()

	jobBudget, _ := j.Spec.deadline() // validated at submission
	start := time.Now()
	var deadlineHit atomic.Bool
	stop := func() bool {
		if j.canceled.Load() || s.draining.Load() {
			return true
		}
		if jobBudget > 0 && time.Since(start) > jobBudget {
			deadlineHit.Store(true)
			return true
		}
		return false
	}

	var report strings.Builder
	skipped := 0
	var ckptErr error
	emit := func(_ int, st experiments.Status) {
		if st.CheckpointErr != nil && ckptErr == nil {
			ckptErr = st.CheckpointErr
		}
		if st.Skipped {
			skipped++
			j.mu.Lock()
			j.skipped = skipped
			j.mu.Unlock()
			j.events.append(Event{Event: "experiment", ID: st.Result.ID, Skipped: true})
			return
		}
		fp := metrics.FromResult(st.Result)
		report.WriteString(st.Result.String())
		report.WriteByte('\n')
		j.mu.Lock()
		if !fp.Pass {
			j.failed++
		}
		if st.Resumed {
			j.resumed++
		}
		j.results = append(j.results, fp)
		j.mu.Unlock()
		s.expCompleted.Add(1)
		if st.Resumed {
			s.expResumed.Add(1)
		}
		j.events.append(Event{
			Event:   "experiment",
			ID:      st.Result.ID,
			Pass:    fp.Pass,
			Resumed: st.Resumed,
			WallMS:  st.Wall.Milliseconds(),
			Series:  fp.Series,
		})
	}

	if j.Spec.Shards > 0 {
		// Sharded execution: the job's campaign fans across worker
		// processes but flows through the same checkpoint, emit, and stop
		// hooks, so cancel/drain/resume semantics — and the report bytes —
		// are identical to the in-process path.
		shard.New(runners, opts, shard.Config{
			Shards:        j.Spec.Shards,
			Deadline:      s.cfg.Deadline,
			Checkpoint:    ckpt,
			Emit:          emit,
			Stop:          stop,
			SweepWorkers:  par.Workers(),
			AuditMode:     audit.CurrentMode().String(),
			WorkerCommand: s.cfg.ShardWorkerCommand,
		}).Run()
	} else {
		experiments.RunCampaign(runners, opts, experiments.Campaign{
			Parallel:   s.cfg.JobParallel,
			Deadline:   s.cfg.Deadline,
			Checkpoint: ckpt,
			Emit:       emit,
			Stop:       stop,
		})
	}
	if err := ckpt.Close(); err != nil && ckptErr == nil {
		ckptErr = err
	}
	if ckptErr != nil {
		// Results finished in memory but their durable record is torn or
		// missing — report failed-with-diagnostics, never a clean done
		// whose resume would silently re-run experiments.
		s.finishJob(j, dir, StateFailed, fmt.Sprintf("checkpoint write failed: %v", ckptErr))
		return
	}

	switch {
	case j.canceled.Load():
		s.finishJob(j, dir, StateCanceled, "canceled by client")
	case deadlineHit.Load():
		s.finishJob(j, dir, StateFailed, fmt.Sprintf("job deadline %s exceeded", j.Spec.Deadline))
	case s.draining.Load() && skipped > 0:
		// Drained mid-run: the finished prefix is checkpointed; put the
		// job back in the durable queued state so the next daemon
		// instance resumes it byte-identically.
		j.mu.Lock()
		j.state = StateQueued
		j.started = time.Time{}
		j.mu.Unlock()
		if err := j.persist(s.cfg.FS, dir); err != nil {
			fmt.Fprintf(os.Stderr, "serve: %s: %v\n", j.ID, err)
		}
		j.events.append(Event{Event: "state", State: StateQueued, Detail: "daemon draining; job will resume on restart"})
	default:
		// Complete. The report is the job's byte-identity surface: the
		// concatenated experiment reports with no wall-clock noise, so
		// a resumed job's report matches an uninterrupted run exactly.
		if err := vfs.WriteFileAtomic(s.cfg.FS, filepath.Join(dir, reportFileName), []byte(report.String())); err != nil {
			s.finishJob(j, dir, StateFailed, fmt.Sprintf("writing report: %v", err))
			return
		}
		j.mu.Lock()
		j.report = report.String()
		failed := j.failed
		j.mu.Unlock()
		if failed > 0 {
			s.finishJob(j, dir, StateFailed, fmt.Sprintf("%d experiment(s) failed", failed))
		} else {
			s.finishJob(j, dir, StateDone, "")
		}
	}
}

// finishJob moves the job to a terminal state, persists it, and ends
// its event stream.
func (s *Server) finishJob(j *Job, dir string, state JobState, diag string) {
	j.mu.Lock()
	j.state = state
	j.finished = time.Now()
	j.diag = diag
	failed := j.failed
	j.mu.Unlock()
	switch state {
	case StateDone:
		s.jobsDone.Add(1)
	case StateFailed:
		s.jobsFailed.Add(1)
	case StateCanceled:
		s.jobsCanceled.Add(1)
	}
	if err := j.persist(s.cfg.FS, dir); err != nil {
		fmt.Fprintf(os.Stderr, "serve: %s: %v\n", j.ID, err)
	}
	j.events.append(Event{Event: "done", State: state, Failed: failed, Detail: diag})
	j.events.close()
}

// Handler returns the HTTP API.
func (s *Server) Handler() http.Handler { return s.mux }

func (s *Server) routes() {
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/jobs", s.handleList)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	s.mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	s.mux.HandleFunc("GET /v1/jobs/{id}/report", s.handleReport)
	s.mux.HandleFunc("GET /v1/jobs/{id}/metrics", s.handleJobMetrics)
	s.mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /v1/metrics", s.handleMetrics)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

type apiError struct {
	Error string `json:"error"`
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, apiError{Error: fmt.Sprintf(format, args...)})
}

// handleSubmit is POST /v1/jobs: validate, admit, queue.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, "daemon is draining")
		return
	}
	var spec JobSpec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		writeError(w, http.StatusBadRequest, "bad job spec: %v", err)
		return
	}
	ids, err := expandIDs(spec.Experiments, func(id string) bool {
		_, ok := s.cfg.lookup(id)
		return ok
	}, s.cfg.allIDs)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad job spec: %v", err)
		return
	}
	spec.Experiments = ids
	if _, err := spec.deadline(); err != nil {
		writeError(w, http.StatusBadRequest, "bad job spec: %v", err)
		return
	}
	if spec.Shards < 0 || spec.Shards > maxShards {
		writeError(w, http.StatusBadRequest, "bad job spec: shards %d out of range [0, %d]", spec.Shards, maxShards)
		return
	}

	s.mu.Lock()
	id := formatJobID(s.nextID)
	s.nextID++
	s.mu.Unlock()
	j := &Job{
		ID:      id,
		Spec:    spec,
		EffSeed: EffectiveSeed(spec.Tenant, spec.Seed),
		seq:     s.nextSeq.Add(1),
		events:  newEventLog(),
		state:   StateQueued,
		created: time.Now(),
	}
	// An unwritable data dir means no durable 202 is possible:
	// 507 Insufficient Storage, not a generic 500, so clients can tell
	// "my spec is fine, the daemon's disk is not" and retry elsewhere.
	dir := s.jobDir(id)
	if err := s.cfg.FS.MkdirAll(dir, 0o755); err != nil {
		writeError(w, http.StatusInsufficientStorage, "data dir unwritable: %v", err)
		return
	}
	// Persist before enqueueing: once the client holds a 202, a SIGKILL
	// must not lose the job.
	if err := j.persist(s.cfg.FS, dir); err != nil {
		s.cfg.FS.RemoveAll(dir)
		writeError(w, http.StatusInsufficientStorage, "data dir unwritable: %v", err)
		return
	}
	s.mu.Lock()
	s.jobs[id] = j
	s.mu.Unlock()
	if !s.queue.push(j) {
		// Admission control: the queue is full (or closed by a racing
		// drain). Back out the durable record so a restart does not
		// resurrect a job the client was told to retry.
		s.mu.Lock()
		delete(s.jobs, id)
		s.mu.Unlock()
		s.cfg.FS.RemoveAll(dir)
		s.rejected.Add(1)
		w.Header().Set("Retry-After", strconv.Itoa(int(s.cfg.RetryAfter/time.Second)))
		writeError(w, http.StatusTooManyRequests, "job queue is full (%d queued); retry later", s.queue.depth())
		return
	}
	s.submitted.Add(1)
	j.events.append(Event{Event: "state", State: StateQueued})
	writeJSON(w, http.StatusAccepted, j.snapshot())
}

func (s *Server) job(r *http.Request) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[r.PathValue("id")]
	return j, ok
}

// handleList is GET /v1/jobs.
func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	jobs := make([]*Job, 0, len(s.jobs))
	for _, j := range s.jobs {
		jobs = append(jobs, j)
	}
	s.mu.Unlock()
	sort.Slice(jobs, func(i, k int) bool { return jobs[i].ID < jobs[k].ID })
	out := make([]Snapshot, len(jobs))
	for i, j := range jobs {
		out[i] = j.snapshot()
		out[i].Results = nil // keep the listing light
	}
	writeJSON(w, http.StatusOK, out)
}

// handleStatus is GET /v1/jobs/{id}.
func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(r)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, j.snapshot())
}

// handleCancel is DELETE /v1/jobs/{id}. A queued job cancels
// immediately; a running one stops after its in-flight experiments
// finish (they still checkpoint). Terminal jobs conflict.
func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(r)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	if st := j.State(); st.terminal() {
		writeError(w, http.StatusConflict, "job is already %s", st)
		return
	}
	j.canceled.Store(true)
	if s.queue.remove(j.ID) {
		// Still queued: cancel completes synchronously.
		s.finishJob(j, s.jobDir(j.ID), StateCanceled, "canceled by client")
		writeJSON(w, http.StatusOK, j.snapshot())
		return
	}
	// Running (or being popped): the worker observes the flag between
	// experiments and finishes the cancellation.
	writeJSON(w, http.StatusAccepted, j.snapshot())
}

// handleEvents is GET /v1/jobs/{id}/events: the job's progress stream
// as NDJSON, one event per line, following until the job reaches a
// terminal state or the client disconnects. The optional ?from=N query
// parameter replays from event offset N instead of the beginning, so a
// client whose stream dropped resumes without duplicates.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(r)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	from := 0
	if v := r.URL.Query().Get("from"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			writeError(w, http.StatusBadRequest, "from %q is not a non-negative integer", v)
			return
		}
		from = n
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	for {
		lines, done, changed := j.events.tail(from)
		for _, line := range lines {
			if _, err := fmt.Fprintln(w, line); err != nil {
				return
			}
		}
		from += len(lines)
		if len(lines) > 0 && flusher != nil {
			flusher.Flush()
		}
		if done {
			return
		}
		select {
		case <-changed:
		case <-r.Context().Done():
			return
		}
	}
}

// handleReport is GET /v1/jobs/{id}/report: the completed campaign's
// text report — the byte-identity surface for resume verification.
func (s *Server) handleReport(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(r)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	j.mu.Lock()
	report := j.report
	state := j.state
	j.mu.Unlock()
	if report == "" {
		writeError(w, http.StatusConflict, "job is %s; no report yet", state)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprint(w, report)
}

// handleJobMetrics is GET /v1/jobs/{id}/metrics: the job's campaign
// metrics in the same internal/metrics JSON schema mmsim -metrics
// writes, so a job's output can feed the goldencheck gate directly.
func (s *Server) handleJobMetrics(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(r)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	j.mu.Lock()
	file := metrics.File{Experiments: append([]metrics.Experiment(nil), j.results...)}
	j.mu.Unlock()
	writeJSON(w, http.StatusOK, file)
}

// handleHealthz is GET /v1/healthz.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"status":   "ok",
		"draining": s.draining.Load(),
		"running":  s.running.Load(),
		"queued":   s.queue.depth(),
	})
}

// ServerMetrics is the GET /v1/metrics payload: daemon-level counters
// plus the runtime auditor's per-rule violation counts when auditing is
// enabled (the same taxonomy internal/metrics embeds in campaign
// snapshots).
type ServerMetrics struct {
	JobsSubmitted      uint64            `json:"jobs_submitted"`
	JobsRejected       uint64            `json:"jobs_rejected"`
	JobsDone           uint64            `json:"jobs_done"`
	JobsFailed         uint64            `json:"jobs_failed"`
	JobsCanceled       uint64            `json:"jobs_canceled"`
	JobsRunning        int64             `json:"jobs_running"`
	QueueDepth         int               `json:"queue_depth"`
	ExperimentsRun     uint64            `json:"experiments_run"`
	ExperimentsResumed uint64            `json:"experiments_resumed"`
	Audit              map[string]uint64 `json:"audit,omitempty"`
}

// handleMetrics is GET /v1/metrics.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	m := ServerMetrics{
		JobsSubmitted:      s.submitted.Load(),
		JobsRejected:       s.rejected.Load(),
		JobsDone:           s.jobsDone.Load(),
		JobsFailed:         s.jobsFailed.Load(),
		JobsCanceled:       s.jobsCanceled.Load(),
		JobsRunning:        s.running.Load(),
		QueueDepth:         s.queue.depth(),
		ExperimentsRun:     s.expCompleted.Load(),
		ExperimentsResumed: s.expResumed.Load(),
	}
	if audit.On() {
		counts := audit.Counts()
		if len(counts) > 0 {
			m.Audit = make(map[string]uint64, len(counts))
			for rule, n := range counts {
				m.Audit[string(rule)] = n
			}
		}
	}
	writeJSON(w, http.StatusOK, m)
}
