package server

import (
	"container/heap"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	accmos "accmos"
	"accmos/internal/lint"
	"accmos/internal/obs"
)

// Config shapes one daemon instance.
type Config struct {
	// Workers is the number of concurrent job executors (default
	// GOMAXPROCS). Each running job may itself spawn a generated binary,
	// so this is the daemon's simulation concurrency.
	Workers int
	// QueueDepth bounds the number of ADMITTED-but-not-running jobs;
	// beyond it, submissions get 429 + Retry-After instead of unbounded
	// memory growth (default 64).
	QueueDepth int
	// CacheEntries bounds the shared build cache (default 128; <0 leaves
	// it unbounded). Ignored when Cache is supplied.
	CacheEntries int
	// Cache overrides the daemon's private build cache, e.g. to share
	// one across embedded servers in tests.
	Cache *accmos.BuildCache
	// RetryAfter is the hint returned with 429s (default 1s).
	RetryAfter time.Duration
	// MaxBodyBytes bounds a submission body (default 8 MiB).
	MaxBodyBytes int64
	// JobTimeout caps every job's execution; a request asking for more
	// (or for none) is clamped to it. Zero = no cap.
	JobTimeout time.Duration
	// PoolWorkers bounds the warm serve-mode processes the daemon keeps
	// per compiled artifact, shared across jobs — the process-startup
	// analogue of the build cache (default 2; NewWorkerPool raises a
	// negative value to 1).
	PoolWorkers int
	// DefaultOptLevel is the optimizing-middle-end level applied to
	// submissions that do not choose one (zero value = the facade
	// default, O1).
	DefaultOptLevel accmos.OptLevel

	// RetainJobs bounds how many finished job records stay queryable
	// (default 4096, oldest evicted first).
	RetainJobs int
	// Runner executes admitted jobs (default: PipelineRunner over the
	// daemon's cache and worker pool). Tests substitute stub runners.
	Runner Runner
	// Logger receives structured operational logs; every per-job record
	// carries a "corr" attribute equal to the job ID, joinable with the
	// job's trace spans, heartbeats and debug bundle (default:
	// discarded).
	Logger *slog.Logger
}

func (c *Config) fillDefaults() {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.CacheEntries == 0 {
		c.CacheEntries = 128
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 8 << 20
	}
	if c.RetainJobs <= 0 {
		c.RetainJobs = 4096
	}
	if c.PoolWorkers == 0 {
		c.PoolWorkers = 2
	}
	if c.Logger == nil {
		c.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
}

// defaultHeartbeat is the events-stream snapshot interval when a
// submission does not choose one.
const defaultHeartbeat = 250 * time.Millisecond

// Server is one accmosd instance: job store, scheduler and HTTP surface.
// Create with New, serve its Handler, stop with Drain.
type Server struct {
	cfg   Config
	cache *accmos.BuildCache
	pool  *accmos.WorkerPool
	mux   *http.ServeMux
	start time.Time

	mu        sync.Mutex
	cond      *sync.Cond
	queue     jobHeap
	jobs      map[string]*job
	doneOrder []string // terminal job ids, oldest first (retention)
	seq       int64
	running   int
	draining  bool
	// evictedDrops accumulates the dropped-snapshot totals of evicted
	// jobs' fanouts, so accmosd_events_dropped_total stays monotonic
	// across retention.
	evictedDrops int64

	wg      sync.WaitGroup
	metrics *metrics
}

// eventsDropped sums dropped progress snapshots across every retained
// job's event stream plus the evicted remainder — a lifetime total.
func (s *Server) eventsDropped() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	total := s.evictedDrops
	for _, j := range s.jobs {
		total += j.fanout.Stats().DroppedTotal
	}
	return total
}

// New builds a server and starts its worker pool.
func New(cfg Config) *Server {
	cfg.fillDefaults()
	cache := cfg.Cache
	if cache == nil {
		cache = accmos.NewBuildCache("")
		if cfg.CacheEntries > 0 {
			cache.SetLimit(cfg.CacheEntries)
		}
	}
	pool := accmos.NewWorkerPool(cfg.PoolWorkers)
	if cfg.Runner == nil {
		cfg.Runner = PipelineRunner(cache, pool)
	}
	s := &Server{
		cfg:   cfg,
		cache: cache,
		pool:  pool,
		jobs:  make(map[string]*job),
		start: time.Now(),
	}
	s.metrics = newMetrics(s)
	s.cond = sync.NewCond(&s.mu)
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleGet)
	s.mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	s.mux.HandleFunc("GET /v1/jobs/{id}/debug", s.handleDebug)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// Handler returns the HTTP surface.
func (s *Server) Handler() http.Handler { return s.mux }

// Cache exposes the daemon's build cache (read-only use: stats).
func (s *Server) Cache() *accmos.BuildCache { return s.cache }

// Pool exposes the daemon's warm worker pool (read-only use: stats).
func (s *Server) Pool() *accmos.WorkerPool { return s.pool }

// Drain gracefully stops the scheduler: new submissions are refused with
// 503, already-admitted jobs (queued and running) are completed, and the
// call returns when the pool is idle. If ctx expires first, every
// remaining job is canceled, which kills its compile or its run, the
// pool is awaited, and the context error is returned — bounded shutdown
// either way. The daemon's private build cache is removed with its
// directory; a Config.Cache belongs to the caller and is left alone.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	queued, running := len(s.queue), s.running
	s.cond.Broadcast()
	s.mu.Unlock()
	s.cfg.Logger.Info("draining", "queued", queued, "running", running)

	idle := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(idle)
	}()
	// Once the executors are idle no job can reach the pool or the cache
	// again, so its warm child processes are safe to kill and the cache's
	// files safe to delete.
	defer func() {
		s.pool.Close()
		if s.cfg.Cache == nil {
			s.cache.Remove()
		}
	}()
	select {
	case <-idle:
		return nil
	case <-ctx.Done():
		s.mu.Lock()
		for _, j := range s.queue {
			j.cancelRequested = true
		}
		for _, j := range s.jobs {
			if j.state == JobRunning && j.cancelRun != nil {
				j.cancelRequested = true
				j.cancelRun()
			}
		}
		s.cond.Broadcast()
		s.mu.Unlock()
		<-idle
		return ctx.Err()
	}
}

// worker pops queued jobs until the server drains dry.
func (s *Server) worker() {
	defer s.wg.Done()
	for {
		s.mu.Lock()
		for len(s.queue) == 0 && !s.draining {
			s.cond.Wait()
		}
		if len(s.queue) == 0 {
			s.mu.Unlock()
			return // draining and drained
		}
		j := heap.Pop(&s.queue).(*job)
		if j.state != JobQueued { // canceled while queued
			s.mu.Unlock()
			continue
		}
		if j.cancelRequested {
			s.finishLocked(j, JobCanceled, "canceled while queued", nil)
			s.mu.Unlock()
			continue
		}
		ctx, cancel := context.WithCancel(context.Background())
		j.state = JobRunning
		j.started = time.Now()
		j.cancelRun = cancel
		s.running++
		s.mu.Unlock()

		s.execute(j, ctx, cancel)
	}
}

func (s *Server) execute(j *job, ctx context.Context, cancel context.CancelFunc) {
	defer cancel()
	tr := accmos.NewTracer()
	tr.SetCorr(j.id)
	// Stamp the correlation ID on every snapshot crossing the fanout:
	// the pipeline runner stamps heartbeats itself, but a Runner may
	// publish raw snapshots (the tests' stub runners do).
	progress := func(snap obs.Snapshot) {
		if snap.Corr == "" {
			snap.Corr = j.id
		}
		j.fanout.Publish(snap)
	}
	outcome, err := s.cfg.Runner(ctx, j.spec, tr, progress)

	s.mu.Lock()
	s.running--
	j.runErr = err
	switch {
	case err == nil:
		j.outcome = outcome
		if outcome != nil {
			j.cacheHit = outcome.CacheHit
		}
		s.finishLocked(j, JobDone, "", tr)
	case j.cancelRequested || errors.Is(err, context.Canceled) || ctx.Err() != nil:
		s.finishLocked(j, JobCanceled, err.Error(), tr)
	default:
		s.finishLocked(j, JobFailed, err.Error(), tr)
	}
	s.mu.Unlock()
}

// finishLocked moves a job to a terminal state: stamps times, folds the
// trace into the metrics histograms and the job's phase map, closes the
// events stream, and enforces finished-job retention. Caller holds s.mu.
func (s *Server) finishLocked(j *job, state JobState, errMsg string, tr *accmos.Tracer) {
	j.state = state
	j.errMsg = errMsg
	j.finished = time.Now()
	j.cancelRun = nil
	if tr != nil {
		s.metrics.recordTrace(tr)
		j.phases = tr.Trace().Totals()
	}
	if j.outcome != nil {
		s.metrics.recordOpt(j.outcome.Opt)
	}
	switch state {
	case JobDone:
		s.metrics.countJob("done")
	case JobFailed:
		s.metrics.countJob("failed")
	case JobCanceled:
		s.metrics.countJob("canceled")
	}
	if state == JobFailed || state == JobCanceled {
		s.captureDebugLocked(j, tr)
	}
	j.fanout.Close()
	close(j.done)
	attrs := []interface{}{
		"corr", j.id, "state", string(state), "model", j.spec.Model.Name,
	}
	if !j.started.IsZero() {
		attrs = append(attrs,
			"queueMs", j.started.Sub(j.submitted).Milliseconds(),
			"runMs", j.finished.Sub(j.started).Milliseconds())
	}
	if errMsg != "" {
		reason := "error"
		if d := j.debug; d != nil {
			reason = d.Reason
		}
		attrs = append(attrs, "reason", reason, "err", firstLine(errMsg))
		s.cfg.Logger.Error("job finished", attrs...)
	} else {
		s.cfg.Logger.Info("job finished", attrs...)
	}

	s.doneOrder = append(s.doneOrder, j.id)
	for len(s.doneOrder) > s.cfg.RetainJobs {
		if old := s.jobs[s.doneOrder[0]]; old != nil {
			s.evictedDrops += old.fanout.Stats().DroppedTotal
		}
		delete(s.jobs, s.doneOrder[0])
		s.doneOrder = s.doneOrder[1:]
	}
	s.cond.Broadcast()
}

// debugHeartbeats bounds the snapshots a debug bundle keeps when the
// failure carried no structured run error (stub runners, cancellations):
// the tail of the fanout's replay history.
const debugHeartbeats = 8

// captureDebugLocked records the failure forensics on the job: the
// structured run error's evidence when the harness produced one, the
// event stream's trailing heartbeats otherwise, plus the trace and the
// daemon state around the failure. Caller holds s.mu; everything stored
// is bounded.
func (s *Server) captureDebugLocked(j *job, tr *accmos.Tracer) {
	ws := s.pool.Stats()
	b := &DebugBundle{
		ID:          j.id,
		Corr:        j.id,
		State:       j.state,
		Model:       j.spec.Model.Name,
		SubmittedAt: j.submitted,
		Error:       j.errMsg,
		ExitCode:    -1,
		Phases:      j.phases,
		QueueDepth:  len(s.queue),
		Running:     s.running,
		Cache:       s.cache.Stats(),
		WorkerPool:  &ws,
	}
	if !j.started.IsZero() {
		t := j.started
		b.StartedAt = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		b.FinishedAt = &t
	}
	var re *accmos.RunError
	if errors.As(j.runErr, &re) {
		b.Reason = re.Reason
		b.ExitCode = re.ExitCode
		b.TimeoutMS = re.Timeout.Milliseconds()
		b.Bin = re.Bin
		b.StderrTail = re.StderrTail
		b.Heartbeats = re.Heartbeats
	} else if j.state == JobCanceled {
		b.Reason = "canceled"
	} else {
		b.Reason = "error"
	}
	if len(b.Heartbeats) == 0 {
		hist := j.fanout.History()
		if len(hist) > debugHeartbeats {
			hist = hist[len(hist)-debugHeartbeats:]
		}
		b.Heartbeats = hist
	}
	if tr != nil {
		b.Trace = tr.Trace()
	}
	j.debug = b
}

// firstLine truncates a multi-line error message for a log attribute (the
// full text stays on the job record and its debug bundle).
func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}

// --- HTTP handlers ---

func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, format string, args ...interface{}) {
	writeJSON(w, status, ErrorResponse{Error: fmt.Sprintf(format, args...)})
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	if err != nil {
		writeError(w, http.StatusRequestEntityTooLarge, "reading body: %v", err)
		return
	}
	var req SubmitRequest
	if err := json.Unmarshal(body, &req); err != nil {
		writeError(w, http.StatusBadRequest, "decoding request: %v", err)
		return
	}
	// Shed load before admission, so a refused submission costs no
	// parse, elaboration or lint. The check repeats at enqueue, where it
	// holds the lock the queue does.
	s.mu.Lock()
	status := s.shedLocked()
	s.mu.Unlock()
	if status != 0 {
		s.refuse(w, status, "")
		return
	}
	spec, findings, err := SpecFromRequest(s.cache, req, s.cfg.DefaultOptLevel, s.cfg.JobTimeout)
	if err != nil {
		var adm *AdmissionError
		if errors.As(err, &adm) && len(adm.Lint) > 0 {
			writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: adm.Msg, Lint: adm.Lint})
			return
		}
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}

	s.mu.Lock()
	if status := s.shedLocked(); status != 0 {
		s.mu.Unlock()
		s.refuse(w, status, spec.Model.Name)
		return
	}
	s.seq++
	id := fmt.Sprintf("j-%06d", s.seq)
	spec.Options.RunID = id // the job ID doubles as the run's correlation ID
	j := &job{
		id:        id,
		seq:       s.seq,
		priority:  req.Priority,
		spec:      spec,
		lint:      lintLines(findings),
		state:     JobQueued,
		submitted: time.Now(),
		fanout:    obs.NewFanout(0),
		done:      make(chan struct{}),
	}
	s.jobs[j.id] = j
	heap.Push(&s.queue, j)
	depth := len(s.queue)
	s.cond.Signal()
	s.mu.Unlock()

	s.metrics.countJob("submitted")
	s.cfg.Logger.Info("job queued",
		"corr", j.id, "model", spec.Model.Name, "priority", req.Priority, "queueDepth", depth)
	writeJSON(w, http.StatusAccepted, SubmitResponse{ID: j.id, State: JobQueued, QueueDepth: depth})
}

// shedLocked is admission control: a draining daemon refuses outright
// (503); a full queue sheds load (429) instead of accepting unbounded
// work. It returns the refusal status, or 0 when a submission may be
// queued. Caller holds s.mu.
func (s *Server) shedLocked() int {
	switch {
	case s.draining:
		return http.StatusServiceUnavailable
	case len(s.queue) >= s.cfg.QueueDepth:
		return http.StatusTooManyRequests
	}
	return 0
}

// refuse answers a submission shedLocked refused; a 429 carries
// Retry-After. model names the submission in the log ("" before its
// document is parsed).
func (s *Server) refuse(w http.ResponseWriter, status int, model string) {
	if status == http.StatusServiceUnavailable {
		writeError(w, status, "daemon is draining")
		return
	}
	s.metrics.countJob("rejected")
	sec := int(s.cfg.RetryAfter.Round(time.Second) / time.Second)
	if sec < 1 {
		sec = 1
	}
	s.cfg.Logger.Warn("submission rejected", "model", model, "queueDepth", s.cfg.QueueDepth)
	w.Header().Set("Retry-After", strconv.Itoa(sec))
	writeJSON(w, http.StatusTooManyRequests, ErrorResponse{
		Error:         fmt.Sprintf("queue is full (%d jobs)", s.cfg.QueueDepth),
		RetryAfterSec: sec,
	})
}

func lintLines(fs []lint.Finding) []LintLine {
	out := make([]LintLine, len(fs))
	for i, f := range fs {
		out[i] = LintLine{Severity: string(f.Severity), Rule: f.Rule, Actor: f.Actor, Message: f.Message}
	}
	return out
}

func (s *Server) lookup(id string) *job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[id]
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(r.PathValue("id"))
	if j == nil {
		writeError(w, http.StatusNotFound, "no such job")
		return
	}
	s.mu.Lock()
	v := j.view()
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, v)
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(r.PathValue("id"))
	if j == nil {
		writeError(w, http.StatusNotFound, "no such job")
		return
	}
	s.mu.Lock()
	switch j.state {
	case JobQueued:
		s.finishLocked(j, JobCanceled, "canceled while queued", nil)
	case JobRunning:
		j.cancelRequested = true
		if j.cancelRun != nil {
			j.cancelRun()
		}
	}
	v := j.view()
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, v)
}

// handleEvents streams the job's live progress as NDJSON: one heartbeat
// line per snapshot (the same framing generated binaries emit on
// stderr), terminated by one {"accmosJob": ...} record carrying the
// job's final state. A client attaching mid-run first receives the
// replayed history; a client on a finished job receives the history and
// the final record immediately.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(r.PathValue("id"))
	if j == nil {
		writeError(w, http.StatusNotFound, "no such job")
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	flush := func() {
		if flusher != nil {
			flusher.Flush()
		}
	}
	flush() // commit headers before the first (possibly delayed) snapshot

	snaps, cancel := j.fanout.Subscribe()
	defer cancel()
	for {
		select {
		case snap, ok := <-snaps:
			if !ok { // job reached a terminal state
				s.mu.Lock()
				v := j.view()
				s.mu.Unlock()
				final, _ := json.Marshal(struct {
					Job JobView `json:"accmosJob"`
				}{v})
				w.Write(final)
				w.Write([]byte("\n"))
				flush()
				return
			}
			w.Write(obs.EncodeHeartbeat(snap))
			w.Write([]byte("\n"))
			flush()
		case <-r.Context().Done():
			return
		}
	}
}

// Health snapshots the daemon's readiness detail — the same view
// /healthz serves.
func (s *Server) Health() HealthView {
	s.mu.Lock()
	defer s.mu.Unlock()
	v := HealthView{
		Status:      "ok",
		QueueDepth:  len(s.queue),
		Running:     s.running,
		Draining:    s.draining,
		Workers:     s.cfg.Workers,
		QueueCap:    s.cfg.QueueDepth,
		UptimeNanos: time.Since(s.start).Nanoseconds(),
	}
	if s.draining {
		v.Status = "draining"
	}
	return v
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	v := s.Health()
	if v.Draining {
		writeJSON(w, http.StatusServiceUnavailable, v)
		return
	}
	writeJSON(w, http.StatusOK, v)
}

// handleMetrics serves the registry as Prometheus text exposition 0.0.4,
// whatever the query string or Accept header asks for.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	s.metrics.writePrometheus(w)
}

// handleDebug serves a failed or canceled job's forensic bundle. A job
// that finished cleanly (or is still pending) has none — that is a 404
// with a state-specific message, not an error in the daemon.
func (s *Server) handleDebug(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(r.PathValue("id"))
	if j == nil {
		writeError(w, http.StatusNotFound, "no such job")
		return
	}
	s.mu.Lock()
	bundle := j.debug
	state := j.state
	s.mu.Unlock()
	if bundle == nil {
		writeError(w, http.StatusNotFound, "job %s has no debug bundle (state %s; bundles are captured for failed and canceled jobs)", j.id, state)
		return
	}
	writeJSON(w, http.StatusOK, bundle)
}
