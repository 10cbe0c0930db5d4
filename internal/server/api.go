// Package server implements accmosd, the simulation-as-a-service layer:
// an HTTP/JSON daemon that accepts model submissions (SLX XML or JSON
// IR), validates them with internal/lint, compiles them through a shared
// bounded build cache, and executes them on a bounded in-process job
// queue with per-job priorities, admission control, cancellation and
// graceful drain. It turns the one-shot CLI pipeline into the long-lived
// service the paper's drop-in-replacement pitch implies — where the
// content-hash build cache finally amortizes compiles ACROSS requests,
// not just within one process invocation.
//
// Endpoints:
//
//	POST   /v1/jobs             submit a model           -> 202 SubmitResponse
//	GET    /v1/jobs/{id}        job status + results     -> 200 JobView
//	GET    /v1/jobs/{id}/events live NDJSON heartbeats   -> 200 stream
//	GET    /v1/jobs/{id}/debug  failure forensics        -> 200 DebugBundle
//	DELETE /v1/jobs/{id}        cancel                   -> 200 JobView
//	GET    /healthz             liveness / drain state
//	GET    /metrics             queue, cache, pool and phase-latency
//	                            metrics (Prometheus text 0.0.4)
//
// Every job's ID doubles as its correlation ID: log lines, trace spans,
// heartbeats on the events stream and debug bundles all carry it, so one
// job's telemetry is joinable across the daemon and its child processes.
package server

import (
	"time"

	accmos "accmos"
	"accmos/internal/coverage"
	"accmos/internal/obs"
	"accmos/internal/simresult"
)

// SubmitRequest is the POST /v1/jobs body. The model document format is
// auto-detected: a document starting with '{' is the JSON IR, anything
// else the two-part SLX XML.
type SubmitRequest struct {
	// Model is the model document itself (not a path — the daemon never
	// reads the client's filesystem).
	Model string `json:"model"`

	// Priority orders queued jobs: higher runs first, FIFO within a
	// priority level.
	Priority int `json:"priority,omitempty"`

	// Steps bounds the simulation length (default 1000); BudgetMS bounds
	// wall clock instead when positive.
	Steps    int64 `json:"steps,omitempty"`
	BudgetMS int64 `json:"budgetMs,omitempty"`
	// TimeoutMS kills the job's generated binary past this deadline;
	// capped by (and defaulting to) the daemon's -job-timeout.
	TimeoutMS int64 `json:"timeoutMs,omitempty"`

	Coverage bool `json:"coverage,omitempty"`
	Diagnose bool `json:"diagnose,omitempty"`

	// OptLevel selects the optimizing middle-end level for this job
	// (0, 1 or 2). Absent = the daemon's -opt default. Distinct levels
	// never share build-cache entries.
	OptLevel *int `json:"optLevel,omitempty"`

	// Seed, Lo and Hi select deterministic uniform random stimuli on
	// [Lo, Hi]. A zero Seed means the facade's default seed 1, and Lo and
	// Hi both zero mean [-1, 1]; a submission that sets none of the three
	// runs the facade's default stimulus.
	Seed uint64  `json:"seed,omitempty"`
	Lo   float64 `json:"lo,omitempty"`
	Hi   float64 `json:"hi,omitempty"`

	// SweepSeeds, when non-empty, runs one coverage sweep suite per seed
	// against a single compiled binary instead of a single simulation.
	SweepSeeds []uint64 `json:"sweepSeeds,omitempty"`

	// HeartbeatMS is the progress-snapshot interval for the job's events
	// stream (default 250 ms).
	HeartbeatMS int64 `json:"heartbeatMs,omitempty"`
}

// SubmitResponse acknowledges an accepted job.
type SubmitResponse struct {
	ID         string   `json:"id"`
	State      JobState `json:"state"`
	QueueDepth int      `json:"queueDepth"`
}

// JobState is a job's lifecycle position.
type JobState string

// Job lifecycle: queued -> running -> done | failed | canceled.
const (
	JobQueued   JobState = "queued"
	JobRunning  JobState = "running"
	JobDone     JobState = "done"
	JobFailed   JobState = "failed"
	JobCanceled JobState = "canceled"
)

// Terminal reports whether the state is final.
func (s JobState) Terminal() bool {
	return s == JobDone || s == JobFailed || s == JobCanceled
}

// LintLine is one lint finding in wire form.
type LintLine struct {
	Severity string `json:"severity"`
	// Rule is the stable machine-readable rule slug (e.g. "DeadActors");
	// clients filter on it rather than parsing Message.
	Rule    string `json:"rule,omitempty"`
	Actor   string `json:"actor"`
	Message string `json:"message"`
}

// JobView is the GET /v1/jobs/{id} payload (and the final record of an
// events stream).
type JobView struct {
	ID          string     `json:"id"`
	State       JobState   `json:"state"`
	Model       string     `json:"model,omitempty"`
	Priority    int        `json:"priority,omitempty"`
	SubmittedAt time.Time  `json:"submittedAt"`
	StartedAt   *time.Time `json:"startedAt,omitempty"`
	FinishedAt  *time.Time `json:"finishedAt,omitempty"`

	// QueueNanos is time spent waiting for a worker; RunNanos the
	// execution span (admission to completion excludes neither compile
	// nor cache effects — see Phases and CacheHit for the split).
	QueueNanos int64 `json:"queueNanos,omitempty"`
	RunNanos   int64 `json:"runNanos,omitempty"`

	// CacheHit reports the generated binary came from the build cache,
	// so this job paid no compile; WorkerReuse that an already-warm
	// serve-mode worker executed it, so it paid no process startup;
	// Phases holds the traced per-phase nanoseconds
	// (schedule/instrument/generate/compile/run).
	CacheHit    bool             `json:"cacheHit,omitempty"`
	WorkerReuse bool             `json:"workerReuse,omitempty"`
	Phases      map[string]int64 `json:"phases,omitempty"`

	// Lint carries the advisory findings recorded at admission (a model
	// with error-severity findings is rejected and never becomes a job).
	Lint []LintLine `json:"lint,omitempty"`

	Error string `json:"error,omitempty"`

	// Result holds the simulation outcome of a done single-run job;
	// Coverage its computed report. Sweep jobs report the suite count
	// and merged coverage instead.
	Result         *simresult.Results `json:"result,omitempty"`
	Coverage       *coverage.Report   `json:"coverage,omitempty"`
	SweepRuns      int                `json:"sweepRuns,omitempty"`
	MergedCoverage *coverage.Report   `json:"mergedCoverage,omitempty"`

	// Opt reports what the optimizing middle-end did for this job
	// (level, actors before/after, per-pass rewrite counts).
	Opt *accmos.OptStats `json:"opt,omitempty"`

	// ArtifactHash is the content-hash build-cache key of the binary this
	// job executed: jobs that report the same hash shared one compile.
	ArtifactHash string `json:"artifactHash,omitempty"`
}

// ErrorResponse is the structured error body every non-2xx endpoint
// returns. Lint carries the blocking findings of a rejected submission.
type ErrorResponse struct {
	Error string `json:"error"`
	// RetryAfterSec mirrors the Retry-After header on 429s.
	RetryAfterSec int        `json:"retryAfterSec,omitempty"`
	Lint          []LintLine `json:"lint,omitempty"`
}

// CacheView is the build-cache section of a debug bundle. Relinks counts
// the misses whose compiled object was resident, so the job only linked
// (a job that differs from a built one only in its run parameters).
// FrontHits and FrontMisses count jobs that did and did not skip the
// front end (schedule/optimize/instrument/generate) through the front-end
// memo; AdmitHits and AdmitMisses count submissions that did and did not
// skip parse, elaboration and lint through the admission memo.
type CacheView struct {
	Entries     int     `json:"entries"`
	Limit       int     `json:"limit"`
	Hits        int64   `json:"hits"`
	Misses      int64   `json:"misses"`
	Relinks     int64   `json:"relinks"`
	Evictions   int64   `json:"evictions"`
	HitRate     float64 `json:"hitRate"`
	FrontHits   int64   `json:"frontHits"`
	FrontMisses int64   `json:"frontMisses"`
	AdmitHits   int64   `json:"admitHits"`
	AdmitMisses int64   `json:"admitMisses"`
}

// WorkerPoolView is the warm-worker-pool section of a debug bundle: how
// many serve-mode processes were spawned, how many runs an already-warm
// worker served (the amortized process startups), how many workers were
// killed and left to respawn after a deadline or protocol error, and how
// many are parked idle right now (Warm, a live gauge).
type WorkerPoolView struct {
	PerArtifact int   `json:"perArtifact"`
	Spawns      int64 `json:"spawns"`
	Reuses      int64 `json:"reuses"`
	Respawns    int64 `json:"respawns"`
	Artifacts   int   `json:"artifacts"`
	Warm        int   `json:"warm"`
}

// DebugBundle is the GET /v1/jobs/{id}/debug payload: the bounded
// forensic record the daemon captures the moment a job reaches failed or
// canceled — what died (correlated by the job ID), why (reason, exit
// code, deadline), the evidence (stderr tail, last heartbeats, phase
// trace) and the daemon state around it (queue, cache, pool). It is
// retained with the job record, so the post-mortem survives until
// retention evicts the job.
type DebugBundle struct {
	ID   string `json:"id"`
	Corr string `json:"corr"`

	State       JobState   `json:"state"`
	Model       string     `json:"model,omitempty"`
	SubmittedAt time.Time  `json:"submittedAt"`
	StartedAt   *time.Time `json:"startedAt,omitempty"`
	FinishedAt  *time.Time `json:"finishedAt,omitempty"`

	// Error is the full error text; Reason its machine-readable class
	// (a harness Reason* constant, "canceled", or "error" for
	// non-execution failures). ExitCode is the generated binary's exit
	// status (-1 when unknown); TimeoutMS the deadline that fired on a
	// timeout; Bin the binary that was executing.
	Error     string `json:"error,omitempty"`
	Reason    string `json:"reason,omitempty"`
	ExitCode  int    `json:"exitCode"`
	TimeoutMS int64  `json:"timeoutMs,omitempty"`
	Bin       string `json:"bin,omitempty"`

	// StderrTail holds the last stderr (diagnostic) lines of the
	// generated binary; Heartbeats the last progress snapshots before
	// death (each stamped with Corr); Trace the pipeline phase spans;
	// Phases the flattened per-phase nanoseconds.
	StderrTail []string         `json:"stderrTail,omitempty"`
	Heartbeats []obs.Snapshot   `json:"heartbeats,omitempty"`
	Trace      *obs.Trace       `json:"trace,omitempty"`
	Phases     map[string]int64 `json:"phases,omitempty"`

	// Daemon state at capture time, for correlating the failure with
	// load (was the queue saturated? the cache thrashing?).
	QueueDepth int             `json:"queueDepth"`
	Running    int             `json:"running"`
	Cache      CacheView       `json:"cache"`
	WorkerPool *WorkerPoolView `json:"workerPool,omitempty"`
}

// HealthView is the GET /healthz payload: enough readiness detail for a
// load balancer to make routing decisions from one probe — how much work is queued and running against
// what capacity, and whether the daemon is refusing new work.
type HealthView struct {
	Status     string `json:"status"` // "ok" | "draining"
	QueueDepth int    `json:"queueDepth"`
	Running    int    `json:"running"`
	// Draining reports the daemon refuses new submissions (503). The
	// Status string says so too; the flag is the machine-readable form.
	Draining bool `json:"draining"`
	// Workers is the configured simulation concurrency; QueueCap the
	// admission bound beyond which submissions get 429.
	Workers  int `json:"workers"`
	QueueCap int `json:"queueCap"`
	// UptimeNanos is time since the daemon started.
	UptimeNanos int64 `json:"uptimeNanos"`
}
