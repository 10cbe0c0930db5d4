package server

import (
	"time"

	accmos "accmos"
	"accmos/internal/coverage"
	"accmos/internal/obs"
	"accmos/internal/simresult"
)

// JobSpec is the validated, parsed form of a submission — everything the
// runner needs, with the model already decoded and admission-checked.
type JobSpec struct {
	Model *accmos.Model
	// Options is the job's run configuration, defaults applied. The
	// runner adds only the cache, pool, trace and progress callback.
	// RunID is the job ID, the job's correlation ID: trace spans,
	// heartbeats and run errors all carry it.
	Options accmos.Options
	// SweepSeeds, when non-empty, makes the job a coverage sweep with
	// one suite per seed.
	SweepSeeds []uint64
}

// Outcome is what a runner returns for a completed job.
type Outcome struct {
	// Results is the single-run outcome (nil for sweep jobs).
	Results  *simresult.Results
	Coverage *coverage.Report
	// CacheHit reports the binary came from the build cache.
	CacheHit bool
	// WorkerReuse reports the run was served by an already-warm
	// serve-mode worker (single-run jobs through a pool).
	WorkerReuse bool
	// SweepRuns and Merged describe a sweep job's outcome.
	SweepRuns int
	Merged    *coverage.Report
	// Opt reports what the optimizing middle-end did.
	Opt *accmos.OptStats
	// ArtifactHash is the content-hash build-cache key of the compiled
	// program.
	ArtifactHash string
}

// job is the server-side record of one submission. All fields except
// fanout and done are guarded by the Server mutex; fanout has its own
// lock, and done is closed exactly once under the Server mutex.
type job struct {
	id       string
	seq      int64
	priority int
	spec     JobSpec
	lint     []LintLine

	state     JobState
	submitted time.Time
	started   time.Time
	finished  time.Time
	errMsg    string
	runErr    error // the raw runner error (errors.As target for forensics)
	outcome   *Outcome
	phases    map[string]int64
	cacheHit  bool
	debug     *DebugBundle // captured at finish for failed/canceled jobs

	cancelRequested bool
	cancelRun       func() // non-nil while running

	fanout *obs.Fanout
	done   chan struct{} // closed on terminal state
	index  int           // heap position; -1 once popped
}

// view renders the job for the wire. Caller holds the Server mutex.
func (j *job) view() JobView {
	v := JobView{
		ID:          j.id,
		State:       j.state,
		Model:       j.spec.Model.Name,
		Priority:    j.priority,
		SubmittedAt: j.submitted,
		CacheHit:    j.cacheHit,
		Phases:      j.phases,
		Lint:        j.lint,
		Error:       j.errMsg,
	}
	if !j.started.IsZero() {
		t := j.started
		v.StartedAt = &t
		v.QueueNanos = j.started.Sub(j.submitted).Nanoseconds()
	}
	if !j.finished.IsZero() {
		t := j.finished
		v.FinishedAt = &t
		if !j.started.IsZero() {
			v.RunNanos = j.finished.Sub(j.started).Nanoseconds()
		}
	}
	if o := j.outcome; o != nil {
		v.Result = o.Results
		v.Coverage = o.Coverage
		v.SweepRuns = o.SweepRuns
		v.MergedCoverage = o.Merged
		v.Opt = o.Opt
		v.WorkerReuse = o.WorkerReuse
		v.ArtifactHash = o.ArtifactHash
	}
	return v
}

// jobHeap orders queued jobs by priority (higher first), then submission
// order (FIFO within a priority level). Implements container/heap.
type jobHeap []*job

func (h jobHeap) Len() int { return len(h) }

func (h jobHeap) Less(a, b int) bool {
	if h[a].priority != h[b].priority {
		return h[a].priority > h[b].priority
	}
	return h[a].seq < h[b].seq
}

func (h jobHeap) Swap(a, b int) {
	h[a], h[b] = h[b], h[a]
	h[a].index = a
	h[b].index = b
}

func (h *jobHeap) Push(x interface{}) {
	j := x.(*job)
	j.index = len(*h)
	*h = append(*h, j)
}

func (h *jobHeap) Pop() interface{} {
	old := *h
	n := len(old)
	j := old[n-1]
	old[n-1] = nil
	j.index = -1
	*h = old[:n-1]
	return j
}
