package server

import (
	"io"
	"time"

	accmos "accmos"
	"accmos/internal/obs"
)

// jobStates enumerates the accmosd_jobs_total label values. Every series
// is pre-created at startup so the exposed skeleton is complete and
// stable from the first scrape.
var jobStates = []string{"submitted", "done", "failed", "canceled", "rejected"}

// metrics is the daemon's telemetry: an obs.Registry exposed as
// Prometheus text exposition. Counter and histogram updates are
// lock-cheap and independent of the Server mutex; live state (queue
// depth, warm workers, cache population) is exported through scrape-time
// gauge funcs so it can never go stale.
type metrics struct {
	reg *obs.Registry

	jobs        *obs.CounterVec   // accmosd_jobs_total{state}
	phases      *obs.HistogramVec // accmosd_phase_seconds{phase}
	optJobs     *obs.CounterVec   // accmosd_opt_jobs_total{level}
	optActors   *obs.CounterVec   // accmosd_opt_actors_total{stage}
	optFused    *obs.Counter      // accmosd_opt_fused_exprs_total
	optHoisted  *obs.Counter      // accmosd_opt_hoisted_exprs_total
	optNarrowed *obs.Counter      // accmosd_opt_narrowed_signals_total
}

// newMetrics builds the registry. Registration order is the exposition
// order, and families with no samples yet still print their HELP/TYPE
// header, so the scrape skeleton is golden-testable. s provides the live
// state the gauge funcs read; its cache/pool/mutex must be initialised
// before the first scrape (they are — New registers routes afterwards).
func newMetrics(s *Server) *metrics {
	reg := obs.NewRegistry()
	m := &metrics{reg: reg}

	m.jobs = reg.Counter("accmosd_jobs_total",
		"Jobs by lifecycle event: submitted at admission, done/failed/canceled at completion, rejected at 429 admission refusals.",
		"state")
	for _, st := range jobStates {
		m.jobs.With(st)
	}
	reg.GaugeFunc("accmosd_queue_depth", "Jobs admitted but not yet running.", func() float64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		return float64(len(s.queue))
	})
	reg.GaugeFunc("accmosd_running_jobs", "Jobs currently executing.", func() float64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		return float64(s.running)
	})
	reg.GaugeFunc("accmosd_workers", "Configured concurrent job executors.", func() float64 {
		return float64(s.cfg.Workers)
	})
	reg.GaugeFunc("accmosd_draining", "1 while the daemon refuses new work and drains, 0 otherwise.", func() float64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		if s.draining {
			return 1
		}
		return 0
	})
	reg.GaugeFunc("accmosd_uptime_seconds", "Seconds since the daemon started.", func() float64 {
		return time.Since(s.start).Seconds()
	})

	m.phases = reg.Histogram("accmosd_phase_seconds",
		"Pipeline phase latency (schedule/optimize/instrument/generate/compile/run) over completed jobs.",
		nil, "phase")

	m.optJobs = reg.Counter("accmosd_opt_jobs_total",
		"Completed jobs by optimizing-middle-end level.", "level")
	m.optJobs.With("O0")
	m.optJobs.With("O1")
	m.optJobs.With("O2")
	m.optActors = reg.Counter("accmosd_opt_actors_total",
		"Scheduled actors the optimizer saw (stage=before), kept (stage=after) and emitted as step-loop statements after O2 fusion (stage=effective), summed over completed jobs.",
		"stage")
	m.optActors.With("before")
	m.optActors.With("after")
	m.optActors.With("effective")
	m.optFused = reg.Counter("accmosd_opt_fused_exprs_total",
		"Actors inlined into a consumer expression by O2 typed lowering, summed over completed jobs.").With()
	m.optHoisted = reg.Counter("accmosd_opt_hoisted_exprs_total",
		"Loop-invariant subexpressions hoisted to init-time globals by O2, summed over completed jobs.").With()
	m.optNarrowed = reg.Counter("accmosd_opt_narrowed_signals_total",
		"Signals stored at a narrower width than their semantic kind by O2, summed over completed jobs.").With()

	reg.GaugeFunc("accmosd_cache_entries", "Compiled binaries resident in the build cache.", func() float64 {
		return float64(s.cache.Stats().Entries)
	})
	reg.CounterFunc("accmosd_cache_hits_total", "Build-cache hits (jobs that paid no compile).", func() float64 {
		return float64(s.cache.Stats().Hits)
	})
	reg.CounterFunc("accmosd_cache_misses_total", "Build-cache misses (jobs that built a binary).", func() float64 {
		return float64(s.cache.Stats().Misses)
	})
	reg.CounterFunc("accmosd_cache_relinks_total",
		"Build-cache misses served from a resident model binary (jobs that differ from a built one only in run parameters, so neither compiled nor linked).", func() float64 {
			return float64(s.cache.Stats().Relinks)
		})
	reg.CounterFunc("accmosd_cache_evictions_total", "Build-cache evictions.", func() float64 {
		return float64(s.cache.Stats().Evictions)
	})
	reg.CounterFunc("accmosd_frontend_memo_hits_total",
		"Front-end memo hits (jobs that skipped schedule/optimize/instrument/generate).", func() float64 {
			return float64(s.cache.Stats().FrontHits)
		})
	reg.CounterFunc("accmosd_frontend_memo_misses_total", "Front-end memo misses (jobs that ran the front end).", func() float64 {
		return float64(s.cache.Stats().FrontMisses)
	})
	reg.CounterFunc("accmosd_admission_memo_hits_total",
		"Admission memo hits (submissions that skipped parse, elaboration and lint).", func() float64 {
			return float64(s.cache.Stats().AdmitHits)
		})
	reg.CounterFunc("accmosd_admission_memo_misses_total", "Admission memo misses (submissions that were parsed and linted).", func() float64 {
		return float64(s.cache.Stats().AdmitMisses)
	})

	reg.CounterFunc("accmosd_events_dropped_total",
		"Progress snapshots dropped across all job event streams because a subscriber fell behind.",
		func() float64 { return float64(s.eventsDropped()) })

	reg.CounterFunc("accmosd_pool_spawns_total", "Serve-mode worker processes started.", func() float64 {
		return float64(s.pool.Stats().Spawns)
	})
	reg.CounterFunc("accmosd_pool_reuses_total", "Runs served by an already-warm worker.", func() float64 {
		return float64(s.pool.Stats().Reuses)
	})
	reg.CounterFunc("accmosd_pool_respawns_total", "Workers killed after a deadline or protocol error.", func() float64 {
		return float64(s.pool.Stats().Respawns)
	})
	reg.GaugeFunc("accmosd_pool_warm_workers", "Worker processes currently parked idle.", func() float64 {
		return float64(s.pool.Stats().Warm)
	})
	reg.GaugeFunc("accmosd_pool_artifacts", "Distinct compiled artifacts with a worker set.", func() float64 {
		return float64(s.pool.Stats().Artifacts)
	})
	return m
}

// countJob bumps one accmosd_jobs_total series.
func (m *metrics) countJob(state string) { m.jobs.With(state).Inc() }

// writePrometheus renders the registry in the text exposition format.
func (m *metrics) writePrometheus(w io.Writer) error { return m.reg.WritePrometheus(w) }

// recordTrace folds every span of a completed job's phase trace into the
// per-phase histograms. Nested spans are walked depth-first, so e.g. the
// "compile" span inside a traced pipeline lands in the "compile" bucket
// whatever its parent.
func (m *metrics) recordTrace(tr *accmos.Tracer) {
	if tr == nil {
		return
	}
	var walk func(spans []*obs.Span)
	walk = func(spans []*obs.Span) {
		for _, s := range spans {
			if d := s.Duration(); d > 0 || s.EndNanos >= s.StartNanos {
				m.phases.With(s.Name).Observe(d.Seconds())
			}
			walk(s.Children)
		}
	}
	walk(tr.Trace().Spans)
}

// recordOpt folds one finished job's optimizer stats into the totals.
func (m *metrics) recordOpt(o *accmos.OptStats) {
	if o == nil {
		return
	}
	switch o.Level {
	case "O0":
		m.optJobs.With("O0").Inc()
	case "O2":
		m.optJobs.With("O2").Inc()
	default:
		m.optJobs.With("O1").Inc()
	}
	m.optActors.With("before").Add(int64(o.ActorsBefore))
	m.optActors.With("after").Add(int64(o.ActorsAfter))
	m.optActors.With("effective").Add(int64(o.EffectiveActors))
	m.optFused.Add(int64(o.FusedExprs))
	m.optHoisted.Add(int64(o.HoistedExprs))
	m.optNarrowed.Add(int64(o.NarrowedSignals))
}
