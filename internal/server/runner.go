package server

import (
	"context"
	"fmt"

	accmos "accmos"
	"accmos/internal/obs"
)

// Runner executes one admitted job. The default is the full AccMoS
// pipeline (PipelineRunner); tests substitute their own via
// Config.Runner. progress receives live snapshots to re-broadcast on the
// job's events stream; tr records the pipeline phase spans that feed the
// /metrics latency histograms.
type Runner func(ctx context.Context, spec JobSpec, tr *accmos.Tracer, progress func(obs.Snapshot)) (*Outcome, error)

// PipelineRunner builds the production runner: generate, compile through
// the shared bounded cache, execute on the shared worker pool under the
// job's context, and shape the outcome for the job record. One cache
// across all jobs is the whole point of the daemon — the second
// submission of an identical model pays no compile — and the pool
// extends the same amortization to process startup: jobs sharing an
// artifact run through its warm serve-mode workers.
func PipelineRunner(cache *accmos.BuildCache, pool *accmos.WorkerPool) Runner {
	return func(ctx context.Context, spec JobSpec, tr *accmos.Tracer, progress func(obs.Snapshot)) (*Outcome, error) {
		opts := spec.Options
		opts.Cache, opts.Pool, opts.Trace, opts.Progress = cache, pool, tr, progress

		if len(spec.SweepSeeds) > 0 {
			sw, err := accmos.SweepContext(ctx, spec.Model, opts, spec.SweepSeeds)
			if err != nil {
				return nil, fmt.Errorf("sweep: %w", err)
			}
			merged := sw.MergedCoverage()
			out := &Outcome{SweepRuns: len(sw.Runs), Merged: &merged}
			if len(sw.Runs) > 0 && sw.Runs[0] != nil {
				out.CacheHit = sw.Runs[0].CacheHit
				out.Opt = sw.Runs[0].Opt
				out.ArtifactHash = sw.Runs[0].ArtifactHash
			}
			return out, nil
		}

		res, err := accmos.SimulateContext(ctx, spec.Model, opts)
		if err != nil {
			return nil, err
		}
		out := &Outcome{
			Results: res.Results, CacheHit: res.CacheHit, WorkerReuse: res.WorkerReuse,
			Opt: res.Opt, ArtifactHash: res.ArtifactHash,
		}
		if opts.Coverage {
			rep := res.CoverageReport()
			out.Coverage = &rep
		}
		return out, nil
	}
}
