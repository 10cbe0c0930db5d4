package server

import (
	"context"
	"fmt"

	accmos "accmos"
	"accmos/internal/obs"
)

// Runner executes one admitted job. The default is the full AccMoS
// pipeline (PipelineRunner); tests and alternative backends substitute
// their own via Config.Runner. progress receives live snapshots to
// re-broadcast on the job's events stream; tr records the pipeline phase
// spans that feed the /metrics latency histograms.
type Runner func(ctx context.Context, spec JobSpec, tr *accmos.Tracer, progress func(obs.Snapshot)) (*Outcome, error)

// specOptions maps a validated JobSpec to the facade options its run
// uses. PipelineRunner and ProgramKey share it: the coordinator's
// routing key is only useful if it is computed from EXACTLY the options
// the runner will execute with — any drift and repeat models stop
// landing on their warm node.
func specOptions(spec JobSpec, cache *accmos.BuildCache, pool *accmos.WorkerPool, tr *accmos.Tracer, progress func(obs.Snapshot)) accmos.Options {
	opts := accmos.Options{
		Steps:         spec.Steps,
		Budget:        spec.Budget,
		Coverage:      spec.Coverage,
		Diagnose:      spec.Diagnose,
		OptLevel:      spec.OptLevel,
		Partitions:    spec.Partitions,
		Timeout:       spec.Timeout,
		Cache:         cache,
		Pool:          pool,
		RunID:         spec.Corr,
		Trace:         tr,
		Progress:      progress,
		ProgressEvery: spec.Heartbeat,
	}
	if spec.Seed != 0 {
		lo, hi := spec.Lo, spec.Hi
		if lo == 0 && hi == 0 {
			lo, hi = -1, 1
		}
		opts.TestCases = accmos.RandomTestCases(spec.Model, spec.Seed, lo, hi)
	}
	return opts
}

// ProgramKey returns the build-cache content hash the spec's generated
// program will carry — without compiling anything. Sweep jobs force
// coverage on, exactly as accmos.Sweep does, so the key matches the
// artifact the runner really produces. The fleet coordinator hashes this
// key onto its node ring for affinity routing and artifact shipping.
func ProgramKey(spec JobSpec) (string, error) {
	opts := specOptions(spec, nil, nil, nil, nil)
	if len(spec.SweepSeeds) > 0 {
		opts.Coverage = true
	}
	return accmos.ProgramHash(spec.Model, opts)
}

// PipelineRunner builds the production runner: generate, compile through
// the shared bounded cache, execute under the job's context, and shape
// the outcome for the job record. One cache across all jobs is the whole
// point of the daemon — the second submission of an identical model pays
// no compile. The optional pool extends the same amortization to process
// startup: jobs sharing an artifact run through its warm serve-mode
// workers (nil = a fresh process per call).
func PipelineRunner(cache *accmos.BuildCache, pool *accmos.WorkerPool) Runner {
	return func(ctx context.Context, spec JobSpec, tr *accmos.Tracer, progress func(obs.Snapshot)) (*Outcome, error) {
		opts := specOptions(spec, cache, pool, tr, progress)

		if len(spec.SweepSeeds) > 0 {
			opts.DisableBatch = spec.DisableBatch
			sw, err := accmos.SweepContext(ctx, spec.Model, opts, spec.SweepSeeds)
			if err != nil {
				return nil, fmt.Errorf("sweep: %w", err)
			}
			merged := sw.MergedCoverage()
			out := &Outcome{SweepRuns: len(sw.Runs), Merged: &merged}
			if len(sw.Runs) > 0 && sw.Runs[0] != nil {
				out.CacheHit = sw.Runs[0].CacheHit
				out.Opt = sw.Runs[0].Opt
				out.Part = sw.Runs[0].Part
				out.Batched = sw.Runs[0].Batched
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
			Opt: res.Opt, Part: res.Part, ArtifactHash: res.ArtifactHash,
		}
		if spec.Coverage {
			rep := res.CoverageReport()
			out.Coverage = &rep
		}
		return out, nil
	}
}
