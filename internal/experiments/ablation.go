package experiments

import (
	"fmt"
	"time"

	accmos "accmos"
	"accmos/internal/benchmodels"
	"accmos/internal/simresult"
)

// instrumentations are the A1 variants: the generated LANS program with
// no instrumentation, coverage only, diagnosis only, and both.
var instrumentations = []struct {
	variant  string
	cov, dia bool
}{
	{"none", false, false},
	{"coverage", true, false},
	{"diagnosis", false, true},
	{"both", true, true},
}

// Ablation measures the pipeline's own costs (DESIGN.md A1 and A4):
//
//   - A1, the instrumentation overhead of generated code: one AccMoS row
//     per instrumentation variant of LANS at Config.Steps, each with a
//     HashOK verdict against an uninstrumented SSE run of the same
//     stimulus. Each variant is built through a build cache private to
//     the run, so each compiles and links, and its Phases hold its
//     trace's span durations by name: the first build in a process also
//     pays the per-process toolchain listing and runtime archive, so
//     compile.gc + compile.link is the cost that compares across
//     variants.
//   - A4, the one-time front end: a "generate" row that generates the
//     instrumented RAC program without compiling it, and a "cold-build"
//     row that generates, compiles and links the instrumented CSEV
//     program through the same private cache, which holds no CSEV
//     build, and runs it. Their Phases hold the trace's span durations
//     by name.
func Ablation(cfg Config) ([]MetricRow, error) {
	cfg.fillDefaults()
	lans := benchmodels.MustBuild("LANS")
	ref := cfg.options(lans)
	ref.Steps = cfg.Steps
	sse, err := accmos.Interpret(lans, ref)
	if err != nil {
		return nil, fmt.Errorf("ablation LANS SSE: %w", err)
	}
	cache := accmos.NewBuildCache("")
	defer cache.Remove()
	var rows []MetricRow
	for _, v := range instrumentations {
		opts := ref
		opts.Coverage, opts.Diagnose, opts.Cache, opts.Trace = v.cov, v.dia, cache, accmos.NewTracer()
		res, err := accmos.Simulate(lans, opts)
		if err != nil {
			return nil, fmt.Errorf("ablation LANS %s: %w", v.variant, err)
		}
		ok := simresult.SameOutputs(res.Results, sse.Results)
		row := resultRow("ablation", "LANS", "AccMoS", res)
		row.Variant, row.HashOK, row.Phases = v.variant, &ok, opts.Trace.Trace().Totals()
		cfg.logf("ablation LANS %s: %v", v.variant, time.Duration(res.ExecNanos))
		rows = append(rows, row)
	}

	rac := benchmodels.MustBuild("RAC")
	opts := cfg.options(rac)
	opts.Coverage, opts.Diagnose, opts.Trace = true, true, accmos.NewTracer()
	start := time.Now()
	if _, err := accmos.GenerateSource(rac, opts); err != nil {
		return nil, fmt.Errorf("ablation RAC generate: %w", err)
	}
	rows = append(rows, MetricRow{
		Experiment: "ablation", Model: "RAC", Engine: "AccMoS", Variant: "generate",
		WallNanos: time.Since(start).Nanoseconds(), Phases: opts.Trace.Trace().Totals(),
	})

	csev := benchmodels.MustBuild("CSEV")
	opts = cfg.options(csev)
	opts.Coverage, opts.Diagnose, opts.Cache, opts.Trace = true, true, cache, accmos.NewTracer()
	res, err := accmos.Simulate(csev, opts)
	if err != nil {
		return nil, fmt.Errorf("ablation CSEV cold build: %w", err)
	}
	row := resultRow("ablation", "CSEV", "AccMoS", res)
	row.Variant, row.Phases = "cold-build", opts.Trace.Trace().Totals()
	cfg.logf("ablation CSEV cold build: compile %v", time.Duration(res.CompileNanos))
	return append(rows, row), nil
}
