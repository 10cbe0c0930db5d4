package experiments

import (
	"fmt"
	"time"

	accmos "accmos"
	"accmos/internal/benchmodels"
	"accmos/internal/obs"
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
//     stimulus.
//   - A4, the one-time front end: a "generate" row that generates the
//     instrumented RAC program without compiling it, and a "cold-build"
//     row that generates, compiles and links the instrumented CSEV
//     program through a fresh build cache and runs it. Their Phases hold
//     the trace's span durations by name.
func Ablation(cfg Config) ([]MetricRow, error) {
	cfg.fillDefaults()
	lans := benchmodels.MustBuild("LANS")
	ref := cfg.options(lans)
	ref.Steps = cfg.Steps
	sse, err := accmos.Interpret(lans, ref)
	if err != nil {
		return nil, fmt.Errorf("ablation LANS SSE: %w", err)
	}
	var rows []MetricRow
	for _, v := range instrumentations {
		opts := ref
		opts.Coverage, opts.Diagnose = v.cov, v.dia
		res, err := accmos.Simulate(lans, opts)
		if err != nil {
			return nil, fmt.Errorf("ablation LANS %s: %w", v.variant, err)
		}
		ok := simresult.SameOutputs(res.Results, sse.Results)
		row := resultRow("ablation", "LANS", "AccMoS", res)
		row.Variant, row.HashOK = v.variant, &ok
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
		WallNanos: time.Since(start).Nanoseconds(), Phases: phases(opts.Trace),
	})

	csev := benchmodels.MustBuild("CSEV")
	cache := accmos.NewBuildCache("")
	defer cache.Remove()
	opts = cfg.options(csev)
	opts.Coverage, opts.Diagnose, opts.Cache, opts.Trace = true, true, cache, accmos.NewTracer()
	res, err := accmos.Simulate(csev, opts)
	if err != nil {
		return nil, fmt.Errorf("ablation CSEV cold build: %w", err)
	}
	row := resultRow("ablation", "CSEV", "AccMoS", res)
	row.Variant, row.Phases = "cold-build", phases(opts.Trace)
	cfg.logf("ablation CSEV cold build: compile %v", time.Duration(res.CompileNanos))
	return append(rows, row), nil
}

// phases sums the durations of tr's spans by name, at every depth.
func phases(tr *accmos.Tracer) map[string]int64 {
	out := make(map[string]int64)
	var walk func([]*obs.Span)
	walk = func(spans []*obs.Span) {
		for _, s := range spans {
			out[s.Name] += s.Duration().Nanoseconds()
			walk(s.Children)
		}
	}
	walk(tr.Trace().Spans)
	return out
}
