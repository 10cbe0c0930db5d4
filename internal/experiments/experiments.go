// Package experiments reproduces the paper's evaluation (§4): Table 2
// (simulation time of AccMoS vs SSE, SSE Accelerator and SSE Rapid
// Accelerator on the ten benchmark models), Table 3 (coverage achieved by
// AccMoS vs SSE within equal wall-clock budgets), the error-injection case
// study on CSEV, and the Figure-1 motivating measurement. Step counts and
// budgets are scaled by configuration — the paper uses 50 M steps and
// 5/15/60 s budgets; defaults here are laptop-scale with the same shape.
//
// BenchOpt adds the optimizer benchmark (O0 vs O1 vs O2 on every engine),
// and Ablation the pipeline's own costs: the instrumentation overhead of
// generated code and the one-time front-end and build cost.
//
// Every experiment returns its measurements as MetricRows, the rows of
// the -metrics-json document; the Format functions print the text tables
// from the same rows.
//
// Every engine run goes through the accmos facade (Simulate, Interpret,
// Accelerate, RapidAccelerate), the same path the CLI and the daemon
// use; compile time, cache hits, timelines and optimizer counters come
// from its Result. The package builds and runs nothing below the facade.
package experiments

import (
	"fmt"
	"os"
	"time"

	accmos "accmos"
	"accmos/internal/benchmodels"
	"accmos/internal/simresult"
	"accmos/internal/testcase"
)

// Config controls experiment scale.
type Config struct {
	// Steps is the Table 2 simulation length (paper: 50_000_000).
	Steps int64
	// Budgets are the Table 3 wall-clock budgets (paper: 5s, 15s, 60s).
	Budgets []time.Duration
	// Models restricts the benchmark set (default: all ten).
	Models []string
	// Seed drives test-case generation.
	Seed uint64
	// ChargeRate tunes how long the case-study overflow stays latent.
	ChargeRate int64
	// Verbose prints progress to stderr.
	Verbose bool
	// Heartbeat, when positive, records coverage-over-time timelines for
	// the instrumented engines at this interval (generated-binary NDJSON
	// heartbeats for AccMoS, step-loop ticks for SSE) — the raw material
	// of the -metrics-json coverage timeline.
	Heartbeat time.Duration
	// Timeout kills any generated-binary execution exceeding this
	// wall-clock deadline (0 = none), so one wedged model cannot hang a
	// whole experiment batch.
	Timeout time.Duration
}

func (c *Config) fillDefaults() {
	if c.Steps == 0 {
		c.Steps = 20_000
	}
	if len(c.Budgets) == 0 {
		c.Budgets = []time.Duration{200 * time.Millisecond, 600 * time.Millisecond, 2400 * time.Millisecond}
	}
	if len(c.Models) == 0 {
		c.Models = benchmodels.Names()
	}
	if c.Seed == 0 {
		c.Seed = 2024
	}
	if c.ChargeRate == 0 {
		c.ChargeRate = 10_000
	}
}

func (c *Config) logf(format string, args ...interface{}) {
	if c.Verbose {
		fmt.Fprintf(os.Stderr, format+"\n", args...)
	}
}

// options returns the facade options every experiment run on m starts
// from: the unoptimized model (the paper simulates the model as written),
// uniform random stimulus in [-100, 100] seeded by Config.Seed, and the
// generated-binary deadline.
func (c *Config) options(m *accmos.Model) accmos.Options {
	return accmos.Options{
		OptLevel:  accmos.OptO0,
		TestCases: accmos.RandomTestCases(m, c.Seed, -100, 100),
		Timeout:   c.Timeout,
	}
}

// resultRow is the row one facade run records: its steps, wall clock and
// throughput, and for AccMoS its compile cost and build-cache hit.
func resultRow(experiment, model, engine string, r *accmos.Result) MetricRow {
	return MetricRow{
		Experiment: experiment, Model: model, Engine: engine,
		Steps: r.Steps, WallNanos: r.ExecNanos,
		StepsPerSec:  stepsPerSec(r.Steps, r.ExecNanos),
		CompileNanos: r.CompileNanos,
		CacheHit:     r.CacheHit,
	}
}

// Table2 measures simulation time on every configured model, one model
// after another so no two runs contend for cores. Each model gets one
// row per engine (AccMoS, SSE, SSEac, SSErac); the AccMoS row carries
// the verdict that all four engines produced the same output stream and,
// when Config.Heartbeat > 0, AccMoS and SSE carry coverage-over-time
// timelines.
func Table2(cfg Config) ([]MetricRow, error) {
	cfg.fillDefaults()
	rows := make([]MetricRow, 0, 4*len(cfg.Models))
	for _, name := range cfg.Models {
		m, err := benchmodels.Build(name)
		if err != nil {
			return nil, err
		}
		bare := cfg.options(m)
		bare.Steps = cfg.Steps
		// AccMoS and SSE run fully instrumented; the accelerator modes
		// support neither coverage nor diagnosis.
		full := bare
		full.Coverage, full.Diagnose, full.ProgressEvery = true, true, cfg.Heartbeat

		// AccMoS: generate, compile (cached), execute.
		acc, err := accmos.Simulate(m, full)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		cfg.logf("table2 %s: AccMoS %v (compile %v, cached %v)", name,
			time.Duration(acc.ExecNanos), time.Duration(acc.CompileNanos), acc.CacheHit)

		// SSE: full-service interpreter.
		sse, err := accmos.Interpret(m, full)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		cfg.logf("table2 %s: SSE %v", name, time.Duration(sse.ExecNanos))

		// SSE Accelerator and Rapid Accelerator modes.
		ac, err := accmos.Accelerate(m, bare)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		rac, err := accmos.RapidAccelerate(m, bare)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		cfg.logf("table2 %s: ac %v rac %v", name, time.Duration(ac.ExecNanos), time.Duration(rac.ExecNanos))

		ok := simresult.SameOutputs(acc.Results, sse.Results) &&
			simresult.SameOutputs(acc.Results, ac.Results) &&
			simresult.SameOutputs(acc.Results, rac.Results)
		accRow := resultRow("table2", name, "AccMoS", acc)
		accRow.Timeline, accRow.HashOK = acc.Timeline, &ok
		sseRow := resultRow("table2", name, "SSE", sse)
		sseRow.Timeline = sse.Timeline
		rows = append(rows, accRow, sseRow,
			resultRow("table2", name, "SSEac", ac),
			resultRow("table2", name, "SSErac", rac))
	}
	return rows, nil
}

func ratio(a, b int64) float64 {
	if b <= 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// Table3 measures coverage within equal wall-clock budgets, using random
// test cases as the paper does: one AccMoS and one SSE row per (model,
// budget), each with the steps run and the coverage reached. Budgets
// bound execution; AccMoS's one-time compilation is not charged against
// the budget (reported separately in Table 2), and a row's wall time is
// its budget.
func Table3(cfg Config) ([]MetricRow, error) {
	cfg.fillDefaults()
	rows := make([]MetricRow, 0, 2*len(cfg.Models)*len(cfg.Budgets))
	for _, name := range cfg.Models {
		m, err := benchmodels.Build(name)
		if err != nil {
			return nil, err
		}
		opts := cfg.options(m)
		opts.Coverage, opts.Diagnose = true, true
		for _, budget := range cfg.Budgets {
			opts.Budget = budget
			acc, err := accmos.Simulate(m, opts)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", name, err)
			}
			sse, err := accmos.Interpret(m, opts)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", name, err)
			}
			cfg.logf("table3 %s @%v: AccMoS %d steps / SSE %d steps", name, budget, acc.Steps, sse.Steps)
			for _, r := range []struct {
				engine string
				res    *accmos.Result
			}{{"AccMoS", acc}, {"SSE", sse}} {
				rep := r.res.CoverageReport()
				rows = append(rows, MetricRow{
					Experiment: "table3", Model: name, Engine: r.engine,
					Steps: r.res.Steps, WallNanos: budget.Nanoseconds(),
					BudgetNanos: budget.Nanoseconds(),
					StepsPerSec: stepsPerSec(r.res.Steps, budget.Nanoseconds()),
					Coverage:    &rep,
				})
			}
		}
	}
	return rows, nil
}

// detectionRow is the row of one engine's detection run: the steps it
// ran, its wall clock (and for AccMoS its compile time) and the first
// step the diagnosis fired (-1 = not found).
func detectionRow(experiment, variant, engine string, r *accmos.Result, step int64) MetricRow {
	row := resultRow(experiment, r.Model, engine, r)
	row.Variant, row.FirstDetect = variant, &step
	return row
}

// CaseStudy injects the two CSEV errors and measures detection latency:
// one AccMoS and one SSE row for each error, the "overflow" variant
// (error 1, the long-latent quantity wrap) and the "downcast" variant
// (error 2, immediate).
func CaseStudy(cfg Config) ([]MetricRow, error) {
	cfg.fillDefaults()
	m := benchmodels.CSEVInjected(cfg.ChargeRate)
	opts := cfg.options(m)
	opts.Steps, opts.Diagnose = benchmodels.OverflowStepOf(cfg.ChargeRate)*4, true

	var rows []MetricRow
	for _, e := range []struct {
		variant string
		stop    accmos.DiagKind
		actor   string
	}{
		{"overflow", accmos.WrapOnOverflow, "CSEVINJ_QuantityAdd"},
		{"downcast", accmos.Downcast, "CSEVINJ_ChargePower"},
	} {
		opts.StopOnDiag, opts.StopOnActor = e.stop, e.actor
		key := e.actor + "|" + string(e.stop)
		acc, err := accmos.Simulate(m, opts)
		if err != nil {
			return nil, err
		}
		sse, err := accmos.Interpret(m, opts)
		if err != nil {
			return nil, err
		}
		rows = append(rows,
			detectionRow("casestudy", e.variant, "AccMoS", acc, firstDetect(acc, key)),
			detectionRow("casestudy", e.variant, "SSE", sse, firstDetect(sse, key)))
	}
	return rows, nil
}

// firstDetect is the first step the (actor|kind) diagnosis key fired in
// r, or -1.
func firstDetect(r *accmos.Result, key string) int64 {
	if step, ok := r.FirstDetect[key]; ok {
		return step
	}
	return -1
}

// Figure1 runs the motivating experiment, time to detect the
// long-horizon overflow of the Figure 1 sample model: one SSE and one
// AccMoS row. increment tunes latency: the combining Sum overflows int32
// near step 2^31 / (2*increment).
func Figure1(cfg Config, increment int64) ([]MetricRow, error) {
	cfg.fillDefaults()
	m := benchmodels.Figure1Model()
	opts := cfg.options(m)
	opts.TestCases = &testcase.Set{Sources: []testcase.Source{
		{Kind: testcase.Const, Value: float64(increment)},
		{Kind: testcase.Const, Value: float64(increment)},
	}}
	opts.Steps = int64(1)<<31/(2*increment) + 1000
	opts.Diagnose, opts.StopOnDiag = true, accmos.WrapOnOverflow

	acc, err := accmos.Simulate(m, opts)
	if err != nil {
		return nil, err
	}
	sse, err := accmos.Interpret(m, opts)
	if err != nil {
		return nil, err
	}
	return []MetricRow{
		detectionRow("figure1", "", "SSE", sse, sse.FirstDetectOf(accmos.WrapOnOverflow)),
		detectionRow("figure1", "", "AccMoS", acc, acc.FirstDetectOf(accmos.WrapOnOverflow)),
	}, nil
}
