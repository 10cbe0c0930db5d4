// Package experiments reproduces the paper's evaluation (§4): Table 2
// (simulation time of AccMoS vs SSE, SSE Accelerator and SSE Rapid
// Accelerator on the ten benchmark models), Table 3 (coverage achieved by
// AccMoS vs SSE within equal wall-clock budgets), the error-injection case
// study on CSEV, and the Figure-1 motivating measurement. Step counts and
// budgets are scaled by configuration — the paper uses 50 M steps and
// 5/15/60 s budgets; defaults here are laptop-scale with the same shape.
//
// BenchOpt adds the optimizer benchmark (O0 vs O1 vs O2 on every engine).
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
	"accmos/internal/coverage"
	"accmos/internal/obs"
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

// Table2Row is one line of the simulation-time comparison.
type Table2Row struct {
	Model   string
	Steps   int64
	AccMoS  time.Duration // execution time of the generated binary
	Compile time.Duration // one-time code generation + compilation
	SSE     time.Duration
	SSEac   time.Duration
	SSErac  time.Duration

	SpeedupSSE float64 // SSE / AccMoS
	SpeedupAc  float64
	SpeedupRac float64

	HashOK bool // all four engines produced the same output stream

	// CacheHit reports that the generated binary came from the build
	// cache (Compile is then the original build's amortised cost).
	CacheHit bool

	// Coverage-over-time timelines, recorded when Config.Heartbeat > 0.
	AccMoSTimeline []obs.Snapshot
	SSETimeline    []obs.Snapshot
}

// Table2 measures simulation time on every configured model, one row
// after another so no two rows contend for cores.
func Table2(cfg Config) ([]Table2Row, error) {
	cfg.fillDefaults()
	rows := make([]Table2Row, 0, len(cfg.Models))
	for _, name := range cfg.Models {
		m, err := benchmodels.Build(name)
		if err != nil {
			return nil, err
		}
		row := Table2Row{Model: name, Steps: cfg.Steps}
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
		row.AccMoS = time.Duration(acc.ExecNanos)
		row.Compile = time.Duration(acc.CompileNanos)
		row.CacheHit = acc.CacheHit
		row.AccMoSTimeline = acc.Timeline
		cfg.logf("table2 %s: AccMoS %v (compile %v, cached %v)", name, row.AccMoS, row.Compile, row.CacheHit)

		// SSE: full-service interpreter.
		sse, err := accmos.Interpret(m, full)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		row.SSE = time.Duration(sse.ExecNanos)
		row.SSETimeline = sse.Timeline
		cfg.logf("table2 %s: SSE %v", name, row.SSE)

		// SSE Accelerator and Rapid Accelerator modes.
		ac, err := accmos.Accelerate(m, bare)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		row.SSEac = time.Duration(ac.ExecNanos)
		rac, err := accmos.RapidAccelerate(m, bare)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		row.SSErac = time.Duration(rac.ExecNanos)
		cfg.logf("table2 %s: ac %v rac %v", name, row.SSEac, row.SSErac)

		row.HashOK = simresult.SameOutputs(acc.Results, sse.Results) &&
			simresult.SameOutputs(acc.Results, ac.Results) &&
			simresult.SameOutputs(acc.Results, rac.Results)
		row.SpeedupSSE = ratio(row.SSE, row.AccMoS)
		row.SpeedupAc = ratio(row.SSEac, row.AccMoS)
		row.SpeedupRac = ratio(row.SSErac, row.AccMoS)
		rows = append(rows, row)
	}
	return rows, nil
}

func ratio(a, b time.Duration) float64 {
	if b <= 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// Table3Cell is the coverage achieved by one engine within one budget.
type Table3Cell struct {
	Steps  int64
	Report coverage.Report
}

// Table3Row compares coverage of AccMoS and SSE at one budget.
type Table3Row struct {
	Model  string
	Budget time.Duration
	AccMoS Table3Cell
	SSE    Table3Cell
}

// Table3 measures coverage within equal wall-clock budgets, using random
// test cases as the paper does. Budgets bound execution; AccMoS's one-time
// compilation is not charged against the budget (reported separately in
// Table 2).
func Table3(cfg Config) ([]Table3Row, error) {
	cfg.fillDefaults()
	rows := make([]Table3Row, 0, len(cfg.Models)*len(cfg.Budgets))
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
			rows = append(rows, Table3Row{
				Model: name, Budget: budget,
				AccMoS: Table3Cell{Steps: acc.Steps, Report: acc.CoverageReport()},
				SSE:    Table3Cell{Steps: sse.Steps, Report: sse.CoverageReport()},
			})
		}
	}
	return rows, nil
}

// Detection describes one engine's detection of an injected error.
type Detection struct {
	Step    int64         // first step the diagnosis fired (-1 = not found)
	Wall    time.Duration // wall-clock simulation time until detection
	Compile time.Duration // AccMoS only
}

// CaseStudyResult reproduces the §4 error-injection study.
type CaseStudyResult struct {
	ChargeRate     int64
	PredictedStep  int64 // analytic overflow step of the quantity store
	OverflowAccMoS Detection
	OverflowSSE    Detection
	DowncastAccMoS Detection
	DowncastSSE    Detection
}

// CaseStudy injects the two CSEV errors and measures detection latency.
func CaseStudy(cfg Config) (*CaseStudyResult, error) {
	cfg.fillDefaults()
	m := benchmodels.CSEVInjected(cfg.ChargeRate)
	res := &CaseStudyResult{
		ChargeRate:    cfg.ChargeRate,
		PredictedStep: benchmodels.OverflowStepOf(cfg.ChargeRate),
	}
	opts := cfg.options(m)
	opts.Steps, opts.Diagnose = res.PredictedStep*4, true

	measure := func(stop accmos.DiagKind, actor string) (acc, sse Detection, err error) {
		opts.StopOnDiag, opts.StopOnActor = stop, actor
		key := actor + "|" + string(stop)
		a, err := accmos.Simulate(m, opts)
		if err != nil {
			return acc, sse, err
		}
		s, err := accmos.Interpret(m, opts)
		if err != nil {
			return acc, sse, err
		}
		return detection(a, key), detection(s, key), nil
	}
	var err error
	res.OverflowAccMoS, res.OverflowSSE, err = measure(accmos.WrapOnOverflow, "CSEVINJ_QuantityAdd")
	if err != nil {
		return nil, err
	}
	res.DowncastAccMoS, res.DowncastSSE, err = measure(accmos.Downcast, "CSEVINJ_ChargePower")
	if err != nil {
		return nil, err
	}
	return res, nil
}

// detection reads one engine's detection of the (actor|kind) diagnosis
// key from its result: the first-detect step (-1 = not found), the
// simulation wall clock and, for AccMoS, the compile time.
func detection(r *accmos.Result, key string) Detection {
	step, ok := r.FirstDetect[key]
	if !ok {
		step = -1
	}
	return Detection{Step: step, Wall: time.Duration(r.ExecNanos), Compile: time.Duration(r.CompileNanos)}
}

// Figure1Result is the motivating measurement: time to detect the
// long-horizon overflow of the Figure 1 sample model.
type Figure1Result struct {
	Increment   int64 // per-step accumulation of each input
	DetectStep  int64
	SSE         Detection
	AccMoS      Detection
	SpeedupWall float64
}

// Figure1 runs the motivating experiment. increment tunes latency: the
// combining Sum overflows int32 near step 2^31 / (2*increment).
func Figure1(cfg Config, increment int64) (*Figure1Result, error) {
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
	out := &Figure1Result{
		Increment:  increment,
		DetectStep: acc.FirstDetectOf(accmos.WrapOnOverflow),
		AccMoS: Detection{
			Step: acc.FirstDetectOf(accmos.WrapOnOverflow),
			Wall: time.Duration(acc.ExecNanos), Compile: time.Duration(acc.CompileNanos),
		},
		SSE: Detection{
			Step: sse.FirstDetectOf(accmos.WrapOnOverflow),
			Wall: time.Duration(sse.ExecNanos),
		},
	}
	out.SpeedupWall = ratio(out.SSE.Wall, out.AccMoS.Wall)
	return out, nil
}
