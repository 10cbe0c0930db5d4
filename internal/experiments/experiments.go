// Package experiments reproduces the paper's evaluation (§4): Table 2
// (simulation time of AccMoS vs SSE, SSE Accelerator and SSE Rapid
// Accelerator on the ten benchmark models), Table 3 (coverage achieved by
// AccMoS vs SSE within equal wall-clock budgets), the error-injection case
// study on CSEV, and the Figure-1 motivating measurement. Step counts and
// budgets are scaled by configuration — the paper uses 50 M steps and
// 5/15/60 s budgets; defaults here are laptop-scale with the same shape.
package experiments

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"accmos/internal/actors"
	"accmos/internal/benchmodels"
	"accmos/internal/codegen"
	"accmos/internal/coverage"
	"accmos/internal/diagnose"
	"accmos/internal/harness"
	"accmos/internal/interp"
	"accmos/internal/obs"
	"accmos/internal/rapid"
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
	// WorkDir holds generated programs and binaries (default: temp dir).
	WorkDir string
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
	// Parallel runs this many benchmark-model rows concurrently in
	// Table2/Table3 (default 1, sequential — concurrent rows contend for
	// cores and shift absolute timings, so parallelism is opt-in for
	// smoke runs and CI, not paper-grade measurement).
	Parallel int
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
	if c.Parallel <= 0 {
		c.Parallel = 1
	}
}

// build compiles prog through the process-wide binary cache — so e.g.
// Table 3 reuses Table 2's binaries within one invocation, and the hit is
// reported in the metrics — unless the caller pinned a WorkDir for
// inspectable artifacts, which always gets a fresh build under dir.
func (c *Config) build(prog *codegen.Program, dir string) (bin string, compileTime time.Duration, hit bool, err error) {
	if c.WorkDir != "" {
		bin, compileTime, err = harness.Build(context.Background(), prog, dir, nil)
		return bin, compileTime, false, err
	}
	return harness.DefaultCache.Build(prog, nil)
}

// runRows executes fn(0..n-1) with bounded parallelism, leaving callers'
// index-addressed row slices in deterministic order; the first error wins
// and the remaining rows are skipped. parallel <= 1 is a plain loop so
// sequential timing runs stay uncontended.
func runRows(n, parallel int, fn func(i int) error) error {
	if parallel <= 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	if parallel > n {
		parallel = n
	}
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
	)
	jobs := make(chan int)
	for w := 0; w < parallel; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				mu.Lock()
				failed := firstErr != nil
				mu.Unlock()
				if failed {
					continue
				}
				if err := fn(i); err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
				}
			}
		}()
	}
	for i := 0; i < n; i++ {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	return firstErr
}

func (c *Config) logf(format string, args ...interface{}) {
	if c.Verbose {
		fmt.Fprintf(os.Stderr, format+"\n", args...)
	}
}

func (c *Config) workDir() (string, func(), error) {
	if c.WorkDir != "" {
		return c.WorkDir, func() {}, nil
	}
	dir, err := os.MkdirTemp("", "accmos-exp-")
	if err != nil {
		return "", nil, err
	}
	return dir, func() { os.RemoveAll(dir) }, nil
}

// prepared bundles everything needed to run one benchmark model on all
// four engines.
type prepared struct {
	name string
	c    *actors.Compiled
	set  *testcase.Set
}

func (cfg *Config) prepare(name string) (*prepared, error) {
	m, err := benchmodels.Build(name)
	if err != nil {
		return nil, err
	}
	c, err := actors.Compile(m)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	set := testcase.NewRandomSet(len(c.Inports), cfg.Seed, -100, 100)
	return &prepared{name: name, c: c, set: set}, nil
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

// Table2 measures simulation time on every configured model. Rows are
// computed concurrently when Config.Parallel > 1; the row order (and each
// row's engine sequence) is identical to the sequential run.
func Table2(cfg Config) ([]Table2Row, error) {
	cfg.fillDefaults()
	dir, cleanup, err := cfg.workDir()
	if err != nil {
		return nil, err
	}
	defer cleanup()

	rows := make([]Table2Row, len(cfg.Models))
	err = runRows(len(cfg.Models), cfg.Parallel, func(i int) error {
		name := cfg.Models[i]
		p, err := cfg.prepare(name)
		if err != nil {
			return err
		}
		row := Table2Row{Model: name, Steps: cfg.Steps}

		// AccMoS: generate, compile (cached), execute with full
		// instrumentation.
		prog, err := codegen.Generate(p.c, codegen.Options{
			Coverage: true, Diagnose: true, TestCases: p.set,
		})
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		bin, compileTime, hit, err := cfg.build(prog, filepath.Join(dir, name))
		if err != nil {
			return err
		}
		row.Compile = compileTime
		row.CacheHit = hit
		accRes, err := harness.RunContext(context.Background(), bin, harness.RunOptions{
			Steps: cfg.Steps, Timeout: cfg.Timeout, Heartbeat: cfg.Heartbeat,
		})
		if err != nil {
			return err
		}
		row.AccMoS = time.Duration(accRes.ExecNanos)
		row.AccMoSTimeline = accRes.Timeline
		cfg.logf("table2 %s: AccMoS %v (compile %v, cached %v)", name, row.AccMoS, compileTime, hit)

		// SSE: full-service interpreter.
		sse, err := interp.New(p.c, interp.Options{
			Coverage: true, Diagnose: true, ProgressEvery: cfg.Heartbeat,
		})
		if err != nil {
			return err
		}
		sseRes, err := sse.Run(p.set, cfg.Steps)
		if err != nil {
			return err
		}
		row.SSE = time.Duration(sseRes.ExecNanos)
		row.SSETimeline = sseRes.Timeline
		cfg.logf("table2 %s: SSE %v", name, row.SSE)

		// SSE Accelerator mode.
		ac, err := interp.NewAccel(p.c)
		if err != nil {
			return err
		}
		acRes, err := ac.Run(p.set, cfg.Steps)
		if err != nil {
			return err
		}
		row.SSEac = time.Duration(acRes.ExecNanos)

		// SSE Rapid Accelerator mode.
		rc, err := rapid.New(p.c)
		if err != nil {
			return err
		}
		rcRes, err := rc.Run(p.set, cfg.Steps)
		if err != nil {
			return err
		}
		row.SSErac = time.Duration(rcRes.ExecNanos)
		cfg.logf("table2 %s: ac %v rac %v", name, row.SSEac, row.SSErac)

		row.HashOK = simresult.SameOutputs(accRes, sseRes) &&
			simresult.SameOutputs(accRes, acRes) &&
			simresult.SameOutputs(accRes, rcRes)
		row.SpeedupSSE = ratio(row.SSE, row.AccMoS)
		row.SpeedupAc = ratio(row.SSEac, row.AccMoS)
		row.SpeedupRac = ratio(row.SSErac, row.AccMoS)
		rows[i] = row
		return nil
	})
	if err != nil {
		return nil, err
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
	dir, cleanup, err := cfg.workDir()
	if err != nil {
		return nil, err
	}
	defer cleanup()

	rows := make([]Table3Row, len(cfg.Models)*len(cfg.Budgets))
	err = runRows(len(cfg.Models), cfg.Parallel, func(i int) error {
		name := cfg.Models[i]
		p, err := cfg.prepare(name)
		if err != nil {
			return err
		}
		layout := coverage.NewLayout(p.c)
		prog, err := codegen.Generate(p.c, codegen.Options{
			Coverage: true, Diagnose: true, TestCases: p.set,
		})
		if err != nil {
			return err
		}
		bin, _, _, err := cfg.build(prog, filepath.Join(dir, name))
		if err != nil {
			return err
		}
		sse, err := interp.New(p.c, interp.Options{Coverage: true, Diagnose: true})
		if err != nil {
			return err
		}
		for j, budget := range cfg.Budgets {
			row := Table3Row{Model: name, Budget: budget}
			accRes, err := harness.RunContext(context.Background(), bin, harness.RunOptions{Budget: budget, Timeout: cfg.Timeout})
			if err != nil {
				return err
			}
			row.AccMoS = Table3Cell{Steps: accRes.Steps, Report: layout.Report(accRes.Coverage)}
			sseRes, err := sse.RunFor(p.set, budget)
			if err != nil {
				return err
			}
			row.SSE = Table3Cell{Steps: sseRes.Steps, Report: layout.Report(sseRes.Coverage)}
			cfg.logf("table3 %s @%v: AccMoS %d steps / SSE %d steps", name, budget, accRes.Steps, sseRes.Steps)
			rows[i*len(cfg.Budgets)+j] = row
		}
		return nil
	})
	if err != nil {
		return nil, err
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
	dir, cleanup, err := cfg.workDir()
	if err != nil {
		return nil, err
	}
	defer cleanup()

	m := benchmodels.CSEVInjected(cfg.ChargeRate)
	c, err := actors.Compile(m)
	if err != nil {
		return nil, err
	}
	set := testcase.NewRandomSet(len(c.Inports), cfg.Seed, -100, 100)
	res := &CaseStudyResult{
		ChargeRate:    cfg.ChargeRate,
		PredictedStep: benchmodels.OverflowStepOf(cfg.ChargeRate),
	}
	maxSteps := res.PredictedStep * 4

	measure := func(stop diagnose.Kind, actor, key string) (Detection, Detection, error) {
		// AccMoS.
		prog, err := codegen.Generate(c, codegen.Options{
			Diagnose: true, StopOnDiag: stop, StopOnActor: actor, TestCases: set,
		})
		if err != nil {
			return Detection{}, Detection{}, err
		}
		bin, compileTime, _, err := cfg.build(prog, filepath.Join(dir, "csev_"+string(stop)))
		if err != nil {
			return Detection{}, Detection{}, err
		}
		accRes, err := harness.RunContext(context.Background(), bin, harness.RunOptions{Steps: maxSteps, Timeout: cfg.Timeout})
		if err != nil {
			return Detection{}, Detection{}, err
		}
		acc := Detection{Step: firstDetect(accRes, key), Wall: time.Duration(accRes.ExecNanos), Compile: compileTime}
		// SSE.
		sse, err := interp.New(c, interp.Options{Diagnose: true, StopOnDiag: stop, StopOnActor: actor})
		if err != nil {
			return Detection{}, Detection{}, err
		}
		sseRes, err := sse.Run(set, maxSteps)
		if err != nil {
			return Detection{}, Detection{}, err
		}
		return acc, Detection{Step: firstDetect(sseRes, key), Wall: time.Duration(sseRes.ExecNanos)}, nil
	}

	res.OverflowAccMoS, res.OverflowSSE, err = measure(diagnose.WrapOnOverflow,
		"CSEVINJ_QuantityAdd", "CSEVINJ_QuantityAdd|WrapOnOverflow")
	if err != nil {
		return nil, err
	}
	res.DowncastAccMoS, res.DowncastSSE, err = measure(diagnose.Downcast,
		"CSEVINJ_ChargePower", "CSEVINJ_ChargePower|Downcast")
	if err != nil {
		return nil, err
	}
	return res, nil
}

func firstDetect(r *simresult.Results, key string) int64 {
	if step, ok := r.FirstDetect[key]; ok {
		return step
	}
	return -1
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
	dir, cleanup, err := cfg.workDir()
	if err != nil {
		return nil, err
	}
	defer cleanup()

	c, err := actors.Compile(benchmodels.Figure1Model())
	if err != nil {
		return nil, err
	}
	set := &testcase.Set{Sources: []testcase.Source{
		{Kind: testcase.Const, Value: float64(increment)},
		{Kind: testcase.Const, Value: float64(increment)},
	}}
	maxSteps := int64(1)<<31/(2*increment) + 1000

	prog, err := codegen.Generate(c, codegen.Options{
		Diagnose: true, StopOnDiag: diagnose.WrapOnOverflow, TestCases: set,
	})
	if err != nil {
		return nil, err
	}
	bin, compileTime, _, err := cfg.build(prog, filepath.Join(dir, "fig1"))
	if err != nil {
		return nil, err
	}
	accRes, err := harness.RunContext(context.Background(), bin, harness.RunOptions{Steps: maxSteps, Timeout: cfg.Timeout})
	if err != nil {
		return nil, err
	}
	sse, err := interp.New(c, interp.Options{Diagnose: true, StopOnDiag: diagnose.WrapOnOverflow})
	if err != nil {
		return nil, err
	}
	sseRes, err := sse.Run(set, maxSteps)
	if err != nil {
		return nil, err
	}
	out := &Figure1Result{
		Increment:  increment,
		DetectStep: accRes.FirstDetectOf(diagnose.WrapOnOverflow),
		AccMoS: Detection{
			Step: accRes.FirstDetectOf(diagnose.WrapOnOverflow),
			Wall: time.Duration(accRes.ExecNanos), Compile: compileTime,
		},
		SSE: Detection{
			Step: sseRes.FirstDetectOf(diagnose.WrapOnOverflow),
			Wall: time.Duration(sseRes.ExecNanos),
		},
	}
	out.SpeedupWall = ratio(out.SSE.Wall, out.AccMoS.Wall)
	return out, nil
}
