// Command accmos runs the full AccMoS pipeline on a model file: parse,
// elaborate, instrument, generate code, compile, execute, and report
// simulation results (coverage, diagnostics, timing).
//
// Usage:
//
//	accmos -model m.xml -steps 1000000 -coverage -diagnose
//	accmos -model m.xml -engine sse          # reference interpreter
//	accmos -model m.xml -gen > main.go       # inspect generated code
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof"
	"os"
	"strings"
	"time"

	accmos "accmos"
	"accmos/internal/diagnose"
	"accmos/internal/simresult"
)

func main() {
	// The default build cache keeps its sources, objects and binaries in
	// a private temporary directory; every exit removes it (fatal too).
	defer accmos.DefaultBuildCache().Remove()
	var (
		modelPath = flag.String("model", "", "model file (required)")
		engine    = flag.String("engine", "accmos", "engine: accmos | sse | accel | rapid")
		steps     = flag.Int64("steps", 100000, "simulation steps; with -budget-ms, a bound only when given explicitly")
		budgetMS  = flag.Int64("budget-ms", 0, "wall-clock budget in ms; the run stops at the budget, or at an explicit -steps if reached first")
		coverage  = flag.Bool("coverage", true, "collect coverage")
		diag      = flag.Bool("diagnose", true, "run calculation diagnosis")
		monitor   = flag.String("monitor", "", "comma-separated actor names to signal-monitor")
		stopOn    = flag.String("stop-on", "", "stop when this diagnosis kind first fires (e.g. WrapOnOverflow)")
		stopActor = flag.String("stop-actor", "", "narrow -stop-on to this actor path")
		seed      = flag.Uint64("seed", 1, "test-case seed")
		lo        = flag.Float64("lo", -100, "random stimulus lower bound")
		hi        = flag.Float64("hi", 100, "random stimulus upper bound")
		genOnly   = flag.Bool("gen", false, "print the generated simulation program and exit")
		workDir   = flag.String("workdir", "", "build through a cache rooted at this directory, keeping the generated sources and binaries there")
		tcCSV     = flag.String("tc-csv", "", "load test cases from a CSV file (one column per inport)")
		uncovered = flag.Bool("uncovered", false, "list the coverage points the run missed")
		jsonOut   = flag.Bool("json", false, "emit the raw results as JSON instead of the summary")
		verify    = flag.Bool("verify", false, "also run the reference interpreter and cross-check outputs")
		lintOnly  = flag.Bool("lint", false, "run the static model checks and exit")
		optLevel  = flag.Int("O", 1, "optimization level: 0 = off, 1 = constant folding + CSE + dead-actor elimination, 2 = O1 + expression fusion, invariant hoisting, storage narrowing")
		sweep     = flag.Int("sweep", 0, "run N random test suites against one compiled binary, merging coverage")
		parallel  = flag.Int("parallel", 0, "concurrent suite executions for -sweep (0 = GOMAXPROCS, 1 = sequential)")
		timeout   = flag.Duration("timeout", 0, "kill a generated-binary run exceeding this wall-clock deadline, e.g. 30s (0 = none)")
		progress  = flag.Bool("progress", false, "show a live progress line (steps/sec, coverage) on stderr")
		traceJSON = flag.String("trace-json", "", "write the pipeline phase trace (parse/schedule/instrument/generate/compile/run) as JSON to this file")
		pprofAddr = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060) for live profiling")
	)
	flag.Parse()
	if *modelPath == "" {
		fmt.Fprintln(os.Stderr, "accmos: -model is required")
		flag.Usage()
		os.Exit(2)
	}
	if *pprofAddr != "" {
		go func() {
			fmt.Fprintln(os.Stderr, "accmos: pprof:", http.ListenAndServe(*pprofAddr, nil))
		}()
	}
	var tracer *accmos.Tracer
	if *traceJSON != "" {
		tracer = accmos.NewTracer()
		defer func() {
			f, err := os.Create(*traceJSON)
			if err != nil {
				fatal(err)
			}
			if err := tracer.WriteJSON(f); err != nil {
				fatal(err)
			}
			if err := f.Close(); err != nil {
				fatal(err)
			}
			fmt.Fprintf(os.Stderr, "accmos: phase trace written to %s\n%s", *traceJSON, tracer.Summary())
		}()
	}
	parseSpan := tracer.Start("parse")
	m, err := accmos.LoadModel(*modelPath)
	parseSpan.End()
	if err != nil {
		fatal(err)
	}
	if *lintOnly {
		findings, err := accmos.Lint(m)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("lint: %d finding(s) in %s\n", len(findings), m.Name)
		for _, f := range findings {
			fmt.Println(" ", f)
		}
		if len(findings) > 0 {
			os.Exit(1)
		}
		return
	}

	tcs := accmos.RandomTestCases(m, *seed, *lo, *hi)
	if *tcCSV != "" {
		tcs, err = accmos.CSVTestCases(*tcCSV)
		if err != nil {
			fatal(err)
		}
	}
	level, err := accmos.OptLevelFromInt(*optLevel)
	if err != nil {
		fatal(err)
	}
	cache := accmos.DefaultBuildCache()
	if *workDir != "" {
		cache = accmos.NewBuildCache(*workDir)
	}
	if *budgetMS > 0 && !flagGiven("steps") {
		*steps = 0 // budget-only
	}
	opts := accmos.Options{
		OptLevel:    level,
		Steps:       *steps,
		Budget:      time.Duration(*budgetMS) * time.Millisecond,
		Coverage:    *coverage,
		Diagnose:    *diag,
		StopOnDiag:  diagnose.Kind(*stopOn),
		StopOnActor: *stopActor,
		TestCases:   tcs,
		Cache:       cache,
		Timeout:     *timeout,
		Parallelism: *parallel,
		Trace:       tracer,
	}
	if *monitor != "" {
		opts.Monitor = strings.Split(*monitor, ",")
	}
	// Every invocation gets a correlation ID: heartbeats, trace spans and
	// harness errors all carry it, so one run's telemetry is joinable
	// (the daemon uses its job IDs the same way).
	runID := accmos.NewRunID()
	opts.RunID = runID
	if *progress {
		opts.Progress = liveProgressLine
		fmt.Fprintf(os.Stderr, "accmos: run %s\n", runID)
	}
	if *genOnly {
		src, err := accmos.GenerateSource(m, opts)
		if err != nil {
			fatal(err)
		}
		fmt.Print(src)
		return
	}

	if *sweep > 0 {
		xors := make([]uint64, *sweep)
		for i := range xors {
			xors[i] = uint64(i) * 0x9E3779B97F4A7C15
		}
		sw, err := accmos.Sweep(m, opts, xors)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("sweep: %d random suites x %d steps on %s\n", *sweep, opts.Steps, m.Name)
		for i, run := range sw.Runs {
			if run == nil { // suites cancelled mid-sweep leave nil slots
				continue
			}
			rep := run.CoverageReport()
			fmt.Printf("  suite %2d: actor %5.1f%%  cond %5.1f%%  dec %5.1f%%  mc/dc %5.1f%%  (%v)\n",
				i, rep.Actor, rep.Cond, rep.Dec, rep.MCDC, time.Duration(run.ExecNanos))
		}
		merged := sw.MergedCoverage()
		fmt.Printf("  merged:   actor %5.1f%%  cond %5.1f%%  dec %5.1f%%  mc/dc %5.1f%%\n",
			merged.Actor, merged.Cond, merged.Dec, merged.MCDC)
		if *uncovered {
			missed := sw.MergedUncovered()
			fmt.Printf("uncovered by every suite: %d\n", len(missed))
			for _, line := range missed {
				fmt.Printf("  %s\n", line)
			}
		}
		if *progress {
			fmt.Fprintln(os.Stderr, telemetrySummary(runID, cache))
		}
		return
	}

	var res *accmos.Result
	switch *engine {
	case "accmos":
		res, err = accmos.Simulate(m, opts)
	case "sse":
		res, err = accmos.Interpret(m, opts)
	case "accel":
		res, err = accmos.Accelerate(m, opts)
	case "rapid":
		res, err = accmos.RapidAccelerate(m, opts)
	default:
		fatal(fmt.Errorf("unknown engine %q", *engine))
	}
	if err != nil {
		fatal(err)
	}
	if *progress {
		if *engine != "accmos" {
			cache = nil
		}
		fmt.Fprintln(os.Stderr, telemetrySummary(runID, cache))
	}

	if *jsonOut {
		b, err := json.MarshalIndent(res.Results, "", "  ")
		if err != nil {
			fatal(err)
		}
		os.Stdout.Write(b)
		os.Stdout.Write([]byte("\n"))
		return
	}

	st := m.Stats()
	fmt.Printf("model:    %s (%d actors, %d subsystems)\n", m.Name, st.Actors, st.Subsystems)
	fmt.Printf("engine:   %s\n", res.Engine)
	if o := res.Opt; o != nil {
		fmt.Printf("opt:      %s, %d -> %d actors", o.Level, o.ActorsBefore, o.ActorsAfter)
		for _, p := range o.Passes {
			fmt.Printf("  %s:%d", p.Pass, p.Changed)
		}
		fmt.Println()
		if o.FusedExprs > 0 || o.HoistedExprs > 0 || o.NarrowedSignals > 0 {
			fmt.Printf("lower:    %d fused, %d hoisted, %d narrowed (%d effective actors)\n",
				o.FusedExprs, o.HoistedExprs, o.NarrowedSignals, o.EffectiveActors)
		}
	}
	fmt.Printf("steps:    %d\n", res.Steps)
	fmt.Printf("exec:     %v\n", time.Duration(res.ExecNanos))
	// Normalize wall time by scheduled work. At O2 the denominator is the
	// post-fusion statement count (EffectiveActors): fused actors emit no
	// step-loop statement of their own, so counting them would make O2
	// look artificially fast per actor.
	if res.Steps > 0 && res.Opt != nil && res.Opt.EffectiveActors > 0 {
		fmt.Printf("perf:     %.1f ns/actor-step\n",
			float64(res.ExecNanos)/float64(res.Steps)/float64(res.Opt.EffectiveActors))
	}
	if res.CompileNanos > 0 {
		fmt.Printf("compile:  %v\n", time.Duration(res.CompileNanos))
	}
	fmt.Printf("out hash: %016x\n", res.OutputHash)
	if res.Results.Coverage != nil {
		rep := res.CoverageReport()
		fmt.Printf("coverage: actor %.1f%%  condition %.1f%%  decision %.1f%%  MC/DC %.1f%%\n",
			rep.Actor, rep.Cond, rep.Dec, rep.MCDC)
	}
	if res.DiagTotal > 0 {
		fmt.Printf("diagnostics: %d findings\n", res.DiagTotal)
		for _, line := range res.DiagSummary() {
			fmt.Printf("  %s\n", line)
		}
	} else if *diag && *engine != "accel" && *engine != "rapid" {
		fmt.Println("diagnostics: none")
	}
	for name, samples := range res.Monitor {
		fmt.Printf("monitor %s (%d hits):\n", name, res.MonitorHits[name])
		for _, s := range samples {
			fmt.Printf("  step %d: %s\n", s.Step, s.Value)
		}
	}
	if *uncovered {
		missed := res.Uncovered()
		fmt.Printf("uncovered points: %d\n", len(missed))
		for _, line := range missed {
			fmt.Printf("  %s\n", line)
		}
	}
	if *verify && *engine != "sse" {
		ref, err := accmos.Interpret(m, opts)
		if err != nil {
			fatal(err)
		}
		var diff string
		if *engine == "accmos" {
			// The generated program instruments like the interpreter, so
			// the oracle compares it in full.
			diff = simresult.Diff(ref.Results, res.Results)
		} else if !simresult.SameOutputs(ref.Results, res.Results) {
			// The accelerator engines compute outputs only.
			diff = fmt.Sprintf("output hash %016x after %d steps vs %016x after %d",
				ref.OutputHash, ref.Steps, res.OutputHash, res.Steps)
		}
		if diff != "" {
			fatal(fmt.Errorf("VERIFY FAILED: interpreter vs %s: %s", res.Engine, diff))
		}
		fmt.Printf("verify:   interpreter agrees (%d steps, hash %016x, %v)\n",
			ref.Steps, ref.OutputHash, time.Duration(ref.ExecNanos))
	}
}

// liveProgressLine rewrites one stderr status line per progress snapshot
// (generated-binary heartbeats, or engine ticks for sse/accel/rapid).
func liveProgressLine(s accmos.Snapshot) {
	cov := ""
	if s.Coverage >= 0 {
		cov = fmt.Sprintf("  cov %5.1f%%", s.Coverage)
	}
	fmt.Fprintf(os.Stderr, "\r%s %s: %d steps  %.3g steps/s%s  diags %d  (%v)   ",
		s.Engine, s.Model, s.Steps, s.StepsPerSec, cov, s.Diags,
		s.Elapsed().Round(time.Millisecond))
	if s.Final {
		fmt.Fprintln(os.Stderr)
	}
}

// telemetrySummary renders the final -progress line: the run's
// correlation ID and the hit rate of the build cache it went through
// (nil for the in-process engines).
func telemetrySummary(runID string, cache *accmos.BuildCache) string {
	line := "accmos: run " + runID
	if cache != nil {
		cs := cache.Stats()
		line += fmt.Sprintf("  cache %d hit / %d miss (%.0f%% hit rate)", cs.Hits, cs.Misses, cs.HitRate()*100)
	}
	return line
}

// flagGiven reports whether the command line set the named flag.
func flagGiven(name string) bool {
	given := false
	flag.Visit(func(f *flag.Flag) { given = given || f.Name == name })
	return given
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "accmos:", err)
	accmos.DefaultBuildCache().Remove()
	os.Exit(1)
}
