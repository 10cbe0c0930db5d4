// Benchmark harness: one benchmark per paper artifact. Absolute numbers
// depend on the host; the shape to look for is the one the paper reports —
// AccMoS ns/step far below SSE, SSEac between, SSErac closest, and AccMoS
// reaching more coverage per unit wall-clock time.
//
//	go test -bench=. -benchmem
package accmos_test

import (
	"context"
	"math"
	"os"
	"sync"
	"testing"
	"time"

	"accmos/internal/actors"
	"accmos/internal/benchmodels"
	"accmos/internal/codegen"
	"accmos/internal/coverage"
	"accmos/internal/diagnose"
	"accmos/internal/harness"
	"accmos/internal/interp"
	"accmos/internal/rapid"
	"accmos/internal/testcase"
)

// benchModels is the Table 1/2/3 suite.
var benchModels = benchmodels.Names()

// compiledCache avoids recompiling models across benchmarks.
var (
	compiledMu    sync.Mutex
	compiledCache = map[string]*actors.Compiled{}
)

// benchCache builds every generated binary the benchmarks run, once per
// program content.
var benchCache = harness.NewBuildCache("")

// TestMain removes the build directories of benchCache and of the
// facade's default cache, which the tests build through, when the test
// binary exits.
func TestMain(m *testing.M) {
	code := m.Run()
	benchCache.Remove()
	harness.DefaultCache.Remove()
	os.Exit(code)
}

func compiledOf(b *testing.B, name string) *actors.Compiled {
	b.Helper()
	compiledMu.Lock()
	defer compiledMu.Unlock()
	if c, ok := compiledCache[name]; ok {
		return c
	}
	c, err := actors.Compile(benchmodels.MustBuild(name))
	if err != nil {
		b.Fatal(err)
	}
	compiledCache[name] = c
	return c
}

func benchSet(c *actors.Compiled) *testcase.Set {
	return testcase.NewRandomSet(len(c.Inports), 2024, -100, 100)
}

// binaryOf builds (once) the instrumented generated binary for a model.
func binaryOf(b *testing.B, name string, opts codegen.Options) string {
	b.Helper()
	c := compiledOf(b, name)
	opts.TestCases = benchSet(c)
	prog, err := codegen.Generate(c, opts)
	if err != nil {
		b.Fatal(err)
	}
	return benchBuild(b, prog)
}

// benchBuild builds prog through benchCache.
func benchBuild(b *testing.B, prog *codegen.Program) string {
	b.Helper()
	bin, _, _, err := benchCache.Build(prog, nil)
	if err != nil {
		b.Fatal(err)
	}
	return bin
}

// reportPerStep converts a (duration, steps) measurement into the ns/step
// metric the Table 2 comparison is read by.
func reportPerStep(b *testing.B, total time.Duration, steps int64) {
	b.ReportMetric(float64(total.Nanoseconds())/float64(steps), "ns/step")
}

// BenchmarkTable2 measures per-step simulation cost of the four engines on
// every Table 1 model (paper Table 2; 50 M steps there, scaled here).
func BenchmarkTable2(b *testing.B) {
	for _, name := range benchModels {
		name := name
		c := compiledOf(b, name)

		b.Run(name+"/AccMoS", func(b *testing.B) {
			bin := binaryOf(b, name, codegen.Options{Coverage: true, Diagnose: true})
			const steps = 500_000
			var exec time.Duration
			for i := 0; i < b.N; i++ {
				res, err := harness.RunContext(context.Background(), bin, harness.RunOptions{Steps: steps})
				if err != nil {
					b.Fatal(err)
				}
				exec += time.Duration(res.ExecNanos)
			}
			reportPerStep(b, exec/time.Duration(b.N), steps)
		})

		b.Run(name+"/SSE", func(b *testing.B) {
			e, err := interp.New(c, interp.Options{Coverage: true, Diagnose: true})
			if err != nil {
				b.Fatal(err)
			}
			const steps = 5_000
			set := benchSet(c)
			b.ResetTimer()
			var exec time.Duration
			for i := 0; i < b.N; i++ {
				res, err := e.Run(set, steps, 0)
				if err != nil {
					b.Fatal(err)
				}
				exec += time.Duration(res.ExecNanos)
			}
			reportPerStep(b, exec/time.Duration(b.N), steps)
		})

		b.Run(name+"/SSEac", func(b *testing.B) {
			e, err := interp.NewAccel(c)
			if err != nil {
				b.Fatal(err)
			}
			const steps = 20_000
			set := benchSet(c)
			b.ResetTimer()
			var exec time.Duration
			for i := 0; i < b.N; i++ {
				res, err := e.Run(set, steps, 0)
				if err != nil {
					b.Fatal(err)
				}
				exec += time.Duration(res.ExecNanos)
			}
			reportPerStep(b, exec/time.Duration(b.N), steps)
		})

		b.Run(name+"/SSErac", func(b *testing.B) {
			e, err := rapid.New(c)
			if err != nil {
				b.Fatal(err)
			}
			const steps = 100_000
			set := benchSet(c)
			b.ResetTimer()
			var exec time.Duration
			for i := 0; i < b.N; i++ {
				res, err := e.Run(set, steps, 0)
				if err != nil {
					b.Fatal(err)
				}
				exec += time.Duration(res.ExecNanos)
			}
			reportPerStep(b, exec/time.Duration(b.N), steps)
		})
	}
}

// BenchmarkTable3Coverage races both engines against the same wall-clock
// budget on one representative model and reports the coverage achieved
// (paper Table 3). Read the cov% metrics, not ns/op.
func BenchmarkTable3Coverage(b *testing.B) {
	const modelName = "TWC"
	const budget = 150 * time.Millisecond
	c := compiledOf(b, modelName)
	layout := coverage.NewLayout(c)

	b.Run("AccMoS", func(b *testing.B) {
		bin := binaryOf(b, modelName, codegen.Options{Coverage: true, Diagnose: true})
		for i := 0; i < b.N; i++ {
			res, err := harness.RunContext(context.Background(), bin, harness.RunOptions{Budget: budget})
			if err != nil {
				b.Fatal(err)
			}
			rep := layout.Report(res.Coverage)
			b.ReportMetric(rep.Cond, "cond%")
			b.ReportMetric(rep.MCDC, "mcdc%")
			b.ReportMetric(float64(res.Steps), "steps")
		}
	})
	b.Run("SSE", func(b *testing.B) {
		e, err := interp.New(c, interp.Options{Coverage: true, Diagnose: true})
		if err != nil {
			b.Fatal(err)
		}
		set := benchSet(c)
		for i := 0; i < b.N; i++ {
			res, err := e.Run(set, math.MaxInt64, budget)
			if err != nil {
				b.Fatal(err)
			}
			rep := e.Layout().Report(res.Coverage)
			b.ReportMetric(rep.Cond, "cond%")
			b.ReportMetric(rep.MCDC, "mcdc%")
			b.ReportMetric(float64(res.Steps), "steps")
		}
	})
}

// BenchmarkFigure1Detection measures time-to-detection of the motivating
// overflow for both engines (paper Figure 1 / §1: 184.74 s vs 0.37 s).
func BenchmarkFigure1Detection(b *testing.B) {
	c, err := actors.Compile(benchmodels.Figure1Model())
	if err != nil {
		b.Fatal(err)
	}
	const increment = 2000 // detection near step 2^31/(2*2000) = 536k
	set := &testcase.Set{Sources: []testcase.Source{
		{Kind: testcase.Const, Value: increment},
		{Kind: testcase.Const, Value: increment},
	}}
	maxSteps := int64(1)<<31/(2*increment) + 1000

	b.Run("AccMoS", func(b *testing.B) {
		prog, err := codegen.Generate(c, codegen.Options{
			Diagnose: true, StopOnDiag: diagnose.WrapOnOverflow, TestCases: set,
		})
		if err != nil {
			b.Fatal(err)
		}
		bin := benchBuild(b, prog)
		b.ResetTimer()
		var exec time.Duration
		for i := 0; i < b.N; i++ {
			res, err := harness.RunContext(context.Background(), bin, harness.RunOptions{Steps: maxSteps})
			if err != nil {
				b.Fatal(err)
			}
			if res.FirstDetectOf(diagnose.WrapOnOverflow) < 0 {
				b.Fatal("overflow not detected")
			}
			exec += time.Duration(res.ExecNanos)
		}
		b.ReportMetric(float64(exec.Nanoseconds())/float64(b.N)/1e6, "ms/detect")
	})
	b.Run("SSE", func(b *testing.B) {
		e, err := interp.New(c, interp.Options{Diagnose: true, StopOnDiag: diagnose.WrapOnOverflow})
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		var exec time.Duration
		for i := 0; i < b.N; i++ {
			res, err := e.Run(set, maxSteps, 0)
			if err != nil {
				b.Fatal(err)
			}
			if res.FirstDetectOf(diagnose.WrapOnOverflow) < 0 {
				b.Fatal("overflow not detected")
			}
			exec += time.Duration(res.ExecNanos)
		}
		b.ReportMetric(float64(exec.Nanoseconds())/float64(b.N)/1e6, "ms/detect")
	})
}

// BenchmarkCaseStudyDetection measures the §4 CSEV error-1 detection
// latency for both engines.
func BenchmarkCaseStudyDetection(b *testing.B) {
	const rate = 50_000 // overflow near step 42950
	c, err := actors.Compile(benchmodels.CSEVInjected(rate))
	if err != nil {
		b.Fatal(err)
	}
	set := testcase.NewRandomSet(len(c.Inports), 2024, -100, 100)
	maxSteps := benchmodels.OverflowStepOf(rate) * 4

	b.Run("AccMoS", func(b *testing.B) {
		prog, err := codegen.Generate(c, codegen.Options{
			Diagnose:   true,
			StopOnDiag: diagnose.WrapOnOverflow, StopOnActor: "CSEVINJ_QuantityAdd",
			TestCases: set,
		})
		if err != nil {
			b.Fatal(err)
		}
		bin := benchBuild(b, prog)
		b.ResetTimer()
		var exec time.Duration
		for i := 0; i < b.N; i++ {
			res, err := harness.RunContext(context.Background(), bin, harness.RunOptions{Steps: maxSteps})
			if err != nil {
				b.Fatal(err)
			}
			exec += time.Duration(res.ExecNanos)
		}
		b.ReportMetric(float64(exec.Nanoseconds())/float64(b.N)/1e6, "ms/detect")
	})
	b.Run("SSE", func(b *testing.B) {
		e, err := interp.New(c, interp.Options{
			Diagnose:   true,
			StopOnDiag: diagnose.WrapOnOverflow, StopOnActor: "CSEVINJ_QuantityAdd",
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		var exec time.Duration
		for i := 0; i < b.N; i++ {
			res, err := e.Run(set, maxSteps, 0)
			if err != nil {
				b.Fatal(err)
			}
			exec += time.Duration(res.ExecNanos)
		}
		b.ReportMetric(float64(exec.Nanoseconds())/float64(b.N)/1e6, "ms/detect")
	})
}

// BenchmarkAblationInstrumentation isolates the cost of the
// simulation-oriented instrumentation inside generated code: the same
// model with no instrumentation, coverage only, diagnosis only, and both
// (the DESIGN.md A1 ablation).
func BenchmarkAblationInstrumentation(b *testing.B) {
	const modelName = "LANS"
	compiledOf(b, modelName)
	cases := []struct {
		label    string
		cov, dia bool
	}{
		{"none", false, false},
		{"coverage", true, false},
		{"diagnosis", false, true},
		{"both", true, true},
	}
	for _, tc := range cases {
		tc := tc
		b.Run(tc.label, func(b *testing.B) {
			bin := binaryOf(b, modelName, codegen.Options{Coverage: tc.cov, Diagnose: tc.dia})
			const steps = 500_000
			var exec time.Duration
			for i := 0; i < b.N; i++ {
				res, err := harness.RunContext(context.Background(), bin, harness.RunOptions{Steps: steps})
				if err != nil {
					b.Fatal(err)
				}
				exec += time.Duration(res.ExecNanos)
			}
			reportPerStep(b, exec/time.Duration(b.N), steps)
		})
	}
}

// BenchmarkAblationRapidSpecialization isolates the unboxed-register
// specialization's contribution to Rapid-Accelerator speed by comparing
// against a bridge-only build of the same model (DESIGN.md A2).
func BenchmarkAblationRapidSpecialization(b *testing.B) {
	c := compiledOf(b, "LANS")
	set := benchSet(c)
	const steps = 50_000
	run := func(b *testing.B, e *rapid.Engine) {
		var exec time.Duration
		for i := 0; i < b.N; i++ {
			res, err := e.Run(set, steps, 0)
			if err != nil {
				b.Fatal(err)
			}
			exec += time.Duration(res.ExecNanos)
		}
		reportPerStep(b, exec/time.Duration(b.N), steps)
	}
	b.Run("specialized", func(b *testing.B) {
		e, err := rapid.New(c)
		if err != nil {
			b.Fatal(err)
		}
		spec, bridged := e.Stats()
		b.Logf("specialized %d, bridged %d", spec, bridged)
		run(b, e)
	})
	b.Run("bridge-only", func(b *testing.B) {
		e, err := rapid.NewBridgeOnly(c)
		if err != nil {
			b.Fatal(err)
		}
		run(b, e)
	})
}

// BenchmarkAblationCompile measures the one-time cost of the AccMoS
// pipeline front end: generation plus Go compilation. Every iteration
// builds through a new build cache, so it compiles and links in full.
func BenchmarkAblationCompile(b *testing.B) {
	c := compiledOf(b, "CSEV")
	dir := b.TempDir()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		prog, err := codegen.Generate(c, codegen.Options{Coverage: true, Diagnose: true, TestCases: benchSet(c)})
		if err != nil {
			b.Fatal(err)
		}
		if _, _, _, err := harness.NewBuildCache(dir).Build(prog, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGeneration measures code generation alone (no compiler).
func BenchmarkGeneration(b *testing.B) {
	c := compiledOf(b, "RAC")
	set := benchSet(c)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := codegen.Generate(c, codegen.Options{Coverage: true, Diagnose: true, TestCases: set}); err != nil {
			b.Fatal(err)
		}
	}
}
