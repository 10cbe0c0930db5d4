package accmos_test

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	accmos "accmos"
	"accmos/internal/benchmodels"
	"accmos/internal/model"
	"accmos/internal/simresult"
	"accmos/internal/types"
)

// TestMain removes the build directory of the facade's default cache,
// which the tests build through, when the test binary exits.
func TestMain(m *testing.M) {
	code := m.Run()
	accmos.DefaultBuildCache().Remove()
	os.Exit(code)
}

func demoModel() *accmos.Model {
	return accmos.NewModelBuilder("DEMO").
		Add("In", "Inport", 0, 1, model.WithOutKind(types.I32), model.WithParam("Port", "1")).
		Add("Acc", "Sum", 2, 1, model.WithOperator("++")).
		Add("D", "UnitDelay", 1, 1).
		Add("Out", "Outport", 1, 0, model.WithParam("Port", "1")).
		Wire("In", "Acc", 0).
		Wire("D", "Acc", 1).
		Wire("Acc", "D", 0).
		Wire("Acc", "Out", 0).
		MustBuild()
}

func TestFacadeSimulateMatchesInterpret(t *testing.T) {
	m := demoModel()
	opts := accmos.Options{
		Steps:     3000,
		Coverage:  true,
		Diagnose:  true,
		TestCases: accmos.RandomTestCases(m, 9, 1e5, 2e6),
	}
	sim, err := accmos.Simulate(m, opts)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := accmos.Interpret(m, opts)
	if err != nil {
		t.Fatal(err)
	}
	if sim.OutputHash != ref.OutputHash {
		t.Errorf("hash mismatch: %x vs %x", sim.OutputHash, ref.OutputHash)
	}
	if sim.DiagTotal == 0 || sim.DiagTotal != ref.DiagTotal {
		t.Errorf("diag totals: %d vs %d", sim.DiagTotal, ref.DiagTotal)
	}
	simRep, refRep := sim.CoverageReport(), ref.CoverageReport()
	if simRep != refRep {
		t.Errorf("coverage reports differ: %+v vs %+v", simRep, refRep)
	}
	if simRep.Actor == 0 {
		t.Error("no actor coverage")
	}
}

func TestFacadeFastEngines(t *testing.T) {
	m := demoModel()
	opts := accmos.Options{Steps: 1000, TestCases: accmos.RandomTestCases(m, 4, -10, 10)}
	ref, err := accmos.Interpret(m, opts)
	if err != nil {
		t.Fatal(err)
	}
	ac, err := accmos.Accelerate(m, opts)
	if err != nil {
		t.Fatal(err)
	}
	rc, err := accmos.RapidAccelerate(m, opts)
	if err != nil {
		t.Fatal(err)
	}
	if ac.OutputHash != ref.OutputHash || rc.OutputHash != ref.OutputHash {
		t.Errorf("fast engine hashes diverge: ref %x ac %x rac %x",
			ref.OutputHash, ac.OutputHash, rc.OutputHash)
	}
}

func TestFacadeGenerateSource(t *testing.T) {
	src, err := accmos.GenerateSource(demoModel(), accmos.Options{Coverage: true, Diagnose: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"package main", "func modelExe", "diagnose_DEMO_Acc"} {
		if !strings.Contains(src, want) {
			t.Errorf("generated source missing %q", want)
		}
	}
}

func TestFacadeModelFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "demo.xml")
	m := demoModel()
	if err := accmos.SaveModel(path, m); err != nil {
		t.Fatal(err)
	}
	loaded, err := accmos.LoadModel(path)
	if err != nil {
		t.Fatal(err)
	}
	opts := accmos.Options{Steps: 500, TestCases: accmos.RandomTestCases(m, 2, -5, 5)}
	a, err := accmos.Interpret(m, opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := accmos.Interpret(loaded, opts)
	if err != nil {
		t.Fatal(err)
	}
	if a.OutputHash != b.OutputHash {
		t.Error("round-tripped model behaves differently")
	}
}

func TestFacadeJSONIRRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "demo.json")
	m := demoModel()
	if err := accmos.SaveModel(path, m); err != nil {
		t.Fatal(err)
	}
	loaded, err := accmos.LoadModel(path)
	if err != nil {
		t.Fatal(err)
	}
	opts := accmos.Options{Steps: 300, TestCases: accmos.RandomTestCases(m, 8, -5, 5)}
	a, err := accmos.Interpret(m, opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := accmos.Interpret(loaded, opts)
	if err != nil {
		t.Fatal(err)
	}
	if a.OutputHash != b.OutputHash {
		t.Error("JSON IR round trip changed behaviour")
	}
}

func TestFacadeStopOnDiag(t *testing.T) {
	m := benchmodels.Figure1Model()
	opts := accmos.Options{
		Steps:      1 << 30,
		Diagnose:   true,
		StopOnDiag: accmos.WrapOnOverflow,
		TestCases: &accmos.TestCases{Sources: []accmos.TestSource{
			{Value: 1e6}, {Value: 1e6}, // Const sources
		}},
	}
	res, err := accmos.Simulate(m, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.FirstDetectOf(accmos.WrapOnOverflow) < 0 {
		t.Fatal("overflow not detected")
	}
	if res.Steps > 1200 {
		t.Errorf("ran %d steps; expected early stop", res.Steps)
	}
}

func TestFacadeDefaults(t *testing.T) {
	// No test cases, no steps: defaults kick in.
	res, err := accmos.Interpret(demoModel(), accmos.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Steps != 1000 {
		t.Errorf("default steps = %d, want 1000", res.Steps)
	}
}

// engines are the four facade entry points, by engine label.
var engines = []struct {
	name string
	run  func(*accmos.Model, accmos.Options) (*accmos.Result, error)
}{
	{"Simulate", accmos.Simulate},
	{"Interpret", accmos.Interpret},
	{"Accelerate", accmos.Accelerate},
	{"RapidAccelerate", accmos.RapidAccelerate},
}

// TestEnginesStepsAndBudgetTogether: with both Steps and a Budget set,
// every engine stops at whichever bound is reached first. Under a
// budget far longer than the steps take, all four run exactly Steps.
func TestEnginesStepsAndBudgetTogether(t *testing.T) {
	m := benchmodels.MustBuild("CSEV")
	for _, e := range engines {
		res, err := e.run(m, accmos.Options{Steps: 3000, Budget: time.Minute})
		if err != nil {
			t.Fatalf("%s: %v", e.name, err)
		}
		if res.Steps != 3000 {
			t.Errorf("%s ran %d steps under Steps 3000 and a 1m budget, want 3000", e.name, res.Steps)
		}
	}
}

// TestEnginesRejectNegativeBounds: a negative Steps or Budget is an
// error at every facade entry point, not an engine-specific meaning.
func TestEnginesRejectNegativeBounds(t *testing.T) {
	m := demoModel()
	for _, opts := range []accmos.Options{{Steps: -5}, {Budget: -time.Second}} {
		for _, e := range engines {
			if res, err := e.run(m, opts); err == nil || !strings.Contains(err.Error(), "negative run bound") {
				t.Errorf("%s with Steps %d, Budget %v: %v, %v; want a negative-bound error",
					e.name, opts.Steps, opts.Budget, res, err)
			}
		}
		if _, err := accmos.Sweep(m, opts, []uint64{1}); err == nil {
			t.Errorf("Sweep with Steps %d, Budget %v: no error", opts.Steps, opts.Budget)
		}
		if _, err := accmos.GenerateSource(m, opts); err == nil {
			t.Errorf("GenerateSource with Steps %d, Budget %v: no error", opts.Steps, opts.Budget)
		}
	}
}

// TestEnginesRejectUnknownDataStore: a DataStoreRead whose Store names
// no DataStoreMemory is refused at elaboration, with the same error at
// every entry point, before any engine or code generator sees it.
func TestEnginesRejectUnknownDataStore(t *testing.T) {
	m := accmos.NewModelBuilder("DSBAD").
		Add("Rd", "DataStoreRead", 0, 1, model.WithParam("Store", "nope")).
		Add("Out", "Outport", 1, 0, model.WithParam("Port", "1")).
		Wire("Rd", "Out", 0).
		MustBuild()
	const want = `actor Rd (DataStoreRead) references unknown data store "nope"`
	_, err := accmos.GenerateSource(m, accmos.Options{Steps: 10})
	errs := map[string]error{"GenerateSource": err}
	for _, e := range engines {
		_, errs[e.name] = e.run(m, accmos.Options{Steps: 10})
	}
	for name, err := range errs {
		if err == nil || err.Error() != want {
			t.Errorf("%s: error %v, want %q", name, err, want)
		}
	}
}

// sweepModel has a rare branch (input > 99): individual random suites
// may miss it, so sweeps exercise real coverage merging.
func sweepModel() *accmos.Model {
	return accmos.NewModelBuilder("SWEEP").
		Add("In", "Inport", 0, 1, model.WithOutKind(types.F64), model.WithParam("Port", "1")).
		Add("Rare", "CompareToConstant", 1, 1, model.WithOperator(">"), model.WithParam("Constant", "99")).
		Add("Sw", "Switch", 3, 1, model.WithOperator("~=0")).
		Add("Hi", "Constant", 0, 1, model.WithOutKind(types.F64), model.WithParam("Value", "1")).
		Add("Lo", "Constant", 0, 1, model.WithOutKind(types.F64), model.WithParam("Value", "2")).
		Add("Out", "Outport", 1, 0, model.WithParam("Port", "1")).
		Wire("In", "Rare", 0).
		Wire("Hi", "Sw", 0).
		Wire("Rare", "Sw", 1).
		Wire("Lo", "Sw", 2).
		Wire("Sw", "Out", 0).
		MustBuild()
}

func TestSweepMergesCoverage(t *testing.T) {
	m := sweepModel()
	opts := accmos.Options{
		Steps:     400,
		TestCases: accmos.RandomTestCases(m, 77, -100, 100),
	}
	sw, err := accmos.Sweep(m, opts, []uint64{0, 0xDEAD, 0xBEEF, 0xF00D})
	if err != nil {
		t.Fatal(err)
	}
	if len(sw.Runs) != 4 {
		t.Fatalf("runs = %d", len(sw.Runs))
	}
	merged := sw.MergedCoverage()
	hashes := map[uint64]bool{}
	for _, run := range sw.Runs {
		rep := run.CoverageReport()
		if rep.CondCovered > merged.CondCovered || rep.DecCovered > merged.DecCovered {
			t.Errorf("individual run exceeds merged coverage: %+v vs %+v", rep, merged)
		}
		hashes[run.OutputHash] = true
	}
	if len(hashes) != 4 {
		t.Errorf("seed xors must produce distinct suites: %d distinct hashes", len(hashes))
	}
	// Seed xor 0 must reproduce the unperturbed suite exactly.
	base, err := accmos.Interpret(m, opts)
	if err != nil {
		t.Fatal(err)
	}
	if sw.Runs[0].OutputHash != base.OutputHash {
		t.Error("seed-xor 0 diverged from the embedded suite")
	}
}

// TestSweepReportsPerSuiteCoverage: a default sweep runs every suite as
// its own request, so every run reports its own coverage, and the merged
// record is exactly the OR of the runs' bitmaps — the per-suite view the
// test-adequacy workflow reads to decide whether another suite helps.
func TestSweepReportsPerSuiteCoverage(t *testing.T) {
	m := sweepModel()
	opts := accmos.Options{
		Steps:     400,
		TestCases: accmos.RandomTestCases(m, 77, -100, 100),
	}
	seeds := []uint64{0, 1, 0xDEAD, 0xBEEF, 42, 0xF00D, 7, 0xFEED, 0xA5A5, 3}
	sw, err := accmos.Sweep(m, opts, seeds)
	if err != nil {
		t.Fatal(err)
	}
	_, layout, err := accmos.SweepProgram(m, opts)
	if err != nil {
		t.Fatal(err)
	}
	merged := layout.NewRaw()
	for i, run := range sw.Runs {
		if rep := run.CoverageReport(); rep.ActorCovered == 0 {
			t.Errorf("suite %d: zero coverage report %+v", i, rep)
		}
		if run.Results.Coverage == nil {
			t.Fatalf("suite %d: no coverage bitmaps", i)
		}
		if err := merged.Merge(run.Results.Coverage); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := sw.MergedCoverage(), layout.Report(merged); got != want {
		t.Errorf("merged coverage %+v, want the OR of the runs' bitmaps %+v", got, want)
	}
}

func TestSweepParallelMatchesSequential(t *testing.T) {
	// Acceptance: a parallel sweep must be a pure scheduling change — the
	// per-run results (order included) and the merged coverage bitmaps
	// must be identical to the sequential executor's.
	m := sweepModel()
	seeds := []uint64{0, 1, 0xDEAD, 0xBEEF, 0xF00D, 42, 0xFEED, 7}
	run := func(parallelism int) *accmos.SweepResult {
		t.Helper()
		sw, err := accmos.Sweep(m, accmos.Options{
			Steps:       400,
			TestCases:   accmos.RandomTestCases(m, 77, -100, 100),
			Parallelism: parallelism,
		}, seeds)
		if err != nil {
			t.Fatal(err)
		}
		return sw
	}
	seq := run(1)
	par := run(4)
	if len(seq.Runs) != len(seeds) || len(par.Runs) != len(seeds) {
		t.Fatalf("runs: sequential %d, parallel %d, want %d", len(seq.Runs), len(par.Runs), len(seeds))
	}
	for i := range seeds {
		if seq.Runs[i].OutputHash != par.Runs[i].OutputHash {
			t.Errorf("run %d: output hash %x (sequential) vs %x (parallel)",
				i, seq.Runs[i].OutputHash, par.Runs[i].OutputHash)
		}
		if !reflect.DeepEqual(seq.Runs[i].Results.Coverage, par.Runs[i].Results.Coverage) {
			t.Errorf("run %d: coverage bitmaps diverge between executors", i)
		}
	}
	if seq.MergedCoverage() != par.MergedCoverage() {
		t.Errorf("merged coverage diverges: %+v (sequential) vs %+v (parallel)",
			seq.MergedCoverage(), par.MergedCoverage())
	}
}

func TestSweepContextCancel(t *testing.T) {
	// Effectively-endless suites: only cancellation can end this sweep.
	m := sweepModel()
	opts := accmos.Options{
		Steps:       1 << 40,
		TestCases:   accmos.RandomTestCases(m, 77, -100, 100),
		Parallelism: 2,
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(500 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := accmos.SweepContext(ctx, m, opts, []uint64{1, 2, 3, 4})
	if err == nil {
		t.Fatal("a cancelled sweep must return an error")
	}
	if !strings.Contains(err.Error(), "context canceled") {
		t.Errorf("error must name the cancellation: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Errorf("sweep took %v to honour a 500ms cancel", elapsed)
	}
}

func TestSweepTagsSnapshotsWithWorkerAndSuite(t *testing.T) {
	m := sweepModel()
	var (
		mu    sync.Mutex
		snaps []accmos.Snapshot
	)
	opts := accmos.Options{
		Steps:         5000,
		TestCases:     accmos.RandomTestCases(m, 77, -100, 100),
		Parallelism:   2,
		ProgressEvery: time.Millisecond,
		Progress: func(s accmos.Snapshot) {
			mu.Lock()
			snaps = append(snaps, s)
			mu.Unlock()
		},
	}
	if _, err := accmos.Sweep(m, opts, []uint64{1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	if len(snaps) == 0 {
		t.Fatal("heartbeat-enabled sweep emitted no progress snapshots")
	}
	suites := map[int]bool{}
	for _, s := range snaps {
		if s.Worker < 1 || s.Worker > 2 {
			t.Fatalf("snapshot worker %d out of range [1,2]", s.Worker)
		}
		if s.Suite < 1 || s.Suite > 4 {
			t.Fatalf("snapshot suite %d out of range [1,4]", s.Suite)
		}
		if s.Final {
			suites[s.Suite] = true
		}
	}
	if len(suites) != 4 {
		t.Errorf("final snapshots cover %d of 4 suites: %v", len(suites), suites)
	}
}

func BenchmarkSweep(b *testing.B) {
	m := sweepModel()
	seeds := make([]uint64, 8)
	for i := range seeds {
		seeds[i] = uint64(i) * 0x9E3779B97F4A7C15
	}
	for _, p := range []int{1, 4} {
		b.Run(fmt.Sprintf("parallelism=%d", p), func(b *testing.B) {
			opts := accmos.Options{
				Steps:       2_000_000,
				TestCases:   accmos.RandomTestCases(m, 77, -100, 100),
				Parallelism: p,
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := accmos.Sweep(m, opts, seeds); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// gainChain builds a chain of n gains. At O0 every gain is a statement
// of the generated step function, so its compile takes about a second
// per 6,000 gains on a 2-vCPU host.
func gainChain(n int) *accmos.Model {
	b := accmos.NewModelBuilder("CHAIN").
		Add("In", "Inport", 0, 1, model.WithOutKind(types.F64), model.WithParam("Port", "1"))
	prev := "In"
	for i := 0; i < n; i++ {
		g := fmt.Sprintf("G%d", i)
		b.Add(g, "Gain", 1, 1, model.WithParam("Gain", fmt.Sprintf("1.%d", i+1))).Wire(prev, g, 0)
		prev = g
	}
	return b.Add("Out", "Outport", 1, 0, model.WithParam("Port", "1")).Wire(prev, "Out", 0).MustBuild()
}

// TestSimulateContextCancelStopsCompile: cancelling SimulateContext while
// its program compiles kills the compiler. The call fails with the
// cancellation well before that compile's uncancelled time, measured
// here by the next call, and publishes nothing, so the next call on the
// same cache builds the program and matches the interpreter.
func TestSimulateContextCancelStopsCompile(t *testing.T) {
	m := gainChain(6000)
	dir := t.TempDir()
	cache := accmos.NewBuildCache(dir)
	opts := accmos.Options{
		OptLevel: accmos.OptO0, Steps: 50, Coverage: true, Diagnose: true,
		TestCases: accmos.RandomTestCases(m, 3, -1, 1), Cache: cache,
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cancelledAt := make(chan time.Time, 1)
	go func() {
		// The source is written just before the compiler starts.
		for ctx.Err() == nil {
			if src, _ := filepath.Glob(filepath.Join(dir, "*.go")); len(src) > 0 {
				cancelledAt <- time.Now()
				cancel()
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()
	_, err := accmos.SimulateContext(ctx, m, opts)
	returned := time.Now()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("SimulateContext cancelled mid-compile: %v, want context.Canceled", err)
	}
	stopped := returned.Sub(<-cancelledAt)
	if left, _ := os.ReadDir(dir); len(left) != 0 || cache.Stats().Entries != 0 {
		t.Errorf("the cancelled build published %d entries and left %v", cache.Stats().Entries, left)
	}

	res, err := accmos.SimulateContext(context.Background(), m, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.CacheHit {
		t.Error("the call after the cancel was served a cached binary")
	}
	compile := time.Duration(res.CompileNanos)
	t.Logf("returned %v after the cancel; the uncancelled compile took %v", stopped, compile)
	if stopped > compile/2 {
		t.Errorf("the cancelled call returned %v after the cancel, want well under the %v compile", stopped, compile)
	}
	ref, err := accmos.Interpret(m, opts)
	if err != nil {
		t.Fatal(err)
	}
	if d := simresult.Diff(ref.Results, res.Results); d != "" {
		t.Errorf("generated vs interpreter after the cancel: %s", d)
	}
}

// TestParamsOnlyJobsNeverLink: jobs that differ only in their run
// parameters share one model binary. SPV through Simulate on one cache at
// 500 steps, at 600 steps and with a new seed compiles and links once in
// all, and each job matches the interpreter.
func TestParamsOnlyJobsNeverLink(t *testing.T) {
	m, err := accmos.LoadModel(filepath.Join("models", "SPV.xml"))
	if err != nil {
		t.Fatal(err)
	}
	cache := accmos.NewBuildCache(t.TempDir())
	defer cache.Remove()
	tr := accmos.NewTracer()
	for _, job := range []struct {
		steps int64
		seed  uint64
	}{{500, 1}, {600, 1}, {600, 2}} {
		opts := accmos.Options{
			Steps: job.steps, Coverage: true, Diagnose: true,
			TestCases: accmos.RandomTestCases(m, job.seed, -1, 1),
		}
		ref, err := accmos.Interpret(m, opts)
		if err != nil {
			t.Fatal(err)
		}
		opts.Cache, opts.Trace = cache, tr
		res, err := accmos.Simulate(m, opts)
		if err != nil {
			t.Fatal(err)
		}
		if d := simresult.Diff(res.Results, ref.Results); d != "" {
			t.Errorf("%d steps, seed %d: generated vs interpreter: %s", job.steps, job.seed, d)
		}
	}
	if gc, link := len(tr.Trace().Find("compile.gc")), len(tr.Trace().Find("compile.link")); gc != 1 || link != 1 {
		t.Errorf("three parameter-only jobs recorded %d compile.gc and %d compile.link spans, want 1 and 1", gc, link)
	}
}
