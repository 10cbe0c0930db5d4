package accmos_test

import (
	"context"
	"fmt"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	accmos "accmos"
	"accmos/internal/benchmodels"
	"accmos/internal/model"
	"accmos/internal/types"
)

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
		DisableBatch:  true, // per-suite snapshot tagging is a per-run-path contract
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
