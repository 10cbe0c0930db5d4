package accmos_test

import (
	"context"
	"reflect"
	"strings"
	"testing"
	"time"

	accmos "accmos"
	"accmos/internal/diagnose"
	"accmos/internal/simresult"
	"accmos/internal/testcase"
)

// xorSuite copies tcs with every uniform source seed XORed by xor — the
// exact perturbation a batch lane's seedXor (and a single run request's)
// applies to its embedded seeds — so the interpreted
// engines can replay any sweep lane as a standalone run.
func xorSuite(tcs *accmos.TestCases, xor uint64) *accmos.TestCases {
	out := &accmos.TestCases{Sources: append([]testcase.Source(nil), tcs.Sources...)}
	for i := range out.Sources {
		if out.Sources[i].Kind == testcase.Uniform {
			out.Sources[i].Seed ^= xor
		}
	}
	return out
}

// TestBatchMatchesSequentialAllEngines is the acceptance gate for the
// batch path: a default Sweep (which sends step-bounded suites as batch
// requests) must be bit-identical
// to the per-run executor — and every lane must also match the three
// interpreted engines replaying the same perturbed suite — at every opt
// level. Batching is a pure scheduling change over shared monotone
// coverage bitmaps; any drift means a lane leaked state into another.
func TestBatchMatchesSequentialAllEngines(t *testing.T) {
	m := sweepModel()
	// Ten seeds with Parallelism 2 split into two batch chunks, so the
	// chunk partitioning and result reassembly are exercised too.
	seeds := []uint64{0, 1, 0xDEAD, 0xBEEF, 42, 0xF00D, 7, 0xFEED, 0xA5A5, 3}
	for _, lvl := range []accmos.OptLevel{accmos.OptO0, accmos.OptO1, accmos.OptO2} {
		t.Run(lvl.String(), func(t *testing.T) {
			opts := accmos.Options{
				Steps:       400,
				Diagnose:    true,
				OptLevel:    lvl,
				TestCases:   accmos.RandomTestCases(m, 77, -100, 100),
				Parallelism: 2,
			}
			batched, err := accmos.Sweep(m, opts, seeds)
			if err != nil {
				t.Fatal(err)
			}
			seq := opts
			seq.DisableBatch = true
			seq.Parallelism = 1
			sequential, err := accmos.Sweep(m, seq, seeds)
			if err != nil {
				t.Fatal(err)
			}
			if len(batched.Runs) != len(seeds) || len(sequential.Runs) != len(seeds) {
				t.Fatalf("runs: batched %d, sequential %d, want %d",
					len(batched.Runs), len(sequential.Runs), len(seeds))
			}
			for i := range seeds {
				a, b := batched.Runs[i], sequential.Runs[i]
				if !a.Batched {
					t.Errorf("run %d: default step-bounded sweep skipped the batch path", i)
				}
				if b.Batched {
					t.Errorf("run %d: DisableBatch run claims batching", i)
				}
				// A batch reports coverage once, OR-merged over its lanes;
				// per-run bitmaps (and reports) exist only per-run.
				if a.Results.Coverage != nil {
					t.Errorf("run %d: batched lane carries per-run coverage", i)
				}
				if a.CoverageReport() != (accmos.CoverageReport{}) {
					t.Errorf("run %d: batched lane coverage report should be zero, got %+v",
						i, a.CoverageReport())
				}
				if a.OutputHash != b.OutputHash {
					t.Errorf("run %d: output hash %x (batched) vs %x (sequential)",
						i, a.OutputHash, b.OutputHash)
				}
				if a.Steps != b.Steps {
					t.Errorf("run %d: steps %d vs %d", i, a.Steps, b.Steps)
				}
				if a.DiagTotal != b.DiagTotal {
					t.Errorf("run %d: diag totals %d vs %d", i, a.DiagTotal, b.DiagTotal)
				}
				if !reflect.DeepEqual(a.DiagCounts, b.DiagCounts) {
					t.Errorf("run %d: diag counts %v vs %v", i, a.DiagCounts, b.DiagCounts)
				}
				if !reflect.DeepEqual(a.FirstDetect, b.FirstDetect) {
					t.Errorf("run %d: first-detect steps %v vs %v", i, a.FirstDetect, b.FirstDetect)
				}
			}
			if batched.MergedCoverage() != sequential.MergedCoverage() {
				t.Errorf("merged coverage diverges: %+v (batched) vs %+v (sequential)",
					batched.MergedCoverage(), sequential.MergedCoverage())
			}

			// Cross-engine oracle: every batch lane equals the interpreted
			// engines running the identically perturbed suite.
			engines := []struct {
				name string
				run  func(*accmos.Model, accmos.Options) (*accmos.Result, error)
			}{
				{"Interpret", accmos.Interpret},
				{"Accelerate", accmos.Accelerate},
				{"RapidAccelerate", accmos.RapidAccelerate},
			}
			for i, xor := range seeds {
				eo := accmos.Options{
					Steps:     opts.Steps,
					Diagnose:  true,
					Coverage:  true,
					OptLevel:  lvl,
					TestCases: xorSuite(opts.TestCases, xor),
				}
				for _, eng := range engines {
					r, err := eng.run(m, eo)
					if err != nil {
						t.Fatalf("%s seed %#x: %v", eng.name, xor, err)
					}
					if r.OutputHash != batched.Runs[i].OutputHash {
						t.Errorf("seed %#x: %s hash %x vs batched lane %x",
							xor, eng.name, r.OutputHash, batched.Runs[i].OutputHash)
					}
					if r.Steps != batched.Runs[i].Steps {
						t.Errorf("seed %#x: %s steps %d vs batched lane %d",
							xor, eng.name, r.Steps, batched.Runs[i].Steps)
					}
				}
			}
		})
	}
}

// TestPooledStepsAndBudgetTogether: a run carrying BOTH a step count and
// a wall-clock budget must honor the step bound on the serve path too.
// The serve request frame carries steps and budgetMs together, the same
// pair spawn-per-run passes as flags; a frame that dropped either bound
// would run budget-only (far past 500 steps) and diverge.
func TestPooledStepsAndBudgetTogether(t *testing.T) {
	m := sweepModel()
	opts := accmos.Options{
		Steps:     500,
		Budget:    30 * time.Second, // ample: the step bound must fire first
		Coverage:  true,
		TestCases: accmos.RandomTestCases(m, 9, -100, 100),
	}
	spawn, err := accmos.Simulate(m, opts)
	if err != nil {
		t.Fatal(err)
	}
	if spawn.Steps != 500 {
		t.Fatalf("spawn run ignored the step bound: %d steps", spawn.Steps)
	}
	pool := accmos.NewWorkerPool(1)
	defer pool.Close()
	pooled := opts
	pooled.Pool = pool
	for round := 0; round < 2; round++ {
		got, err := accmos.Simulate(m, pooled)
		if err != nil {
			t.Fatal(err)
		}
		if got.Steps != 500 {
			t.Errorf("round %d: serve frame dropped the step bound: %d steps", round, got.Steps)
		}
		if got.OutputHash != spawn.OutputHash {
			t.Errorf("round %d: steps+budget run diverged between spawn and serve", round)
		}
		if got.WorkerReuse != (round > 0) {
			t.Errorf("round %d: WorkerReuse = %v", round, got.WorkerReuse)
		}
	}
}

// TestSweepCancelReturnsPartialSweep: cancellation must surface an error
// AND a well-formed partial SweepResult — unfinished suites leave nil
// entries in Runs that callers can skip, and the merged coverage (over
// whatever completed) stays usable.
func TestSweepCancelReturnsPartialSweep(t *testing.T) {
	m := sweepModel()
	opts := accmos.Options{
		Steps:       1 << 40, // effectively endless: only the cancel ends it
		TestCases:   accmos.RandomTestCases(m, 77, -100, 100),
		Parallelism: 2,
	}
	seeds := []uint64{1, 2, 3, 4}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(300 * time.Millisecond)
		cancel()
	}()
	sw, err := accmos.SweepContext(ctx, m, opts, seeds)
	if err == nil {
		t.Fatal("a cancelled sweep must return an error")
	}
	if !strings.Contains(err.Error(), "context canceled") {
		t.Errorf("error must name the cancellation: %v", err)
	}
	if sw == nil {
		t.Fatal("cancellation must still return the partial sweep")
	}
	if len(sw.Runs) != len(seeds) {
		t.Fatalf("partial sweep has %d run slots, want %d", len(sw.Runs), len(seeds))
	}
	for i, run := range sw.Runs {
		if run == nil {
			continue // unfinished suite: the documented nil slot
		}
		if run.OutputHash == 0 && run.Steps == 0 {
			t.Errorf("run %d: non-nil slot with empty results", i)
		}
	}
	if rep := sw.MergedCoverage(); rep.ActorCovered < 0 {
		t.Errorf("merged coverage of a partial sweep must stay well-formed: %+v", rep)
	}

	// A context canceled before the sweep starts completes no suite.
	pre, preCancel := context.WithCancel(context.Background())
	preCancel()
	sw, err = accmos.SweepContext(pre, m, accmos.Options{
		Steps:     400,
		TestCases: accmos.RandomTestCases(m, 77, -100, 100),
	}, seeds)
	if err == nil {
		t.Fatal("a pre-canceled sweep must return an error")
	}
	if sw == nil || len(sw.Runs) != len(seeds) {
		t.Fatalf("pre-canceled sweep result malformed: %+v", sw)
	}
	for i, run := range sw.Runs {
		if run != nil {
			t.Errorf("run %d completed under a pre-canceled context", i)
		}
	}
	if rep := sw.MergedCoverage(); rep.ActorCovered != 0 {
		t.Errorf("no suite ran; merged coverage should be empty: %+v", rep)
	}
}

// TestBatchedLanesStopOnMonitorAndCustom: batched lanes run back to back
// through the single-run loop, so a lane that stops early, records
// monitor samples or latches a custom check must leave nothing behind
// for the next lane. Lanes stop at seed-dependent steps on the first
// custom finding; each must match its DisableBatch run on every field
// simresult.Diff compares, and the merged coverage must agree.
func TestBatchedLanesStopOnMonitorAndCustom(t *testing.T) {
	m := demoModel()
	seeds := []uint64{0, 1, 2, 3, 0xDEAD, 0xBEEF, 42, 0xF00D, 7, 0xFEED, 0xA5A5, 9}
	opts := accmos.Options{
		Steps:    2000,
		Diagnose: true,
		Monitor:  []string{"Acc"},
		Custom: []accmos.CustomCheck{
			{Actor: "Acc", Name: "acc-range", Kind: diagnose.RangeCheck, Lo: -400, Hi: 400},
			{Actor: "Acc", Name: "acc-delta", Kind: diagnose.DeltaCheck, MaxDelta: 97},
		},
		StopOnDiag:  diagnose.Custom,
		TestCases:   accmos.RandomTestCases(m, 77, -100, 100),
		Parallelism: 2, // two batches of six lanes
	}
	batched, err := accmos.Sweep(m, opts, seeds)
	if err != nil {
		t.Fatal(err)
	}
	seq := opts
	seq.DisableBatch = true
	sequential, err := accmos.Sweep(m, seq, seeds)
	if err != nil {
		t.Fatal(err)
	}
	stopSteps := map[int64]bool{}
	for i := range seeds {
		a, b := batched.Runs[i], sequential.Runs[i]
		if !a.Batched || b.Batched {
			t.Fatalf("run %d: Batched %v (batched sweep), %v (DisableBatch)", i, a.Batched, b.Batched)
		}
		// A batched lane reports coverage only in the merged record.
		single := *b.Results
		single.Coverage = nil
		if d := simresult.Diff(a.Results, &single); d != "" {
			t.Errorf("seed %#x: batched lane vs DisableBatch run: %s", seeds[i], d)
		}
		if a.MonitorHits["Acc"] != a.Steps || len(a.Results.Monitor["Acc"]) == 0 {
			t.Errorf("seed %#x: %d monitor hits, %d samples over %d steps",
				seeds[i], a.MonitorHits["Acc"], len(a.Results.Monitor["Acc"]), a.Steps)
		}
		if a.Steps < opts.Steps {
			stopSteps[a.Steps] = true
		}
	}
	if len(stopSteps) < 2 {
		t.Errorf("lanes stopped early at %v; the test needs lanes stopping at different steps", stopSteps)
	}
	if batched.MergedCoverage() != sequential.MergedCoverage() {
		t.Errorf("merged coverage diverges: %+v (batched) vs %+v (sequential)",
			batched.MergedCoverage(), sequential.MergedCoverage())
	}
}
