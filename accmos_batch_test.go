package accmos_test

import (
	"context"
	"reflect"
	"strings"
	"testing"
	"time"

	accmos "accmos"
	"accmos/internal/coverage"
	"accmos/internal/diagnose"
	"accmos/internal/harness"
	"accmos/internal/simresult"
	"accmos/internal/testcase"
)

// xorSuite copies tcs with every uniform source seed XORed by xor — the
// exact perturbation a batch lane's seedXor (and a single run request's)
// applies to its embedded seeds — so the interpreted engines can replay
// any lane as a standalone run.
func xorSuite(tcs *accmos.TestCases, xor uint64) *accmos.TestCases {
	out := &accmos.TestCases{Sources: append([]testcase.Source(nil), tcs.Sources...)}
	for i := range out.Sources {
		if out.Sources[i].Kind == testcase.Uniform {
			out.Sources[i].Seed ^= xor
		}
	}
	return out
}

// laneRuns builds m under opts as Sweep does and runs seeds on one warm
// worker twice: as multi-lane WorkerPool.RunBatch requests of per lanes
// each, and as one single-lane RunContext request per seed. It returns the
// lanes, the OR of the batches' coverage, and the single runs.
func laneRuns(t *testing.T, m *accmos.Model, opts accmos.Options, seeds []uint64, per int) (lanes []*simresult.Results, laneCov *coverage.Raw, singles []*simresult.Results) {
	t.Helper()
	bin, layout, err := accmos.SweepProgram(m, opts)
	if err != nil {
		t.Fatal(err)
	}
	pool := accmos.NewWorkerPool(1)
	defer pool.Close()
	ro := harness.RunOptions{Steps: opts.Steps, Model: m.Name}
	laneCov = layout.NewRaw()
	for lo := 0; lo < len(seeds); lo += per {
		batch := seeds[lo:min(lo+per, len(seeds))]
		res, cov, _, err := pool.RunBatch(context.Background(), bin, ro, batch)
		if err != nil {
			t.Fatal(err)
		}
		if len(res) != len(batch) {
			t.Fatalf("batch at %d: %d lanes, want %d", lo, len(res), len(batch))
		}
		if err := laneCov.Merge(cov); err != nil {
			t.Fatal(err)
		}
		lanes = append(lanes, res...)
	}
	for _, seed := range seeds {
		ro.SeedXor = seed
		res, _, err := pool.RunContext(context.Background(), bin, ro)
		if err != nil {
			t.Fatal(err)
		}
		singles = append(singles, res)
	}
	return lanes, laneCov, singles
}

// matchLanes checks each lane against its single run on every field
// simresult.Diff compares, and the lanes' OR-merged coverage against the
// OR of the single runs' bitmaps. A batch reports coverage once, so the
// lanes themselves carry none.
func matchLanes(t *testing.T, seeds []uint64, lanes []*simresult.Results, laneCov *coverage.Raw, singles []*simresult.Results) {
	t.Helper()
	var merged *coverage.Raw
	for i, single := range singles {
		if single.Coverage == nil {
			t.Fatalf("seed %#x: single run carries no coverage", seeds[i])
		}
		if merged == nil {
			merged = &coverage.Raw{
				Actor: make([]byte, len(single.Coverage.Actor)),
				Cond:  make([]byte, len(single.Coverage.Cond)),
				Dec:   make([]byte, len(single.Coverage.Dec)),
				MCDC:  make([]byte, len(single.Coverage.MCDC)),
			}
		}
		if err := merged.Merge(single.Coverage); err != nil {
			t.Fatal(err)
		}
		if lanes[i].Coverage != nil {
			t.Errorf("seed %#x: lane carries per-lane coverage", seeds[i])
		}
		bare := *single
		bare.Coverage = nil
		if d := simresult.Diff(lanes[i], &bare); d != "" {
			t.Errorf("seed %#x: lane vs single run: %s", seeds[i], d)
		}
	}
	if !reflect.DeepEqual(laneCov, merged) {
		t.Errorf("lanes' merged coverage %+v differs from the single runs' %+v", laneCov, merged)
	}
}

// TestBatchMatchesSequentialAllEngines is the acceptance gate for
// WorkerPool.RunBatch: every lane of a multi-lane request must be
// bit-identical to a single-lane request for its seed, and to the three
// interpreted engines replaying the same perturbed suite, at every opt
// level. Lanes run back to back over shared monotone coverage bitmaps;
// any drift means a lane leaked state into another.
func TestBatchMatchesSequentialAllEngines(t *testing.T) {
	m := sweepModel()
	// Ten seeds in two requests of five lanes, so the worker also resets
	// between batch requests.
	seeds := []uint64{0, 1, 0xDEAD, 0xBEEF, 42, 0xF00D, 7, 0xFEED, 0xA5A5, 3}
	for _, lvl := range []accmos.OptLevel{accmos.OptO0, accmos.OptO1, accmos.OptO2} {
		t.Run(lvl.String(), func(t *testing.T) {
			opts := accmos.Options{
				Steps:     400,
				Diagnose:  true,
				OptLevel:  lvl,
				TestCases: accmos.RandomTestCases(m, 77, -100, 100),
			}
			lanes, laneCov, singles := laneRuns(t, m, opts, seeds, 5)
			matchLanes(t, seeds, lanes, laneCov, singles)

			// Cross-engine oracle: every lane equals the interpreted
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
					if r.OutputHash != lanes[i].OutputHash {
						t.Errorf("seed %#x: %s hash %x vs lane %x",
							xor, eng.name, r.OutputHash, lanes[i].OutputHash)
					}
					if r.Steps != lanes[i].Steps {
						t.Errorf("seed %#x: %s steps %d vs lane %d",
							xor, eng.name, r.Steps, lanes[i].Steps)
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

// TestBatchedLanesStopOnMonitorAndCustom: lanes run back to back through
// the single-run loop, so a lane that stops early, records monitor
// samples or latches a custom check must leave nothing behind for the
// next lane. Lanes stop at seed-dependent steps on the first custom
// finding; each must match its single-lane run on every field
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
		StopOnDiag: diagnose.Custom,
		TestCases:  accmos.RandomTestCases(m, 77, -100, 100),
	}
	lanes, laneCov, singles := laneRuns(t, m, opts, seeds, 6) // two batches of six lanes
	matchLanes(t, seeds, lanes, laneCov, singles)
	stopSteps := map[int64]bool{}
	for i, a := range lanes {
		if a.MonitorHits["Acc"] != a.Steps || len(a.Monitor["Acc"]) == 0 {
			t.Errorf("seed %#x: %d monitor hits, %d samples over %d steps",
				seeds[i], a.MonitorHits["Acc"], len(a.Monitor["Acc"]), a.Steps)
		}
		if a.Steps < opts.Steps {
			stopSteps[a.Steps] = true
		}
	}
	if len(stopSteps) < 2 {
		t.Errorf("lanes stopped early at %v; the test needs lanes stopping at different steps", stopSteps)
	}
}

// TestStopOnLastStepOfChunk: a stop-on diagnosis that fires on the last
// step of a runtime chunk (step 1023) ends the generated run there, as it
// ends the interpreter's, both in a single run and in batched lanes. The
// accumulator counts 1 per step, so it first exceeds 1023 at step 1023.
func TestStopOnLastStepOfChunk(t *testing.T) {
	m := demoModel()
	opts := accmos.Options{
		Steps:      2500,
		Diagnose:   true,
		Custom:     []accmos.CustomCheck{{Actor: "Acc", Name: "acc-cap", Kind: diagnose.RangeCheck, Lo: -1, Hi: 1023}},
		StopOnDiag: diagnose.Custom,
		TestCases:  &accmos.TestCases{Sources: []accmos.TestSource{{Value: 1}}},
	}
	ref, err := accmos.Interpret(m, opts)
	if err != nil {
		t.Fatal(err)
	}
	if ref.Steps != 1024 {
		t.Fatalf("interpreter ran %d steps, want 1024", ref.Steps)
	}
	sim, err := accmos.Simulate(m, opts)
	if err != nil {
		t.Fatal(err)
	}
	if d := simresult.Diff(sim.Results, ref.Results); d != "" {
		t.Errorf("generated run vs interpreter: %s", d)
	}
	seeds := []uint64{0, 1, 2, 3}
	lanes, laneCov, singles := laneRuns(t, m, opts, seeds, len(seeds))
	matchLanes(t, seeds, lanes, laneCov, singles)
	refLane := *ref.Results
	refLane.Coverage = nil
	for i, r := range lanes {
		if d := simresult.Diff(r, &refLane); d != "" {
			t.Errorf("lane %d vs interpreter: %s", i, d)
		}
	}
}
