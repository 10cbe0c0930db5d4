package accmos_test

import (
	"reflect"
	"testing"

	accmos "accmos"
	"accmos/internal/benchmodels"
	"accmos/internal/diagnose"
)

// TestServeModeMatchesOneShot is the acceptance gate for the warm worker
// pool: a sweep executed through serve-mode workers must be bit-identical
// to the spawn-per-run executor — same output hashes, same coverage
// bitmaps, same diagnosis aggregates, per run and merged — at every opt
// level. The pool is a pure scheduling/amortization change; any drift
// here means modelReset failed to restore some piece of generated state
// between requests.
func TestServeModeMatchesOneShot(t *testing.T) {
	cases := []struct {
		name  string
		model *accmos.Model
		steps int64
		diag  bool
	}{
		// CSEV carries data stores — serve mode must zero them between
		// runs, or run N's charge state leaks into run N+1.
		{"CSEV", benchmodels.MustBuild("CSEV"), 1500, true},
		// CSEVINJ fires both injected errors (the latent overflow lands
		// near step 2147 at chargeRate 1e6), so the diagnosis counters,
		// first-detect steps and records all carry state worth resetting.
		{"CSEVInjected", benchmodels.CSEVInjected(1_000_000), 3000, true},
		// The rare-branch switch model exercises coverage-bitmap resets:
		// a leaked bitmap would inflate later runs' coverage.
		{"SweepModel", sweepModel(), 400, false},
	}
	seeds := []uint64{0, 1, 0xDEAD, 0xBEEF, 42, 0xF00D}
	for _, tc := range cases {
		for _, lvl := range []accmos.OptLevel{accmos.OptO0, accmos.OptO1, accmos.OptO2} {
			t.Run(tc.name+"/"+lvl.String(), func(t *testing.T) {
				opts := accmos.Options{
					Steps:       tc.steps,
					Diagnose:    tc.diag,
					OptLevel:    lvl,
					TestCases:   accmos.RandomTestCases(tc.model, 77, -100, 100),
					Parallelism: 1,
				}
				oneShot, err := accmos.Sweep(tc.model, opts, seeds)
				if err != nil {
					t.Fatal(err)
				}
				pooled := opts
				pooled.DisableBatch = true // force per-run serve frames; oneShot took the batch path
				served, err := accmos.Sweep(tc.model, pooled, seeds)
				if err != nil {
					t.Fatal(err)
				}
				if len(oneShot.Runs) != len(seeds) || len(served.Runs) != len(seeds) {
					t.Fatalf("runs: one-shot %d, served %d, want %d",
						len(oneShot.Runs), len(served.Runs), len(seeds))
				}
				for i := range seeds {
					a, b := oneShot.Runs[i], served.Runs[i]
					if a.OutputHash != b.OutputHash {
						t.Errorf("run %d: output hash %x (one-shot) vs %x (served)",
							i, a.OutputHash, b.OutputHash)
					}
					if a.Steps != b.Steps {
						t.Errorf("run %d: steps %d vs %d", i, a.Steps, b.Steps)
					}
					// A batch reports coverage once, OR-merged over its
					// lanes (checked against the per-run fold below);
					// per-run bitmaps exist only on the per-run path.
					if a.Results.Coverage != nil {
						t.Errorf("run %d: batched lane carries per-run coverage", i)
					}
					if b.Results.Coverage == nil {
						t.Errorf("run %d: per-run serve path dropped coverage", i)
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
					if a.WorkerReuse {
						t.Errorf("run %d: one-shot run claims worker reuse", i)
					}
					if b.WorkerReuse != (i > 0) {
						t.Errorf("run %d: served WorkerReuse = %v, want %v (single sequential worker)",
							i, b.WorkerReuse, i > 0)
					}
				}
				if oneShot.MergedCoverage() != served.MergedCoverage() {
					t.Errorf("merged coverage diverges: %+v vs %+v",
						oneShot.MergedCoverage(), served.MergedCoverage())
				}
			})
		}
	}
}

// TestServeModeResetsMonitorAndCustomState covers the generated state the
// sweep test cannot reach: signal-monitor samples/hits and custom-check
// latches. Three pooled Simulate calls reuse one worker; every repeat
// must reproduce the fresh process's results exactly.
func TestServeModeResetsMonitorAndCustomState(t *testing.T) {
	m := demoModel()
	pool := accmos.NewWorkerPool(1)
	defer pool.Close()
	opts := accmos.Options{
		Steps:    2000,
		Coverage: true,
		Diagnose: true,
		Monitor:  []string{"Acc"},
		Custom: []accmos.CustomCheck{
			{Actor: "Acc", Name: "acc-range", Kind: diagnose.RangeCheck, Lo: -1e7, Hi: 1e7},
			{Actor: "Acc", Name: "acc-delta", Kind: diagnose.DeltaCheck, MaxDelta: 500},
		},
		TestCases: accmos.RandomTestCases(m, 9, 1e3, 2e3),
	}
	want, err := accmos.Simulate(m, opts)
	if err != nil {
		t.Fatal(err)
	}
	if want.DiagTotal == 0 {
		t.Fatal("the custom checks should fire; the test would prove nothing")
	}
	if len(want.Results.Monitor["Acc"]) == 0 {
		t.Fatal("no monitor samples recorded")
	}

	pooledOpts := opts
	pooledOpts.Pool = pool
	for round := 0; round < 3; round++ {
		got, err := accmos.Simulate(m, pooledOpts)
		if err != nil {
			t.Fatal(err)
		}
		if got.WorkerReuse != (round > 0) {
			t.Errorf("round %d: WorkerReuse = %v, want %v", round, got.WorkerReuse, round > 0)
		}
		if got.OutputHash != want.OutputHash {
			t.Errorf("round %d: output hash diverged", round)
		}
		if got.DiagTotal != want.DiagTotal {
			t.Errorf("round %d: diag total %d, want %d", round, got.DiagTotal, want.DiagTotal)
		}
		if !reflect.DeepEqual(got.DiagCounts, want.DiagCounts) {
			t.Errorf("round %d: diag counts %v, want %v", round, got.DiagCounts, want.DiagCounts)
		}
		if !reflect.DeepEqual(got.FirstDetect, want.FirstDetect) {
			t.Errorf("round %d: first-detect %v, want %v", round, got.FirstDetect, want.FirstDetect)
		}
		if !reflect.DeepEqual(got.Results.Monitor, want.Results.Monitor) {
			t.Errorf("round %d: monitor samples diverged", round)
		}
		if !reflect.DeepEqual(got.Results.MonitorHits, want.Results.MonitorHits) {
			t.Errorf("round %d: monitor hits %v, want %v", round, got.Results.MonitorHits, want.Results.MonitorHits)
		}
		if !reflect.DeepEqual(got.Results.Coverage, want.Results.Coverage) {
			t.Errorf("round %d: coverage bitmaps diverged", round)
		}
		if got.CoverageReport() != want.CoverageReport() {
			t.Errorf("round %d: coverage report %+v, want %+v", round, got.CoverageReport(), want.CoverageReport())
		}
	}
	if st := pool.Stats(); st.Spawns != 1 || st.Reuses != 2 {
		t.Errorf("three sequential pooled runs should share one worker: %+v", st)
	}
}

// TestSweepSharedPoolAcrossCalls is the accmosd usage shape: one
// externally owned pool serving multiple Sweep calls over the same model,
// so even the first run of a later sweep reuses a warm worker.
func TestSweepSharedPoolAcrossCalls(t *testing.T) {
	m := sweepModel()
	pool := accmos.NewWorkerPool(1)
	defer pool.Close()
	opts := accmos.Options{
		Steps:       300,
		TestCases:   accmos.RandomTestCases(m, 77, -100, 100),
		Parallelism: 1,
		Pool:        pool,
	}
	seeds := []uint64{1, 2, 3}
	first, err := accmos.Sweep(m, opts, seeds)
	if err != nil {
		t.Fatal(err)
	}
	second, err := accmos.Sweep(m, opts, seeds)
	if err != nil {
		t.Fatal(err)
	}
	if !second.Runs[0].WorkerReuse {
		t.Error("the second sweep's first run should hit the warm worker")
	}
	for i := range seeds {
		if first.Runs[i].OutputHash != second.Runs[i].OutputHash {
			t.Errorf("run %d: repeated sweep diverged", i)
		}
	}
	st := pool.Stats()
	// Step-bounded sweeps route through the batch entry point: one
	// request per sweep, with the second hitting the warm worker.
	if st.Spawns != 1 || st.Reuses != 1 || st.Batches != 2 {
		t.Errorf("one worker should serve both sweeps: %+v", st)
	}
}
