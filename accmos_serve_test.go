package accmos_test

import (
	"context"
	"testing"

	accmos "accmos"
	"accmos/internal/benchmodels"
	"accmos/internal/coverage"
	"accmos/internal/diagnose"
	"accmos/internal/harness"
	"accmos/internal/simresult"
)

// TestServeModeMatchesOneShot is the acceptance gate for the warm worker
// pool: a sweep whose suites all run on one warm serve-mode worker must be
// bit-identical to one-suite sweeps, each on a fresh worker that serves a
// single request — same output hashes, same coverage bitmaps, same
// diagnosis aggregates, per run — at every opt level. The pool
// is a pure scheduling/amortization change; any drift here means
// modelReset failed to restore some piece of generated state between
// requests.
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
				served, err := accmos.Sweep(tc.model, opts, seeds)
				if err != nil {
					t.Fatal(err)
				}
				if len(served.Runs) != len(seeds) {
					t.Fatalf("runs: served %d, want %d", len(served.Runs), len(seeds))
				}
				for i, seed := range seeds {
					// A one-suite sweep runs on a pool of its own: a fresh
					// worker serving exactly one request.
					oneShot, err := accmos.Sweep(tc.model, opts, []uint64{seed})
					if err != nil {
						t.Fatal(err)
					}
					a, b := oneShot.Runs[0], served.Runs[i]
					if d := simresult.Diff(a.Results, b.Results); d != "" {
						t.Errorf("run %d: one-shot vs served: %s", i, d)
					}
					if a.Results.Coverage == nil || b.Results.Coverage == nil {
						t.Errorf("run %d: a sweep run dropped its coverage", i)
					}
					if a.WorkerReuse {
						t.Errorf("run %d: one-shot run claims worker reuse", i)
					}
					if b.WorkerReuse != (i > 0) {
						t.Errorf("run %d: served WorkerReuse = %v, want %v (single sequential worker)",
							i, b.WorkerReuse, i > 0)
					}
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
		if d := simresult.Diff(got.Results, want.Results); d != "" {
			t.Errorf("round %d: pooled run diverged from the fresh process: %s", round, d)
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
	// Every suite is one request: six requests on one worker, all but
	// the first served warm.
	if st.Spawns != 1 || st.Reuses != 5 {
		t.Errorf("one worker should serve both sweeps: %+v", st)
	}
}

// TestBackToBackRequestsMatchFreshProcess: requests with different seeds
// served back to back on one pooled worker each equal a fresh process's
// run of that seed, coverage included, at every opt level. The runtime
// clears coverage at the start of every request; a worker that kept an
// earlier run's bits would fail here, because some later seed covers
// less than an earlier one.
func TestBackToBackRequestsMatchFreshProcess(t *testing.T) {
	m := sweepModel()
	seeds := []uint64{0, 1, 0xDEAD, 0xBEEF, 42, 0xF00D, 7, 3}
	for _, lvl := range []accmos.OptLevel{accmos.OptO0, accmos.OptO1, accmos.OptO2} {
		t.Run(lvl.String(), func(t *testing.T) {
			opts := accmos.Options{Steps: 60, OptLevel: lvl, TestCases: accmos.RandomTestCases(m, 77, -100, 100)}
			bin, layout, err := accmos.SweepProgram(m, opts)
			if err != nil {
				t.Fatal(err)
			}
			pool := accmos.NewWorkerPool(1)
			defer pool.Close()
			ctx := context.Background()
			seen := layout.NewRaw() // the OR of the earlier seeds' coverage
			shrinks := false
			for i, seed := range seeds {
				ro := harness.RunOptions{Steps: opts.Steps, SeedXor: seed, Model: m.Name}
				served, reused, err := pool.RunContext(ctx, bin, ro)
				if err != nil {
					t.Fatal(err)
				}
				fresh, err := harness.RunContext(ctx, bin, ro)
				if err != nil {
					t.Fatal(err)
				}
				if reused != (i > 0) {
					t.Errorf("seed %#x: reused = %v on the one pooled worker", seed, reused)
				}
				if fresh.Coverage == nil {
					t.Fatalf("seed %#x: the fresh run carries no coverage", seed)
				}
				if d := simresult.Diff(served, fresh); d != "" {
					t.Errorf("seed %#x after %d requests: served vs fresh process: %s", seed, i, d)
				}
				shrinks = shrinks || covers(seen, fresh.Coverage)
				if err := seen.Merge(fresh.Coverage); err != nil {
					t.Fatal(err)
				}
			}
			if !shrinks {
				t.Error("no seed covers less than the seeds before it; the test cannot see leaked coverage")
			}
		})
	}
}

// covers reports whether a holds a coverage bit that b lacks.
func covers(a, b *coverage.Raw) bool {
	for _, pair := range [][2][]byte{{a.Actor, b.Actor}, {a.Cond, b.Cond}, {a.Dec, b.Dec}, {a.MCDC, b.MCDC}} {
		for i, x := range pair[0] {
			if x != 0 && pair[1][i] == 0 {
				return true
			}
		}
	}
	return false
}
