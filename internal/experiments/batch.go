package experiments

import (
	"context"
	"fmt"
	"time"

	"accmos/internal/harness"
	"accmos/internal/simresult"
)

// BatchRow is one (model, suite size, mode) measurement from the batched
// lane-execution benchmark: the same short-horizon sweep executed as one
// per-run serve frame per seed through a warm worker, and as a single
// batch request over the same worker. Per-lane stepping is identical in
// both modes (the same runSim loop), so the wall-clock gap is the
// per-run frame round-trip plus result encode/decode the batch
// amortizes.
type BatchRow struct {
	Model string
	Mode  string // "pooled" | "batch"
	Runs  int    // suite size (lanes per batch request)
	Steps int64

	Wall    time.Duration // whole-sweep wall clock for this mode
	Compile time.Duration // one-time compile (shared by both modes)

	// Speedup is pooled-mode wall over batch wall; SpeedupOK reports the
	// batch sweep cleared the 5x acceptance bar AND was bit-identical
	// (set on batch rows). HashOK alone reports the per-seed output
	// hashes matched across modes.
	Speedup   float64
	SpeedupOK bool
	HashOK    bool
}

// batchSuites are the sweep widths measured: the small end shows batch
// still wins at modest fan-out, the large end is the Table-2 sweep-scale
// case where per-run framing dominates a short-horizon suite.
var batchSuites = []int{16, 256}

// batchMaxSteps caps the per-run horizon: batching amortizes per-run
// serve-frame round-trips, which are only a visible fraction of runs
// short enough that stepping does not dominate (stepping itself is
// identical work in both modes, so longer horizons only dilute the
// quantity under measurement).
const batchMaxSteps = 4

// batchSpeedupBar is the acceptance threshold: the aggregate sweep
// total (all models, both suite widths) must clear it. Per-row speedups
// wobble with scheduler noise on small suites; the committed claim is
// about the total, so that is what SpeedupOK asserts (on the TOTAL row)
// alongside every row's hash equivalence.
const batchSpeedupBar = 5.0

// BenchBatch measures batched lane execution: each configured
// model is compiled once, then for each suite size the sweep executes
// twice over a single warm serve-mode worker — one serve frame per seed,
// and one batch request covering every seed — with per-seed output
// hashes compared across modes. The worker is warmed (spawned and
// exercised) before either clock starts and both modes run strictly
// sequentially on it, so the comparison isolates per-run framing
// overhead: request/response frames, per-run scheduling, and per-run
// result handling that one batch request amortizes across all lanes.
func BenchBatch(cfg Config) ([]BatchRow, error) {
	cfg.fillDefaults()
	steps := cfg.Steps
	if steps > batchMaxSteps {
		steps = batchMaxSteps
	}

	var rows []BatchRow
	var pooledTotal, batchTotal time.Duration
	allHashOK := true
	for _, name := range cfg.Models {
		bin, layout, compileTime, err := cfg.buildForPool(name)
		if err != nil {
			return nil, err
		}

		pool := harness.NewWorkerPool(1)
		for _, runs := range batchSuites {
			seeds := make([]uint64, runs)
			for i := range seeds {
				seeds[i] = cfg.Seed + uint64(i)*0x9E3779B97F4A7C15
			}
			ro := harness.RunOptions{Steps: steps, Model: name, Timeout: cfg.Timeout}

			// Warm the worker outside both clocks: the one-time process
			// spawn is the serve pool's amortization (measured by the
			// serve benchmark), not the per-run framing measured here.
			warm := ro
			warm.SeedXor = seeds[0]
			if _, _, err := pool.RunContext(context.Background(), bin, warm); err != nil {
				pool.Close()
				return nil, fmt.Errorf("%s warmup: %w", name, err)
			}

			// Per-run baseline: one serve frame per seed on the warm
			// worker, sequentially.
			pooled := make([]*simresult.Results, runs)
			pooledCov := layout.NewRaw()
			start := time.Now()
			for i, seed := range seeds {
				o := ro
				o.SeedXor = seed
				res, _, err := pool.RunContext(context.Background(), bin, o)
				if err != nil {
					pool.Close()
					return nil, fmt.Errorf("%s pooled run %d: %w", name, i+1, err)
				}
				pooled[i] = res
				// Merge per-run coverage inside the clock: the real
				// pooled sweep path folds every run's bitmaps too.
				if res.Coverage != nil {
					if err := pooledCov.Merge(res.Coverage); err != nil {
						pool.Close()
						return nil, fmt.Errorf("%s pooled coverage merge: %w", name, err)
					}
				}
			}
			pooledWall := time.Since(start)

			// Batch: the whole sweep as one batch request on
			// the same warm worker. A batch request covers runs x steps
			// of stepping, so the per-run timeout scales with the lane
			// count.
			bo := ro
			if bo.Timeout > 0 {
				bo.Timeout *= time.Duration(runs)
			}
			start = time.Now()
			lanes, cov, _, err := pool.RunBatch(context.Background(), bin, bo, seeds)
			batchWall := time.Since(start)
			if err != nil {
				pool.Close()
				return nil, fmt.Errorf("%s batch (%d lanes): %w", name, runs, err)
			}

			// Lanes report coverage only in the batch's OR-merged
			// section, so each lane is compared without its pooled twin's
			// bitmaps and the merged sections are compared on their own.
			hashOK := len(lanes) == runs && simresult.Diff(
				&simresult.Results{Coverage: pooledCov}, &simresult.Results{Coverage: cov}) == ""
			for i := 0; hashOK && i < runs; i++ {
				bare := *pooled[i]
				bare.Coverage = nil
				hashOK = simresult.Diff(&bare, lanes[i]) == ""
			}
			speedup := ratio(pooledWall, batchWall)
			pooledTotal += pooledWall
			batchTotal += batchWall
			allHashOK = allHashOK && hashOK
			rows = append(rows,
				BatchRow{
					Model: name, Mode: "pooled", Runs: runs, Steps: steps,
					Wall: pooledWall, Compile: compileTime, HashOK: hashOK,
				},
				BatchRow{
					Model: name, Mode: "batch", Runs: runs, Steps: steps,
					Wall: batchWall, Compile: compileTime, HashOK: hashOK,
					Speedup: speedup,
				})
			cfg.logf("batch %s x%d: pooled %v batch %v (%.1fx)",
				name, runs, pooledWall, batchWall, speedup)
		}
		pool.Close()
	}
	total := ratio(pooledTotal, batchTotal)
	rows = append(rows, BatchRow{
		Model: "TOTAL", Mode: "batch", Steps: steps,
		Wall: batchTotal, HashOK: allHashOK,
		Speedup: total, SpeedupOK: total >= batchSpeedupBar && allHashOK,
	})
	return rows, nil
}
