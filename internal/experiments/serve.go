package experiments

import (
	"context"
	"fmt"
	"time"

	"accmos/internal/harness"
)

// ServeRow is one (model, mode) measurement from the worker-pool
// benchmark: the same short-horizon sweep executed spawn-per-run and
// through a warm serve-mode worker. Per-run simulation work is identical
// in both modes, so the wall-clock gap is exactly the process startup the
// pool amortizes.
type ServeRow struct {
	Model string
	Mode  string // "spawn" | "pooled"
	Runs  int
	Steps int64

	Wall    time.Duration // whole-sweep wall clock for this mode
	Compile time.Duration // one-time compile (shared by both modes)

	// Pool counters (pooled rows only).
	Spawns, Reuses, Respawns int64

	// Speedup is spawn-mode wall over pooled wall; SpeedupOK reports the
	// pooled sweep was strictly faster AND bit-identical (set on pooled
	// rows). HashOK alone reports the per-seed output hashes matched.
	Speedup   float64
	SpeedupOK bool
	HashOK    bool
}

// serveRuns is the sweep width of the worker-pool benchmark: enough runs
// that one process startup per run dominates a short-horizon sweep.
const serveRuns = 16

// serveMaxSteps caps the per-run horizon: the benchmark measures startup
// amortization, which only shows on runs short enough that fork+exec is a
// visible fraction of each run.
const serveMaxSteps = 10_000

// BenchServe measures the warm worker pool: each configured model is
// compiled once, then a serveRuns-seed sweep executes twice — spawning a
// fresh process per run, and through one warm serve-mode worker — with
// per-seed output hashes compared across modes. Both modes run strictly
// sequentially, so the comparison isolates process startup.
func BenchServe(cfg Config) ([]ServeRow, error) {
	cfg.fillDefaults()
	steps := cfg.Steps
	if steps > serveMaxSteps {
		steps = serveMaxSteps
	}
	seeds := make([]uint64, serveRuns)
	for i := range seeds {
		seeds[i] = cfg.Seed + uint64(i)*0x9E3779B97F4A7C15
	}

	var rows []ServeRow
	for _, name := range cfg.Models {
		bin, _, compileTime, err := cfg.buildForPool(name)
		if err != nil {
			return nil, err
		}

		ro := func(seed uint64) harness.RunOptions {
			return harness.RunOptions{Steps: steps, SeedXor: seed, Model: name, Timeout: cfg.Timeout}
		}

		spawnHashes := make([]uint64, len(seeds))
		start := time.Now()
		for i, seed := range seeds {
			res, err := harness.RunContext(context.Background(), bin, ro(seed))
			if err != nil {
				return nil, fmt.Errorf("%s spawn run %d: %w", name, i+1, err)
			}
			spawnHashes[i] = res.OutputHash
		}
		spawnWall := time.Since(start)

		pool := harness.NewWorkerPool(1)
		hashOK := true
		start = time.Now()
		for i, seed := range seeds {
			res, _, err := pool.RunContext(context.Background(), bin, ro(seed))
			if err != nil {
				pool.Close()
				return nil, fmt.Errorf("%s pooled run %d: %w", name, i+1, err)
			}
			if res.OutputHash != spawnHashes[i] {
				hashOK = false
			}
		}
		pooledWall := time.Since(start)
		st := pool.Stats()
		pool.Close()

		speedup := ratio(spawnWall, pooledWall)
		rows = append(rows,
			ServeRow{
				Model: name, Mode: "spawn", Runs: len(seeds), Steps: steps,
				Wall: spawnWall, Compile: compileTime, HashOK: hashOK,
			},
			ServeRow{
				Model: name, Mode: "pooled", Runs: len(seeds), Steps: steps,
				Wall: pooledWall, Compile: compileTime,
				Spawns: st.Spawns, Reuses: st.Reuses, Respawns: st.Respawns,
				Speedup: speedup, SpeedupOK: speedup > 1 && hashOK, HashOK: hashOK,
			})
		cfg.logf("serve %s: spawn %v pooled %v (%.1fx, %d reuses)",
			name, spawnWall, pooledWall, speedup, st.Reuses)
	}
	return rows, nil
}
