package main

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"time"

	accmos "accmos"
)

// A workload is a set-up plus a job loop. Set-up may run several times in
// one benchmark run (each on a fresh directory and Go build cache); the
// job loop then runs on the last one. runFor always finishes whole rounds,
// so every run sees the same model mix.
type workload interface {
	setup(dir string) error
	// runFor runs whole rounds of jobs while another allows.
	// A nil ledger runs the public facade untraced; a ledger takes each
	// job through the layers one call at a time. An error is a result
	// that disagrees with the oracle: it fails the run.
	runFor(ctx context.Context, d time.Duration, led *ledger) ([]record, error)
	close()
}

// Warm workloads run at least minWarmRounds rounds (40 jobs), so a run's
// tail is always the 75th percentile with ten samples beyond it rather than
// a percentile that flips with the job count.
const minWarmRounds = 4

// another reports whether a job loop starts another round: until d has
// passed, and at least min rounds.
func another(start time.Time, d time.Duration, rounds, min int) bool {
	return rounds < min || time.Since(start) < d
}

// record is one job's outcome.
type record struct {
	model  string
	dur    time.Duration
	steps  int64 // simulated steps (all lanes of a sweep)
	failed bool  // the job errored or was refused
	// late is how long a closed-loop client took to submit after its
	// previous job finished (repeat-jobs only).
	late time.Duration
}

// bench holds what every workload shares.
type bench struct {
	root   string
	seed   int64
	oracle *Oracle
}

func (b *bench) verify(f family, model string, seed uint64, res *accmos.Result) error {
	key := refKey(f, model, seed, 0)
	ref, err := b.oracle.ref(key)
	if err != nil {
		return err
	}
	return ref.check(key, res.Results, res.Results.Coverage)
}

// --- cold-pipeline ----------------------------------------------------

// coldPipeline takes a model file to a verified result per job, each job
// with an empty AccMoS build cache and a program no earlier job of the
// run compiled.
type coldPipeline struct {
	*bench
	seeds    map[string][]uint64 // per model, the run's seed order
	order    *rand.Rand
	round    int
	compiles int
	hashes   map[string]bool
}

func newColdPipeline(b *bench) *coldPipeline {
	w := &coldPipeline{bench: b, seeds: map[string][]uint64{}, order: rng(b.seed, "cold-order"), hashes: map[string]bool{}}
	r := rng(b.seed, "cold-seeds")
	for _, m := range models {
		w.seeds[m] = permuted(r, pipe.Seeds)
	}
	return w
}

func (w *coldPipeline) setup(string) error { return nil }
func (w *coldPipeline) close()             {}

func (w *coldPipeline) runFor(ctx context.Context, d time.Duration, led *ledger) ([]record, error) {
	var recs []record
	start := time.Now()
	for r := 0; another(start, d, r, 1); r++ {
		if w.round >= len(pipe.Seeds) {
			break // every program of the seed pool has been compiled once
		}
		for _, m := range permuted(w.order, models) {
			rec, err := w.job(ctx, m, w.seeds[m][w.round], led)
			if err != nil {
				return recs, err
			}
			recs = append(recs, rec)
		}
		w.round++
	}
	return recs, nil
}

func (w *coldPipeline) job(ctx context.Context, name string, seed uint64, led *ledger) (record, error) {
	cache := accmos.NewBuildCache("")
	defer cache.Remove()
	start := time.Now()
	job := led.start(nil, "job", name)
	sp := led.start(job, "accmos.LoadModel", name)
	m, err := accmos.LoadModel(modelPath(w.root, name))
	sp.end()
	if err != nil {
		job.end()
		return record{model: name, failed: true}, nil
	}
	opts := pipe.options(m, seed)
	opts.Cache = cache
	res, hash, hit, err := simulate(ctx, led, job, m, opts)
	if err != nil {
		job.end()
		return record{model: name, failed: true}, nil
	}
	sp = led.start(job, "verify", name)
	err = w.verify(pipe, name, seed, res)
	sp.end()
	job.end()
	dur := time.Since(start)
	if err != nil {
		return record{}, err
	}
	if !hit {
		w.compiles++
	}
	if w.hashes[hash] {
		return record{}, fmt.Errorf("cold-pipeline: program %s compiled twice in one run", hash)
	}
	w.hashes[hash] = true
	if w.compiles != len(w.hashes) {
		return record{}, fmt.Errorf("cold-pipeline: %d compiles for %d cold jobs", w.compiles, len(w.hashes))
	}
	if led != nil {
		if err := checkHash(m, opts, hash); err != nil {
			return record{}, err
		}
	}
	return record{model: name, dur: dur, steps: pipe.Steps}, nil
}

// simulate runs one job's pipeline: untraced through the public facade,
// traced through the layers one call at a time.
func simulate(ctx context.Context, led *ledger, job *span, m *accmos.Model, opts accmos.Options) (res *accmos.Result, hash string, hit bool, err error) {
	if led == nil {
		res, err = accmos.SimulateContext(ctx, m, opts)
		if err != nil {
			return nil, "", false, err
		}
		return res, res.ArtifactHash, res.CacheHit, nil
	}
	b, err := build(led, job, m, opts, opts.Cache)
	if err != nil {
		return nil, "", false, err
	}
	r, _, err := run(ctx, led, job, m, b, opts.Steps)
	if err != nil {
		return nil, "", false, err
	}
	return &accmos.Result{Results: r}, b.prog.Hash(), b.hit, nil
}

// --- long-horizon -----------------------------------------------------

// longHorizon runs one Simulate call per job on artifacts built during
// set-up, at a horizon where the step loop dominates.
type longHorizon struct {
	*bench
	order  *rand.Rand
	seeds  map[string]uint64
	loaded map[string]*accmos.Model
	cache  *accmos.BuildCache
}

func newLongHorizon(b *bench) *longHorizon {
	w := &longHorizon{bench: b, order: rng(b.seed, "long-order"), seeds: map[string]uint64{}}
	r := rng(b.seed, "long-seeds")
	for _, m := range models {
		w.seeds[m] = horizon.Seeds[r.Intn(len(horizon.Seeds))]
	}
	return w
}

func (w *longHorizon) setup(dir string) error {
	w.cache = accmos.NewBuildCache(filepath.Join(dir, "artifacts"))
	var err error
	w.loaded, err = loadModels(w.root, models)
	if err != nil {
		return err
	}
	_, err = buildAll(w.loaded, w.cache, func(m *accmos.Model) accmos.Options {
		return horizon.options(m, w.seeds[m.Name])
	})
	return err
}

func (w *longHorizon) close() {}

func (w *longHorizon) runFor(ctx context.Context, d time.Duration, led *ledger) ([]record, error) {
	var recs []record
	start := time.Now()
	for r := 0; another(start, d, r, minWarmRounds); r++ {
		for _, name := range permuted(w.order, models) {
			rec, err := w.job(ctx, name, led)
			if err != nil {
				return recs, err
			}
			recs = append(recs, rec)
		}
	}
	return recs, nil
}

func (w *longHorizon) job(ctx context.Context, name string, led *ledger) (record, error) {
	m, seed := w.loaded[name], w.seeds[name]
	opts := horizon.options(m, seed)
	opts.Cache = w.cache
	start := time.Now()
	job := led.start(nil, "job", name)
	res, hash, hit, err := simulate(ctx, led, job, m, opts)
	if err != nil {
		job.end()
		return record{model: name, failed: true}, nil
	}
	sp := led.start(job, "verify", name)
	err = w.verify(horizon, name, seed, res)
	sp.end()
	job.end()
	dur := time.Since(start)
	if err != nil {
		return record{}, err
	}
	if !hit {
		return record{}, fmt.Errorf("long-horizon: %s compiled during the timed loop", name)
	}
	if led != nil {
		if err := checkHash(m, opts, hash); err != nil {
			return record{}, err
		}
	}
	return record{model: name, dur: dur, steps: horizon.Steps}, nil
}

// loadModels parses the named model files.
func loadModels(root string, names []string) (map[string]*accmos.Model, error) {
	out := make(map[string]*accmos.Model, len(names))
	for _, n := range names {
		m, err := accmos.LoadModel(modelPath(root, n))
		if err != nil {
			return nil, err
		}
		out[n] = m
	}
	return out, nil
}

// buildAll compiles one artifact per model into cache, two builds at a
// time, and returns what was built per model.
func buildAll(loaded map[string]*accmos.Model, cache *accmos.BuildCache, opts func(*accmos.Model) accmos.Options) (map[string]*built, error) {
	out := make(map[string]*built, len(loaded))
	errs := make(chan error, len(loaded))
	type done struct {
		name string
		b    *built
	}
	results := make(chan done, len(loaded))
	sem := make(chan struct{}, 2)
	for name, m := range loaded {
		go func(name string, m *accmos.Model) {
			sem <- struct{}{}
			defer func() { <-sem }()
			b, err := build(nil, nil, m, opts(m), cache)
			if err != nil {
				errs <- fmt.Errorf("building %s: %w", name, err)
				return
			}
			results <- done{name, b}
		}(name, m)
	}
	for range loaded {
		select {
		case err := <-errs:
			return nil, err
		case d := <-results:
			out[d.name] = d.b
		}
	}
	return out, nil
}
