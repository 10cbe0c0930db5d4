package main

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"reflect"
	"runtime"
	"sync"
	"time"

	accmos "accmos"
	"accmos/internal/coverage"
	"accmos/internal/harness"
	"accmos/internal/simresult"
)

// laneSweep runs coverage-adequacy sweeps — many seeds per model through
// accmos.Sweep — on artifacts built during set-up, through one warm
// worker pool, as a Table-3 style workflow does.
type laneSweep struct {
	*bench
	order   *rand.Rand
	loaded  map[string]*accmos.Model
	layouts map[string]*coverage.Layout
	cache   *accmos.BuildCache
	pool    *accmos.WorkerPool
}

func newLaneSweep(b *bench) *laneSweep {
	return &laneSweep{bench: b, order: rng(b.seed, "lane-order")}
}

func (w *laneSweep) setup(dir string) error {
	w.cache = accmos.NewBuildCache(filepath.Join(dir, "artifacts"))
	w.pool = accmos.NewWorkerPool(2)
	var err error
	if w.loaded, err = loadModels(w.root, models); err != nil {
		return err
	}
	out, err := buildAll(w.loaded, w.cache, func(m *accmos.Model) accmos.Options {
		return lane.options(m, lane.Seeds[0])
	})
	if err != nil {
		return err
	}
	w.layouts = map[string]*coverage.Layout{}
	for name, b := range out {
		w.layouts[name] = b.opt.Layout
	}
	return nil
}

func (w *laneSweep) close() {
	if w.pool != nil {
		w.pool.Close()
	}
}

func (w *laneSweep) runFor(ctx context.Context, d time.Duration, led *ledger) ([]record, error) {
	var recs []record
	before := w.pool.Stats()
	start := time.Now()
	for r := 0; another(start, d, r, minWarmRounds); r++ {
		for _, name := range permuted(w.order, models) {
			xors := permuted(w.order, lane.Xors)[:sweepLanes]
			rec, err := w.job(ctx, name, xors, led)
			if err != nil {
				return recs, err
			}
			recs = append(recs, rec)
		}
	}
	after := w.pool.Stats()
	led.add("harness.worker_spawns", float64(after.Spawns-before.Spawns))
	led.add("harness.worker_reuses", float64(after.Reuses-before.Reuses))
	return recs, nil
}

func (w *laneSweep) job(ctx context.Context, name string, xors []uint64, led *ledger) (record, error) {
	m := w.loaded[name]
	opts := lane.options(m, lane.Seeds[0])
	opts.Cache, opts.Pool = w.cache, w.pool
	start := time.Now()
	job := led.start(nil, "job", name)
	var (
		runs   []*simresult.Results
		merged *coverage.Raw
		sw     *accmos.SweepResult
		hash   string
		err    error
	)
	if led == nil {
		if sw, err = accmos.SweepContext(ctx, m, opts, xors); err == nil {
			for _, r := range sw.Runs {
				runs = append(runs, r.Results)
			}
		}
	} else {
		runs, merged, hash, err = w.tracedSweep(ctx, led, job, m, opts, xors)
	}
	if err != nil {
		job.end()
		return record{model: name, failed: true}, nil
	}
	sp := led.start(job, "verify", name)
	err = w.verifySweep(name, xors, runs, merged, sw)
	sp.end()
	job.end()
	dur := time.Since(start)
	if err != nil {
		return record{}, err
	}
	if led != nil {
		if err := checkHash(m, opts, hash); err != nil {
			return record{}, err
		}
	}
	return record{model: name, dur: dur, steps: lane.Steps * int64(len(xors))}, nil
}

// tracedSweep is accmos.Sweep's batched path one layer call at a time:
// the seeds split into at most GOMAXPROCS batches of at least eight lanes,
// each one WorkerPool.RunBatch request, with coverage OR-merged.
func (w *laneSweep) tracedSweep(ctx context.Context, led *ledger, job *span, m *accmos.Model, opts accmos.Options, xors []uint64) ([]*simresult.Results, *coverage.Raw, string, error) {
	b, err := build(led, job, m, opts, w.cache)
	if err != nil {
		return nil, nil, "", err
	}
	nb := min(runtime.GOMAXPROCS(0), (len(xors)+7)/8)
	runs := make([]*simresult.Results, len(xors))
	merged := b.prog.Layout.NewRaw()
	var (
		mu       sync.Mutex
		wg       sync.WaitGroup
		firstErr error
	)
	for i := 0; i < nb; i++ {
		lo, hi := i*len(xors)/nb, (i+1)*len(xors)/nb
		wg.Add(1)
		go func() {
			defer wg.Done()
			sp := led.start(job, "WorkerPool.RunBatch", m.Name)
			res, cov, _, err := w.pool.RunBatch(ctx, b.bin, harness.RunOptions{Steps: lane.Steps, Model: m.Name, Suite: lo + 1}, xors[lo:hi])
			sp.end()
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				firstErr = err
				return
			}
			exec := int64(0)
			for j, r := range res {
				runs[lo+j] = r
				exec += r.ExecNanos
			}
			sp.set("lanes", float64(len(res)))
			sp.set("lane_step_ns", float64(exec)/float64(int64(len(res))*lane.Steps))
			ms := led.start(job, "coverage.Merge", m.Name)
			err = merged.Merge(cov)
			ms.end()
			if err != nil {
				firstErr = err
			}
		}()
	}
	wg.Wait()
	return runs, merged, b.prog.Hash(), firstErr
}

// verifySweep checks every lane against its reference and the sweep's
// merged coverage against the OR of the lanes' reference bitmaps. merged
// is the traced sweep's raw merge; the facade's sweep (sw) exposes its
// merge as a report and the list of uncovered points.
func (w *laneSweep) verifySweep(name string, xors []uint64, runs []*simresult.Results, merged *coverage.Raw, sw *accmos.SweepResult) error {
	if len(runs) != len(xors) {
		return fmt.Errorf("%s: sweep returned %d runs for %d seeds", name, len(runs), len(xors))
	}
	for i, x := range xors {
		key := refKey(lane, name, lane.Seeds[0], x)
		ref, err := w.oracle.ref(key)
		if err != nil {
			return err
		}
		if err := ref.check(key, runs[i], nil); err != nil {
			return err
		}
	}
	want, err := w.oracle.mergedCoverage(name, xors)
	if err != nil {
		return err
	}
	layout := w.layouts[name]
	switch {
	case merged != nil && !sameCoverage(merged, want):
		return fmt.Errorf("%s: merged sweep coverage differs from the reference", name)
	case sw != nil && sw.MergedCoverage() != layout.Report(want):
		return fmt.Errorf("%s: merged sweep coverage %+v, reference %+v", name, sw.MergedCoverage(), layout.Report(want))
	case sw != nil && !reflect.DeepEqual(sw.MergedUncovered(), layout.Uncovered(want)):
		return fmt.Errorf("%s: sweep's uncovered points differ from the reference", name)
	}
	return nil
}
