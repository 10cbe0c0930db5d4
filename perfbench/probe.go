package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os/exec"
	"sync"

	accmos "accmos"
	"accmos/internal/actors"
	"accmos/internal/opt"
	"accmos/internal/simresult"
)

// Instrumentation variants the traced run builds per model: the bare
// computation, plus coverage, plus coverage and diagnosis.
var variants = []struct {
	name               string
	coverage, diagnose bool
}{{"bare", false, false}, {"cov", true, false}, {"covdiag", true, true}}

// probeVariants builds and runs every model in each instrumentation
// variant, times a build-cache hit and decodes each program's captured
// result document. Output hashes must agree across variants, and the
// instrumented variants must match the oracle.
func probeVariants(ctx context.Context, led *ledger, b *bench) error {
	cache := accmos.NewBuildCache("")
	defer cache.Remove()
	var (
		mu       sync.Mutex
		firstErr error
		wg       sync.WaitGroup
		next     = make(chan string)
	)
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for name := range next {
				if err := probeModel(ctx, led, b, cache, name); err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
				}
			}
		}()
	}
	for _, name := range models {
		next <- name
	}
	close(next)
	wg.Wait()
	return firstErr
}

func probeModel(ctx context.Context, led *ledger, b *bench, cache *accmos.BuildCache, name string) error {
	parent := led.start(nil, "probe", name)
	defer parent.end()
	sp := led.start(parent, "accmos.LoadModel", name)
	m, err := accmos.LoadModel(modelPath(b.root, name))
	sp.end()
	if err != nil {
		return err
	}
	if err := probeO2(led, parent, m); err != nil {
		return err
	}
	seed := probe.Seeds[0]
	key := refKey(probe, name, seed, 0)
	ref, err := b.oracle.ref(key)
	if err != nil {
		return err
	}
	for i, v := range variants {
		opts := probe.options(m, seed)
		opts.Coverage, opts.Diagnose = v.coverage, v.diagnose
		bt, err := build(led, parent, m, opts, cache)
		if err != nil {
			return err
		}
		sp := led.start(parent, "BuildCache.Build", name)
		_, _, hit, err := cache.Build(bt.prog, nil)
		sp.end()
		if err != nil || !hit {
			return fmt.Errorf("%s %s: rebuilding a cached program missed the cache (%v)", name, v.name, err)
		}
		sp.set("hit", 1)
		res, rs, err := run(ctx, led, parent, m, bt, probe.Steps)
		if err != nil {
			return err
		}
		rs.set("variant", float64(i))
		switch v.name {
		case "covdiag":
			err = ref.check(key, res, res.Coverage)
		case "cov":
			if !sameCoverage(res.Coverage, ref.Coverage) {
				err = fmt.Errorf("%s: coverage-only build's bitmaps differ from the reference", key)
			}
		}
		if err == nil && res.OutputHash != ref.OutputHash {
			err = fmt.Errorf("%s: %s build's output hash %#x, reference %#x", key, v.name, res.OutputHash, ref.OutputHash)
		}
		if err != nil {
			return err
		}
		// The result document as the harness receives it, decoded the
		// way the harness decodes it: the fast path, else encoding/json.
		out, err := exec.CommandContext(ctx, bt.bin, fmt.Sprintf("-steps=%d", probe.Steps)).Output()
		if err != nil {
			return fmt.Errorf("%s %s: %w", name, v.name, err)
		}
		var doc simresult.Results
		sp = led.start(parent, "simresult.DecodeGenerated", name)
		fast := simresult.DecodeGenerated(out, &doc)
		if !fast {
			err = json.Unmarshal(out, &doc)
		}
		sp.end()
		sp.set("fast", b2f(fast))
		if err != nil || doc.OutputHash != ref.OutputHash {
			return fmt.Errorf("%s %s: decoded result document disagrees with the run (%v)", name, v.name, err)
		}
	}
	return nil
}

// probeO2 counts what the O2 middle-end would do to the sweep
// configuration: fused, hoisted and narrowed expressions. The counts are
// static, so no O2 program is built or run.
func probeO2(led *ledger, parent *span, m *accmos.Model) error {
	c, err := actors.Compile(m)
	if err != nil {
		return err
	}
	sp := led.start(parent, "opt.Optimize O2", m.Name)
	or, err := opt.Optimize(c, opt.Options{Level: opt.O2, Coverage: lane.Coverage, Diagnose: lane.Diagnose})
	sp.end()
	if err != nil {
		return err
	}
	sp.set("fused", float64(or.FusedExprs))
	sp.set("hoisted", float64(or.HoistedExprs))
	sp.set("narrowed", float64(or.NarrowedSignals))
	return nil
}

// layerMetrics turns the ledger into the per-layer metrics. untraced and
// traced are the job latencies of the same workload without and with
// spans, for the tracing overhead.
func layerMetrics(led *ledger, untraced, traced []record) map[string]float64 {
	ms := func(d float64) float64 { return d / 1e6 }
	durs := func(spans []*span) []float64 {
		out := make([]float64, len(spans))
		for i, s := range spans {
			out[i] = float64(s.dur())
		}
		return out
	}
	attr := func(spans []*span, k string) []float64 {
		var out []float64
		for _, s := range spans {
			if v, ok := s.Attrs[k]; ok {
				out = append(out, v)
			}
		}
		return out
	}
	named := func(name string) []*span { return led.find(name, nil) }
	hit := func(want float64) func(*span) bool {
		return func(s *span) bool { return s.Attrs["hit"] == want }
	}
	out := map[string]float64{
		"slx.parse_ms":        ms(median(durs(named("accmos.LoadModel")))),
		"actors.schedule_ms":  ms(median(durs(named("actors.Compile")))),
		"opt.optimize_ms":     ms(median(durs(named("opt.Optimize")))),
		"codegen.generate_ms": ms(median(durs(named("codegen.Generate")))),
		"codegen.source_kb":   median(attr(named("codegen.Generate"), "source_kb")),
	}
	builds := led.find("BuildCache.Build", hit(0))
	out["harness.build_s"] = median(durs(builds)) / 1e9
	out["harness.binary_kb"] = median(attr(builds, "binary_kb"))
	out["harness.cache_lookup_ms"] = ms(median(durs(led.find("BuildCache.Build", hit(1)))))
	hits, misses := led.count("harness.cache_hits"), led.count("harness.cache_misses")
	out["harness.compiles"] = misses
	out["harness.cache_hit_ratio"] = hits / max(hits+misses, 1)

	// Step costs per model: the workload's own coverage+diagnosis runs
	// when it made any, else the probe's.
	runs := led.find("harness.RunContext", func(s *span) bool {
		v, ok := s.Attrs["variant"]
		return !ok || v == 2
	})
	out["harness.run_ms"] = ms(median(durs(runs)))
	overhead := make([]float64, len(runs))
	for i, s := range runs {
		overhead[i] = float64(s.dur()) - s.Attrs["exec_ns"]
	}
	out["harness.run_overhead_ms"] = ms(median(overhead))
	var perModel []float64
	for _, name := range models {
		var ns []float64
		for _, s := range runs {
			if s.Model == name {
				ns = append(ns, s.Attrs["exec_ns"]/s.Attrs["steps"])
			}
		}
		v := median(ns)
		out["gen.step_ns."+name] = v
		perModel = append(perModel, v)
	}
	out["gen.step_ns"] = geomean(perModel)
	// Instrumentation increments per step, from the probe's variants.
	var covInc, diagInc []float64
	for _, name := range models {
		var step [3][]float64
		for _, s := range led.spans {
			if v, ok := s.Attrs["variant"]; ok && s.Model == name && s.Name == "harness.RunContext" {
				step[int(v)] = append(step[int(v)], s.Attrs["exec_ns"]/s.Attrs["steps"])
			}
		}
		covInc = append(covInc, median(step[1])-median(step[0]))
		diagInc = append(diagInc, median(step[2])-median(step[1]))
	}
	out["coverage.step_ns"] = mean(covInc)
	out["diagnose.step_ns"] = mean(diagInc)
	out["simresult.decode_us"] = median(durs(named("simresult.DecodeGenerated"))) / 1e3

	batches := named("WorkerPool.RunBatch")
	out["harness.batch_ms"] = ms(median(durs(batches)))
	out["harness.lanes_per_batch"] = mean(attr(batches, "lanes"))
	out["gen.lane_step_ns"] = median(attr(batches, "lane_step_ns"))
	out["coverage.merge_us"] = median(durs(named("coverage.Merge"))) / 1e3
	spawns, reuses := led.count("harness.worker_spawns"), led.count("harness.worker_reuses")
	out["harness.worker_spawns"] = spawns
	out["harness.pool_reuse_ratio"] = reuses / max(spawns+reuses, 1)

	o2 := named("opt.Optimize O2")
	out["opt.fused_exprs"] = sum(attr(o2, "fused"))
	out["opt.hoisted_exprs"] = sum(attr(o2, "hoisted"))
	out["opt.narrowed_signals"] = sum(attr(o2, "narrowed"))

	out["server.admit_ms"] = ms(median(durs(named("POST /v1/jobs"))))
	events := named("GET /v1/jobs/{id}/events")
	out["server.queue_ms"] = ms(median(attr(events, "queue_ns")))
	out["server.run_ms"] = ms(median(attr(events, "run_ns")))
	for _, p := range serverPhases {
		out["server.phase."+p+"_ms"] = ms(median(attr(events, "phase."+p)))
	}
	out["server.rejected"] = led.count("server.rejected")

	var self []float64
	for _, s := range led.spans {
		if s.Name == "job" && s.Tag == "workload" && s.End > 0 {
			self = append(self, float64(led.selfTime(s)))
		}
	}
	out["trace.unaccounted_ms"] = ms(median(self))
	out["trace.overhead_pct"] = 100 * (median(latencies(traced))/median(latencies(untraced)) - 1)
	return out
}

// serverPhases are the pipeline phases accmosd records per job.
var serverPhases = []string{"schedule", "optimize", "instrument", "generate", "compile", "run"}

// latencies returns job durations in nanoseconds; failed jobs count as
// infinitely slow, so they miss every latency limit.
func latencies(recs []record) []float64 {
	out := make([]float64, len(recs))
	for i, r := range recs {
		if r.failed {
			out[i] = math.Inf(1)
		} else {
			out[i] = float64(r.dur)
		}
	}
	return out
}
