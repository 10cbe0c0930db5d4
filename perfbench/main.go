// Command perfbench is the AccMoS benchmark. It runs one workload over the
// ten Table-1 models, checks every result against an oracle recorded from
// the in-process reference interpreter, and prints its metrics as one JSON
// object on the last line of standard output.
//
//	perfbench -workload cold-pipeline -seed 1 -seconds 10 -trace 0
//	perfbench oracle     # re-record oracle.json (run in this directory)
//	perfbench stdcache   # build the standard-library Go build cache
//
// Run it through run.py, which builds it and keeps every file it writes
// under .bench_build in the repository root.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"syscall"
	"time"
)

var workloadNames = []string{"cold-pipeline", "long-horizon", "lane-sweep", "repeat-jobs"}

// daemonProbeModels are the models the traced run's daemon section uses
// when the workload itself is not repeat-jobs: the three cheapest builds.
var daemonProbeModels = []string{"SPV", "CSEV", "LEDLC"}

// An untraced run sets up at least minSetups times, and keeps setting up
// until setupSpan has passed; setup_s is the median.
const (
	// runDeadline bounds a run's jobs: a wedged program fails its job
	// instead of hanging the benchmark.
	runDeadline = 150 * time.Second
	minSetups   = 3
	maxSetups   = 50
	setupSpan   = 2 * time.Second
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type output struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	root := flag.String("root", "..", "repository root (holds models/ and .bench_build/)")
	name := flag.String("workload", "", "workload: cold-pipeline | long-horizon | lane-sweep | repeat-jobs")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 10, "measured seconds")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()
	abs, err := filepath.Abs(*root)
	if err != nil {
		fail(err)
	}
	buildDir := filepath.Join(abs, ".bench_build")
	switch flag.Arg(0) {
	case "oracle":
		if err := buildOracle(abs, filepath.Join(abs, "perfbench", oracleFile)); err != nil {
			fail(err)
		}
		return
	case "stdcache":
		if err := buildStdCache(abs, filepath.Join(buildDir, "gocache-std")); err != nil {
			fail(err)
		}
		return
	}
	if !slices.Contains(workloadNames, *name) || *seconds < 1 {
		fail(fmt.Errorf("unknown workload %q or bad -seconds", *name))
	}
	r := &runner{root: abs, buildDir: buildDir, workload: *name, seed: *seed, seconds: time.Duration(*seconds) * time.Second}
	r.runDir = filepath.Join(buildDir, fmt.Sprintf("run-%d", os.Getpid()))
	defer os.RemoveAll(r.runDir)
	var out *output
	if *trace == 1 {
		out, err = r.traced()
	} else {
		out, err = r.untraced()
	}
	var mismatch *oracleError
	if errors.As(err, &mismatch) {
		fmt.Fprintln(os.Stderr, "perfbench: result disagrees with the oracle:", err)
		r.details(map[string]any{"error": err.Error()})
		printResult(output{Correct: false, Attempted: max(out.Attempted, 1), Failed: out.Failed, Metrics: map[string]metric{}})
		os.RemoveAll(r.runDir)
		os.Exit(1)
	}
	if err != nil {
		os.RemoveAll(r.runDir)
		fail(err)
	}
	printResult(*out)
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(2)
}

func printResult(o output) {
	for k, m := range o.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			fmt.Fprintf(os.Stderr, "perfbench: metric %s is not finite (%v); reported as 0\n", k, m.Value)
			m.Value = 0
			o.Metrics[k] = m
		}
	}
	data, _ := json.Marshal(o)
	fmt.Println(string(data))
}

// oracleError marks a result that disagrees with the oracle or breaks a
// run invariant: the run fails rather than counting a failed job.
type oracleError struct{ err error }

func (e *oracleError) Error() string { return e.err.Error() }

type runner struct {
	root, buildDir, runDir string
	workload               string
	seed                   int64
	seconds                time.Duration
	bench                  *bench
	setupTimes             []float64
}

func (r *runner) newWorkload(name string) workload {
	switch name {
	case "cold-pipeline":
		return newColdPipeline(r.bench)
	case "long-horizon":
		return newLongHorizon(r.bench)
	case "lane-sweep":
		return newLaneSweep(r.bench)
	}
	return newRepeatJobs(r.bench, models)
}

// setUp runs the workload's set-up at least n times and until span has
// passed, each on a fresh directory and a fresh standard-library-only Go
// build cache, timing each from start to ready: reference loading and the
// workload's own set-up (artifact builds, daemon start).
func (r *runner) setUp(w workload, n int, span time.Duration) error {
	begin := time.Now()
	for k := 0; k < maxSetups && (k < n || time.Since(begin) < span); k++ {
		dir := filepath.Join(r.runDir, fmt.Sprintf("setup-%d", k))
		if k > 0 {
			w.close()
			os.RemoveAll(filepath.Join(r.runDir, fmt.Sprintf("setup-%d", k-1)))
		}
		// The standard-library-only Go build cache is the benchmark's own
		// hygiene, not the program's set-up: it is prepared off the clock.
		if err := freshEnv(filepath.Join(r.buildDir, "gocache-std"), dir); err != nil {
			return err
		}
		start := time.Now()
		o, err := loadOracle(filepath.Join(r.root, "perfbench", oracleFile))
		if err != nil {
			return err
		}
		r.bench.oracle = o
		if err := w.setup(dir); err != nil {
			return fmt.Errorf("%s set-up: %w", r.workload, err)
		}
		r.setupTimes = append(r.setupTimes, time.Since(start).Seconds())
	}
	return nil
}

// freshEnv points every build and temporary file of the process at dir,
// starting from a copy of the standard-library Go build cache.
func freshEnv(stdCache, dir string) error {
	if _, err := os.Stat(filepath.Join(stdCache, stdCacheReady)); err != nil {
		return fmt.Errorf("no standard-library build cache at %s (run: perfbench stdcache)", stdCache)
	}
	cache, tmp := filepath.Join(dir, "gocache"), filepath.Join(dir, "tmp")
	if err := linkTree(stdCache, cache); err != nil {
		return err
	}
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return err
	}
	os.Setenv("GOCACHE", cache)
	os.Setenv("TMPDIR", tmp)
	return nil
}

func (r *runner) untraced() (*output, error) {
	r.bench = &bench{root: r.root, seed: r.seed}
	w := r.newWorkload(r.workload)
	defer w.close()
	if err := r.setUp(w, minSetups, setupSpan); err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), runDeadline)
	defer cancel()
	// compile_rss_mb is read once the workload has compiled: after set-up,
	// or after the timed loop when set-up started no process (cold-pipeline).
	// Read after the loop it would also take in the pooled simulation
	// workers accmosd retires mid-run, whose peak depends on which jobs
	// each one served.
	rss := childPeakRSS()
	start, cpu0 := time.Now(), processTreeCPU()
	recs, err := w.runFor(ctx, r.seconds, nil)
	wall, cpu := time.Since(start), processTreeCPU()-cpu0
	if rss == 0 {
		rss = childPeakRSS()
	}
	out := &output{Correct: err == nil, Attempted: len(recs)}
	for _, rec := range recs {
		if rec.failed {
			out.Failed++
		}
	}
	if err != nil {
		return out, &oracleError{err}
	}
	lat := latencies(recs)
	pct, tailv := tail(lat)
	perModel := map[string][2]float64{}
	for _, rec := range recs {
		if !rec.failed {
			t := perModel[rec.model]
			perModel[rec.model] = [2]float64{t[0] + float64(rec.steps), t[1] + rec.dur.Seconds()}
		}
	}
	var rates []float64
	for _, t := range perModel {
		rates = append(rates, t[0]/t[1])
	}
	byModel := map[string][]float64{}
	for _, rec := range recs {
		byModel[rec.model] = append(byModel[rec.model], float64(rec.dur)/1e6)
	}
	jobMS := map[string]float64{}
	for m, xs := range byModel {
		jobMS[m] = median(xs)
	}
	var lag []float64
	for _, rec := range recs {
		if rec.late > 0 {
			lag = append(lag, float64(rec.late)/1e6)
		}
	}
	// The gated timing is CPU time: on a shared host, wall time drifts
	// with the neighbours' load by more than any bound a change could be
	// held to. Wall-clock latency and throughput go to the details line.
	out.Metrics = map[string]metric{
		"setup_s":        {median(r.setupTimes), "s"},
		"cpu_ms_per_job": {float64(cpu) / 1e6 / float64(len(recs)), "ms"},
		"compile_rss_mb": {rss, "MB"},
	}
	r.details(map[string]any{
		"tail_percentile": pct, "samples": len(lat), "fail_ratio": float64(out.Failed) / float64(max(len(recs), 1)),
		"measured_s": wall.Seconds(), "cpu_s": cpu.Seconds(), "setup_s": r.setupTimes, "client_lag_ms_p50": median(lag),
		"wall": map[string]any{
			"job_p50_ms": finite(median(lat) / 1e6), "job_tail_ms": finite(tailv / 1e6),
			"jobs_per_s": float64(len(recs)-out.Failed) / wall.Seconds(), "steps_per_s": finite(geomean(rates)),
		},
		"job_ms_p50_by_model": jobMS,
	})
	return out, nil
}

func (r *runner) traced() (*output, error) {
	r.bench = &bench{root: r.root, seed: r.seed}
	w := r.newWorkload(r.workload)
	defer w.close()
	if err := r.setUp(w, 1, 0); err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), runDeadline)
	defer cancel()
	out := &output{Correct: true}
	count := func(recs []record) {
		out.Attempted += len(recs)
		for _, rec := range recs {
			if rec.failed {
				out.Failed++
			}
		}
	}
	// The same workload untraced and then traced, for the tracing overhead.
	plain, err := w.runFor(ctx, r.seconds/2, nil)
	count(plain)
	if err != nil {
		return out, &oracleError{err}
	}
	led := newLedger()
	spanned, err := w.runFor(ctx, r.seconds/2, led)
	count(spanned)
	if err != nil {
		return out, &oracleError{err}
	}
	// Probe the layers the workload's own jobs do not reach.
	led.setTag("probe")
	if err := probeVariants(ctx, led, r.bench); err != nil {
		return out, &oracleError{err}
	}
	probes := []struct {
		name string
		make func() workload
	}{
		{"lane-sweep", func() workload { return newLaneSweep(r.bench) }},
		{"repeat-jobs", func() workload { return newRepeatJobs(r.bench, daemonProbeModels) }},
	}
	for _, p := range probes {
		if p.name == r.workload {
			continue
		}
		pw := p.make()
		err := pw.setup(filepath.Join(r.runDir, "probe-"+p.name))
		if err == nil {
			var recs []record
			recs, err = pw.runFor(ctx, 0, led)
			count(recs)
			if err != nil {
				err = &oracleError{err}
			}
		}
		pw.close()
		if err != nil {
			return out, err
		}
	}
	layers := layerMetrics(led, plain, spanned)
	out.Metrics = map[string]metric{}
	for k, v := range layers {
		out.Metrics[k] = metric{v, layerUnit(k)}
	}
	tracePath := filepath.Join(r.buildDir, fmt.Sprintf("trace-%s-%d.json", r.workload, r.seed))
	if err := led.write(tracePath); err != nil {
		return nil, err
	}
	r.details(map[string]any{"trace": tracePath, "spans": len(led.spans)})
	return out, nil
}

// details prints the run's context on its own line before the result:
// the host, and how the metrics were taken.
func (r *runner) details(extra map[string]any) {
	d := map[string]any{
		"workload": r.workload, "seed": r.seed, "seconds": r.seconds.Seconds(),
		"host": map[string]any{"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0), "go": runtime.Version(), "os": runtime.GOOS, "arch": runtime.GOARCH},
	}
	for k, v := range extra {
		if f, ok := v.(float64); ok {
			v = finite(f)
		}
		d[k] = v
	}
	data, _ := json.Marshal(map[string]any{"details": d})
	fmt.Println(string(data))
}

// finite returns f, or nil (JSON null) when f is NaN or infinite: a tail
// with a failed job beyond it is +Inf, which JSON cannot encode.
func finite(f float64) any {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return nil
	}
	return f
}

// childPeakRSS is the peak resident set of any waited-for descendant, in
// MB: the Go compiler or linker once a workload has built.
func childPeakRSS() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_CHILDREN, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024
}

// layerUnit derives a per-layer metric's unit from its name suffix.
func layerUnit(name string) string {
	for _, s := range []struct{ suffix, unit string }{
		{"_ms", "ms"}, {"_us", "us"}, {"_s", "s"}, {"_ns", "ns"}, {"_kb", "KB"}, {"_pct", "%"}, {"_ratio", "ratio"},
	} {
		if len(name) > len(s.suffix) && name[len(name)-len(s.suffix):] == s.suffix {
			return s.unit
		}
	}
	if len(name) > len("gen.step_ns.") && name[:len("gen.step_ns.")] == "gen.step_ns." {
		return "ns"
	}
	return "count"
}
