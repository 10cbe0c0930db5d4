package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	accmos "accmos"
	"accmos/internal/coverage"
)

func testOracle(t *testing.T) *Oracle {
	t.Helper()
	o, err := loadOracle(oracleFile)
	if err != nil {
		t.Fatal(err)
	}
	return o
}

// clone deep-copies a reference so a test can corrupt it.
func clone(t *testing.T, r *Ref) *Ref {
	data, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	var out Ref
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	return &out
}

// TestOracleCoversEveryJob checks the committed oracle holds a reference
// for every point a workload can draw, with the fields the checks read.
func TestOracleCoversEveryJob(t *testing.T) {
	o := testOracle(t)
	for _, f := range families {
		xors := f.Xors
		if len(xors) == 0 {
			xors = []uint64{0}
		}
		for _, m := range models {
			for _, s := range f.Seeds {
				for _, x := range xors {
					r, err := o.ref(refKey(f, m, s, x))
					if err != nil {
						t.Fatal(err)
					}
					if r.Coverage == nil {
						t.Fatalf("%s has no coverage bitmaps", refKey(f, m, s, x))
					}
				}
			}
		}
	}
}

// TestCorruptReferenceFailsRun runs one real cold-pipeline job against
// references with one observable changed — the output hash, a diagnosis
// count, a first-detect step, a coverage bit — and requires each to fail
// the job, while the intact reference passes.
func TestCorruptReferenceFailsRun(t *testing.T) {
	o := testOracle(t)
	// A model whose pipe references carry diagnoses, so the count and
	// first-detect corruptions are not vacuous.
	name, seed := "", uint64(0)
	for _, m := range []string{"SPV", "CSEV", "LEDLC", "TWC", "UTPC", "CPUT", "FMTM", "TCP", "LANS", "RAC"} {
		if r := o.Refs[refKey(pipe, m, pipe.Seeds[0], 0)]; len(r.DiagCounts) > 0 {
			name, seed = m, pipe.Seeds[0]
			break
		}
	}
	if name == "" {
		t.Fatal("no pipe reference carries diagnoses")
	}
	key := refKey(pipe, name, seed, 0)
	intact := o.Refs[key]
	corruptions := map[string]func(r *Ref){
		"intact":      func(*Ref) {},
		"hash":        func(r *Ref) { r.OutputHash ^= 1 },
		"diagCount":   func(r *Ref) { bump(r.DiagCounts) },
		"diagTotal":   func(r *Ref) { r.DiagTotal++ },
		"firstDetect": func(r *Ref) { bump(r.FirstDetect) },
		"coverageBit": func(r *Ref) { flipBit(r.Coverage) },
	}
	for what, corrupt := range corruptions {
		t.Run(what, func(t *testing.T) {
			ref := clone(t, intact)
			corrupt(ref)
			b := &bench{root: "..", seed: 1, oracle: &Oracle{Refs: map[string]*Ref{key: ref}}}
			w := newColdPipeline(b)
			rec, err := w.job(context.Background(), name, seed, nil)
			if rec.failed {
				t.Fatal("job failed to run")
			}
			if what == "intact" && err != nil {
				t.Fatalf("intact reference rejected: %v", err)
			}
			if what != "intact" && err == nil {
				t.Fatalf("reference with a changed %s passed", what)
			}
		})
	}
}

// TestCorruptLaneReferenceFailsSweep runs one real sweep and requires a
// changed lane hash or a changed coverage bit in any lane's reference to
// fail it.
func TestCorruptLaneReferenceFailsSweep(t *testing.T) {
	o := testOracle(t)
	const name = "SPV"
	b := &bench{root: "..", seed: 1, oracle: o}
	w := newLaneSweep(b)
	m, err := accmos.LoadModel(modelPath("..", name))
	if err != nil {
		t.Fatal(err)
	}
	w.loaded = map[string]*accmos.Model{name: m}
	w.cache, w.pool = accmos.NewBuildCache(""), accmos.NewWorkerPool(2)
	defer w.cache.Remove()
	defer w.pool.Close()
	bt, err := build(nil, nil, m, lane.options(m, lane.Seeds[0]), w.cache)
	if err != nil {
		t.Fatal(err)
	}
	w.layouts = map[string]*coverage.Layout{name: bt.opt.Layout}
	xors := lane.Xors[:sweepLanes]
	for _, traced := range []bool{false, true} {
		var led *ledger
		if traced {
			led = newLedger()
		}
		for _, what := range []string{"intact", "hash", "coverageBit"} {
			target := refKey(lane, name, lane.Seeds[0], xors[3])
			saved := o.Refs[target]
			ref := clone(t, saved)
			switch what {
			case "hash":
				ref.OutputHash ^= 1
			case "coverageBit":
				// A bit no lane covers, so the merged coverage changes.
				merged, _ := o.mergedCoverage(name, xors)
				flipUncovered(t, ref.Coverage, merged)
			}
			o.Refs[target] = ref
			_, err := w.job(context.Background(), name, xors, led)
			o.Refs[target] = saved
			if what == "intact" && err != nil {
				t.Fatalf("traced=%v: intact references rejected: %v", traced, err)
			}
			if what != "intact" && err == nil {
				t.Fatalf("traced=%v: lane reference with a changed %s passed", traced, what)
			}
		}
	}
}

func bump(m map[string]int64) {
	for k := range m {
		m[k]++
		return
	}
}

func flipBit(r *coverage.Raw) {
	for _, bm := range [][]byte{r.Actor, r.Cond, r.Dec, r.MCDC} {
		if len(bm) > 0 {
			bm[0] ^= 1
			return
		}
	}
}

// flipUncovered sets, in r, a point that merged does not cover.
func flipUncovered(t *testing.T, r, merged *coverage.Raw) {
	for _, bms := range [][2][]byte{{r.Actor, merged.Actor}, {r.Cond, merged.Cond}, {r.Dec, merged.Dec}, {r.MCDC, merged.MCDC}} {
		for j, b := range bms[1] {
			if b == 0 {
				bms[0][j] = 1
				return
			}
		}
	}
	t.Skip("every coverage point is covered; no bit to flip")
}

// TestBenchmarkJSONNamesEveryMetric keeps BENCHMARK.json in step with what
// the benchmark prints: the same end-to-end and per-layer names and units.
func TestBenchmarkJSONNamesEveryMetric(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("workloads %v, benchmark runs %v", names, workloadNames)
	}
	var layers []string
	for _, m := range spec.PerLayer {
		layers = append(layers, m.Name)
		if u := layerUnit(m.Name); u != m.Unit {
			t.Errorf("%s: unit %q in BENCHMARK.json, %q printed", m.Name, m.Unit, u)
		}
	}
	sort.Strings(layers)
	if want := layerMetricNames(); !reflect.DeepEqual(layers, want) {
		t.Errorf("per-layer metrics\n got %s\nwant %s", strings.Join(layers, " "), strings.Join(want, " "))
	}
	var e2e []string
	for _, m := range spec.EndToEnd {
		e2e = append(e2e, m.Name+":"+m.Unit)
	}
	sort.Strings(e2e)
	want := []string{"compile_rss_mb:MB", "cpu_ms_per_job:ms", "setup_s:s"}
	if !reflect.DeepEqual(e2e, want) {
		t.Errorf("end-to-end metrics %v, benchmark prints %v", e2e, want)
	}
}

// TestO2LaneMatchesOracle runs the sweep configuration at O2 against the
// interpreter's references. It fails on the current code: at O2 with
// diagnosis off the generated LANS program's output hash differs from the
// interpreter's (O1 agrees, and O2 agrees with diagnosis on), which is why
// lane-sweep runs at O1.
func TestO2LaneMatchesOracle(t *testing.T) {
	o := testOracle(t)
	for _, name := range models {
		m, err := accmos.LoadModel(modelPath("..", name))
		if err != nil {
			t.Fatal(err)
		}
		x := lane.Xors[0]
		opts := lane.options(m, lane.Seeds[0])
		opts.OptLevel = accmos.OptO2
		opts.TestCases = xorSuite(opts.TestCases, x)
		res, err := accmos.Simulate(m, opts)
		if err != nil {
			t.Fatal(err)
		}
		key := refKey(lane, name, lane.Seeds[0], x)
		if err := o.Refs[key].check(key, res.Results, res.Results.Coverage); err != nil {
			t.Errorf("O2: %v", err)
		}
	}
}

// layerMetricNames lists the per-layer metrics a traced run prints.
func layerMetricNames() []string {
	m := layerMetrics(newLedger(), nil, nil)
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}
