package experiments

import (
	"fmt"
	"math"
	"time"

	accmos "accmos"
	"accmos/internal/benchmodels"
	"accmos/internal/simresult"
)

// o2GeomeanBar is the aggregate acceptance bar: the AccMoS O1→O2
// speedup geomean over the O2-sensitive shapes must reach it.
const o2GeomeanBar = 1.3

// equivSteps bounds the instrumented verification runs: the oracle needs
// coverage and diagnosis parity, not wall-clock, so it never pays the
// full timing-step budget on the unoptimized instrumented interpreter.
const equivSteps = 20_000

// optLevels are the middle-end levels the optimizer benchmark compares.
var optLevels = []accmos.OptLevel{accmos.OptO0, accmos.OptO1, accmos.OptO2}

// BenchOpt measures the optimizer benchmark shapes (the O1 trio plus the
// O2-sensitive quartet) at O0, O1 and O2 on all four engines: three rows
// per (shape, engine), one per level, then the one aggregate TOTAL gate
// row (geomean AccMoS O1→O2 speedup with its pass verdict). Every row
// carries the scheduled actor counts around the O1 pipeline and the wall
// time per actor evaluation at its level; the O2 rows carry the
// typed-lowering fusion report and the O1-over-O2 speedup (the O2
// denominator is the post-fusion ActorsEffective, since fused actors
// emit no statement of their own).
//
// Timing runs are uninstrumented — the configuration a perf-sensitive
// sweep uses — and a separate instrumented pass checks the
// O0-vs-O1-vs-O2 equivalence oracle with coverage and diagnosis on,
// exercising the premark machinery end to end. A row's HashOK is that
// oracle for its model and identical output hashes across this engine's
// three timing runs. O2 only changes the generated program, so the
// interpreted engines run the O1-optimized graph at both levels — their
// O2 rows document that the typed-lowering win is codegen-only.
func BenchOpt(cfg Config) ([]MetricRow, error) {
	names := optBenchNames(cfg.Models)
	cfg.fillDefaults()
	engines := []struct {
		name string
		run  func(*accmos.Model, accmos.Options) (*accmos.Result, error)
	}{
		{"AccMoS", accmos.Simulate},
		{"SSE", accmos.Interpret},
		{"SSEac", accmos.Accelerate},
		{"SSErac", accmos.RapidAccelerate},
	}

	var rows []MetricRow
	for _, name := range names {
		m, err := benchmodels.BuildOpt(name)
		if err != nil {
			return nil, err
		}
		equivOK, err := cfg.optEquivalent(name, m)
		if err != nil {
			return nil, err
		}

		for i, eng := range engines {
			var res [3]*accmos.Result
			for lv, level := range optLevels {
				opts := cfg.options(m)
				opts.OptLevel, opts.Steps = level, cfg.Steps
				if res[lv], err = eng.run(m, opts); err != nil {
					return nil, fmt.Errorf("%s %s %s: %w", name, eng.name, level, err)
				}
			}
			ok := equivOK && simresult.SameOutputs(res[0].Results, res[1].Results) &&
				simresult.SameOutputs(res[0].Results, res[2].Results)
			// The actor counts come from the O1 pipeline and the fusion
			// report from the O2 one; both are identical for every engine.
			o1, o2 := res[1].Opt, res[2].Opt
			actors := [3]int{o1.ActorsBefore, o1.ActorsAfter, o2.EffectiveActors}
			for lv, level := range optLevels {
				row := resultRow("opt", name, eng.name, res[lv])
				row.HashOK, row.OptLevel = &ok, level.String()
				row.ActorsBefore, row.ActorsAfter = o1.ActorsBefore, o1.ActorsAfter
				row.NsPerActorStep = nsPerActorStep(row.WallNanos, row.Steps, actors[lv])
				if level == accmos.OptO2 {
					row.ActorsEffective, row.FusedExprs = o2.EffectiveActors, o2.FusedExprs
					row.HoistedExprs, row.NarrowedSignals = o2.HoistedExprs, o2.NarrowedSignals
					row.Speedup = ratio(res[1].ExecNanos, res[2].ExecNanos)
				}
				rows = append(rows, row)
			}
			if i == 0 {
				cfg.logf("opt %s: %d -> %d actors (%v)", name, o1.ActorsBefore, o1.ActorsAfter, o1.Passes)
				cfg.logf("opt %s: O2 fused %d, hoisted %d, narrowed %d (%d effective actors)",
					name, o2.FusedExprs, o2.HoistedExprs, o2.NarrowedSignals, o2.EffectiveActors)
			}
			cfg.logf("opt %s %s: O0 %v O1 %v O2 %v (%.1fx, %.1fx)", name, eng.name,
				time.Duration(res[0].ExecNanos), time.Duration(res[1].ExecNanos), time.Duration(res[2].ExecNanos),
				ratio(res[0].ExecNanos, res[1].ExecNanos), ratio(res[1].ExecNanos, res[2].ExecNanos))
		}
	}
	rows = append(rows, o2GateRow(rows))
	return rows, nil
}

// optBenchNames restricts the optimizer shape suite to an explicit
// -models subset. Names outside the suite are ignored, and a subset
// naming none of the shapes (e.g. a Table 2 list reused with -run all)
// falls back to the full suite rather than benchmarking nothing.
func optBenchNames(subset []string) []string {
	all := benchmodels.OptNames()
	if len(subset) == 0 {
		return all
	}
	want := make(map[string]bool, len(subset))
	for _, n := range subset {
		want[n] = true
	}
	var out []string
	for _, n := range all {
		if want[n] {
			out = append(out, n)
		}
	}
	if len(out) == 0 {
		return all
	}
	return out
}

// o2GateRow aggregates the AccMoS O1→O2 speedup over the O2-sensitive
// shapes into the TOTAL acceptance row: the geomean must reach
// o2GeomeanBar with every per-model oracle green. The O1 trio is
// excluded by construction — it collapses to a handful of actors before
// the typed-lowering stage runs, so its O2 column is pure noise.
func o2GateRow(rows []MetricRow) MetricRow {
	sensitive := make(map[string]bool)
	for _, n := range benchmodels.Opt2Names() {
		sensitive[n] = true
	}
	logSum, n, equiv := 0.0, 0, true
	for _, r := range rows {
		if r.Engine != "AccMoS" || r.OptLevel != "O2" || !sensitive[r.Model] {
			continue
		}
		if r.Speedup > 0 {
			logSum += math.Log(r.Speedup)
			n++
		}
		equiv = equiv && *r.HashOK
	}
	gate := MetricRow{Experiment: "opt", Model: "TOTAL", Engine: "AccMoS", HashOK: &equiv, OptLevel: "O2"}
	if n > 0 {
		gate.Speedup = math.Exp(logSum / float64(n))
		gate.SpeedupOK = equiv && gate.Speedup >= o2GeomeanBar
	}
	return gate
}

func nsPerActorStep(wallNanos, steps int64, actorCount int) float64 {
	if steps <= 0 || actorCount <= 0 {
		return 0
	}
	return float64(wallNanos) / (float64(steps) * float64(actorCount))
}

// optEquivalent runs the instrumented O0-vs-O1-vs-O2 oracle for one
// model: with coverage and diagnosis on, the generated program and the
// interpreter (the instrumented engines) at every level must match the
// O0 interpreter run on every field simresult.Diff compares. The first
// difference is logged under -v.
func (cfg *Config) optEquivalent(name string, m *accmos.Model) (bool, error) {
	var ref *simresult.Results
	for _, level := range optLevels {
		opts := cfg.options(m)
		opts.OptLevel, opts.Steps, opts.Coverage, opts.Diagnose = level, equivSteps, true, true
		ir, err := accmos.Interpret(m, opts)
		if err != nil {
			return false, fmt.Errorf("%s equivalence %s: %w", name, level, err)
		}
		gen, err := accmos.Simulate(m, opts)
		if err != nil {
			return false, fmt.Errorf("%s equivalence %s: %w", name, level, err)
		}
		if ref == nil {
			ref = ir.Results
		}
		for _, r := range []*simresult.Results{ir.Results, gen.Results} {
			if d := simresult.Diff(ref, r); d != "" {
				cfg.logf("opt %s: %s %s differs from SSE O0: %s", name, r.Engine, level, d)
				return false, nil
			}
		}
	}
	return true, nil
}
