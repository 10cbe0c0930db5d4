package experiments

import (
	"fmt"
	"math"
	"time"

	accmos "accmos"
	"accmos/internal/benchmodels"
	"accmos/internal/simresult"
)

// OptRow is one (shape, engine) comparison of the optimizing middle-end:
// the same model simulated at -O0, -O1 and -O2 on one engine. The row
// with Model "TOTAL" is the aggregate O2 gate: the geomean AccMoS O1→O2
// speedup over the O2-sensitive shapes with its pass verdict.
type OptRow struct {
	Model  string
	Engine string
	Steps  int64

	// ActorsBefore/ActorsAfter are the scheduled actor counts around the
	// O1 pipeline (identical for every engine of one model).
	ActorsBefore int
	ActorsAfter  int
	Passes       []accmos.OptPassStat

	// O2 middle-end fusion report (identical for every engine of one
	// model): how many actors the typed-lowering plan inlined, how many
	// invariant subexpressions it hoisted to init-time globals, how many
	// signals it stores narrower than their semantic kind, and the
	// post-fusion step-loop statement count that remains.
	FusedExprs      int
	HoistedExprs    int
	NarrowedSignals int
	ActorsEffective int

	O0, O1, O2                      time.Duration
	CompileO0, CompileO1, CompileO2 time.Duration // AccMoS only
	Speedup                         float64       // O0 / O1
	SpeedupO2                       float64       // O1 / O2

	// NsPerActorStep normalizes wall time by scheduled work: the per-level
	// cost of one actor evaluation. Roughly flat across levels when the
	// speedup comes purely from executing fewer actors. The O2 denominator
	// is ActorsEffective — fused actors emit no statement of their own.
	NsPerActorStepO0 float64
	NsPerActorStepO1 float64
	NsPerActorStepO2 float64

	// SpeedupOK is set on the TOTAL gate row: geomean O1→O2 AccMoS
	// speedup over the O2-sensitive shapes at or above the 1.3x bar.
	SpeedupOK bool

	// EquivOK reports the O0-vs-O1-vs-O2 oracle for this model:
	// identical output hashes on this engine's timing runs, plus the
	// instrumented runs of the generated program and the interpreter
	// agreeing on every field simresult.Diff compares (coverage
	// bitmaps, diagnosis counts, first-detect steps and records).
	EquivOK bool
}

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
// O2-sensitive quartet) at O0, O1 and O2 on all four engines. Timing runs
// are uninstrumented — the configuration a perf-sensitive sweep uses —
// and a separate instrumented pass checks the O0-vs-O1-vs-O2 equivalence
// oracle with coverage and diagnosis on, exercising the premark machinery
// end to end. O2 only changes the generated program, so the interpreted
// engines run the O1-optimized graph at both levels — their O2 columns
// document that the typed-lowering win is codegen-only.
func BenchOpt(cfg Config) ([]OptRow, error) {
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

	var rows []OptRow
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
			row := OptRow{Model: name, Engine: eng.name, Steps: cfg.Steps, EquivOK: equivOK}
			var res [3]*accmos.Result
			for lv, level := range optLevels {
				opts := cfg.options(m)
				opts.OptLevel, opts.Steps = level, cfg.Steps
				if res[lv], err = eng.run(m, opts); err != nil {
					return nil, fmt.Errorf("%s %s %s: %w", name, eng.name, level, err)
				}
			}
			row.O0, row.O1, row.O2 = time.Duration(res[0].ExecNanos), time.Duration(res[1].ExecNanos), time.Duration(res[2].ExecNanos)
			// Zero for the in-process engines, which compile nothing.
			row.CompileO0, row.CompileO1, row.CompileO2 = time.Duration(res[0].CompileNanos), time.Duration(res[1].CompileNanos), time.Duration(res[2].CompileNanos)
			if !simresult.SameOutputs(res[0].Results, res[1].Results) || !simresult.SameOutputs(res[0].Results, res[2].Results) {
				row.EquivOK = false
			}
			// The actor counts come from the O1 pipeline and the fusion
			// report from the O2 one; both are identical for every engine.
			o1, o2 := res[1].Opt, res[2].Opt
			row.ActorsBefore, row.ActorsAfter, row.Passes = o1.ActorsBefore, o1.ActorsAfter, o1.Passes
			row.FusedExprs, row.HoistedExprs = o2.FusedExprs, o2.HoistedExprs
			row.NarrowedSignals, row.ActorsEffective = o2.NarrowedSignals, o2.EffectiveActors
			row.Speedup = ratio(row.O0, row.O1)
			row.SpeedupO2 = ratio(row.O1, row.O2)
			row.NsPerActorStepO0 = nsPerActorStep(row.O0, row.Steps, row.ActorsBefore)
			row.NsPerActorStepO1 = nsPerActorStep(row.O1, row.Steps, row.ActorsAfter)
			row.NsPerActorStepO2 = nsPerActorStep(row.O2, row.Steps, row.ActorsEffective)
			if i == 0 {
				cfg.logf("opt %s: %d -> %d actors (%v)", name, row.ActorsBefore, row.ActorsAfter, row.Passes)
				cfg.logf("opt %s: O2 fused %d, hoisted %d, narrowed %d (%d effective actors)",
					name, row.FusedExprs, row.HoistedExprs, row.NarrowedSignals, row.ActorsEffective)
			}
			cfg.logf("opt %s %s: O0 %v O1 %v O2 %v (%.1fx, %.1fx)",
				name, eng.name, row.O0, row.O1, row.O2, row.Speedup, row.SpeedupO2)
			rows = append(rows, row)
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
func o2GateRow(rows []OptRow) OptRow {
	sensitive := make(map[string]bool)
	for _, n := range benchmodels.Opt2Names() {
		sensitive[n] = true
	}
	logSum, n, equiv := 0.0, 0, true
	for _, r := range rows {
		if r.Engine != "AccMoS" || !sensitive[r.Model] {
			continue
		}
		if r.SpeedupO2 > 0 {
			logSum += math.Log(r.SpeedupO2)
			n++
		}
		equiv = equiv && r.EquivOK
	}
	gate := OptRow{Model: "TOTAL", Engine: "AccMoS", EquivOK: equiv}
	if n > 0 {
		gate.SpeedupO2 = math.Exp(logSum / float64(n))
		gate.SpeedupOK = equiv && gate.SpeedupO2 >= o2GeomeanBar
	}
	return gate
}

func nsPerActorStep(wall time.Duration, steps int64, actorCount int) float64 {
	if steps <= 0 || actorCount <= 0 {
		return 0
	}
	return float64(wall.Nanoseconds()) / (float64(steps) * float64(actorCount))
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
