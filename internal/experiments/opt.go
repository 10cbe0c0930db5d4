package experiments

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"path/filepath"
	"time"

	"accmos/internal/actors"
	"accmos/internal/benchmodels"
	"accmos/internal/codegen"
	"accmos/internal/harness"
	"accmos/internal/interp"
	"accmos/internal/opt"
	"accmos/internal/opt/irplan"
	"accmos/internal/rapid"
	"accmos/internal/simresult"
	"accmos/internal/testcase"
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
	Passes       []opt.PassStat

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

	// EquivOK reports the instrumented O0-vs-O1-vs-O2 oracle for this
	// model: identical output hashes on all four engines, plus
	// byte-identical coverage bitmaps and diagnosis aggregates on the
	// instrumented ones.
	EquivOK bool
}

// o2GeomeanBar is the aggregate acceptance bar: the AccMoS O1→O2
// speedup geomean over the O2-sensitive shapes must reach it.
const o2GeomeanBar = 1.3

// equivSteps bounds the instrumented verification runs: the oracle needs
// coverage and diagnosis parity, not wall-clock, so it never pays the
// full timing-step budget on the unoptimized instrumented interpreter.
const equivSteps = 20_000

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
	dir, cleanup, err := cfg.workDir()
	if err != nil {
		return nil, err
	}
	defer cleanup()

	var rows []OptRow
	for _, name := range names {
		m, err := benchmodels.BuildOpt(name)
		if err != nil {
			return nil, err
		}
		c, err := actors.Compile(m)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		set := testcase.NewRandomSet(len(c.Inports), cfg.Seed, -100, 100)
		or1, err := opt.Optimize(c, opt.Options{Level: opt.O1})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		or2, err := opt.Optimize(c, opt.Options{Level: opt.O2})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		cfg.logf("opt %s: %d -> %d actors (%v)", name, or1.ActorsBefore, or1.ActorsAfter, or1.Passes)
		cfg.logf("opt %s: O2 fused %d, hoisted %d, narrowed %d (%d effective actors)",
			name, or2.FusedExprs, or2.HoistedExprs, or2.NarrowedSignals, or2.EffectiveActors)

		equivOK, err := cfg.optEquivalent(dir, name, c, set)
		if err != nil {
			return nil, err
		}

		mk := func(engine string) OptRow {
			return OptRow{
				Model: name, Engine: engine, Steps: cfg.Steps,
				ActorsBefore: or1.ActorsBefore, ActorsAfter: or1.ActorsAfter,
				Passes: or1.Passes, EquivOK: equivOK,
				FusedExprs: or2.FusedExprs, HoistedExprs: or2.HoistedExprs,
				NarrowedSignals: or2.NarrowedSignals, ActorsEffective: or2.EffectiveActors,
			}
		}

		// AccMoS: generated binaries at all three levels (distinct cache
		// keys); only the O2 build carries the typed-lowering plan.
		acc := mk("AccMoS")
		for _, lv := range []struct {
			tag  string
			c    *actors.Compiled
			plan *irplan.Plan
			wall *time.Duration
			cmpl *time.Duration
		}{
			{"O0", c, nil, &acc.O0, &acc.CompileO0},
			{"O1", or1.Compiled, nil, &acc.O1, &acc.CompileO1},
			{"O2", or2.Compiled, or2.Plan, &acc.O2, &acc.CompileO2},
		} {
			prog, err := codegen.Generate(lv.c, codegen.Options{TestCases: set, Opt: lv.tag, Plan: lv.plan})
			if err != nil {
				return nil, fmt.Errorf("%s %s: %w", name, lv.tag, err)
			}
			bin, compileTime, _, err := cfg.build(prog, filepath.Join(dir, name+"_"+lv.tag))
			if err != nil {
				return nil, err
			}
			*lv.cmpl = compileTime
			res, err := harness.RunContext(context.Background(), bin, harness.RunOptions{Steps: cfg.Steps, Timeout: cfg.Timeout})
			if err != nil {
				return nil, err
			}
			*lv.wall = time.Duration(res.ExecNanos)
		}

		// The three interpreter-family engines.
		type runner func(cc *actors.Compiled) (*simresult.Results, error)
		engines := []struct {
			name string
			run  runner
		}{
			{"SSE", func(cc *actors.Compiled) (*simresult.Results, error) {
				e, err := interp.New(cc, interp.Options{})
				if err != nil {
					return nil, err
				}
				return e.Run(set, cfg.Steps)
			}},
			{"SSEac", func(cc *actors.Compiled) (*simresult.Results, error) {
				e, err := interp.NewAccel(cc)
				if err != nil {
					return nil, err
				}
				return e.Run(set, cfg.Steps)
			}},
			{"SSErac", func(cc *actors.Compiled) (*simresult.Results, error) {
				e, err := rapid.New(cc)
				if err != nil {
					return nil, err
				}
				return e.Run(set, cfg.Steps)
			}},
		}
		modelRows := []OptRow{acc}
		for _, eng := range engines {
			row := mk(eng.name)
			r0, err := eng.run(c)
			if err != nil {
				return nil, fmt.Errorf("%s %s O0: %w", name, eng.name, err)
			}
			r1, err := eng.run(or1.Compiled)
			if err != nil {
				return nil, fmt.Errorf("%s %s O1: %w", name, eng.name, err)
			}
			// O2 changes generated code only: the interpreted engines
			// execute or2.Compiled, the same O1-optimized graph.
			r2, err := eng.run(or2.Compiled)
			if err != nil {
				return nil, fmt.Errorf("%s %s O2: %w", name, eng.name, err)
			}
			if !simresult.SameOutputs(r0, r1) || !simresult.SameOutputs(r0, r2) {
				row.EquivOK = false
			}
			row.O0, row.O1, row.O2 = time.Duration(r0.ExecNanos), time.Duration(r1.ExecNanos), time.Duration(r2.ExecNanos)
			modelRows = append(modelRows, row)
		}
		for i := range modelRows {
			r := &modelRows[i]
			r.Speedup = ratio(r.O0, r.O1)
			r.SpeedupO2 = ratio(r.O1, r.O2)
			r.NsPerActorStepO0 = nsPerActorStep(r.O0, r.Steps, r.ActorsBefore)
			r.NsPerActorStepO1 = nsPerActorStep(r.O1, r.Steps, r.ActorsAfter)
			r.NsPerActorStepO2 = nsPerActorStep(r.O2, r.Steps, r.ActorsEffective)
			cfg.logf("opt %s %s: O0 %v O1 %v O2 %v (%.1fx, %.1fx)",
				r.Model, r.Engine, r.O0, r.O1, r.O2, r.Speedup, r.SpeedupO2)
		}
		rows = append(rows, modelRows...)
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
// model: coverage + diagnosis on, every level, on the generated program
// and the interpreter (the instrumented engines), plus output-hash parity
// on the accelerator pair. The optimized runs feed the optimizer's
// original layout, premark bitmaps and (at O2) typed-lowering plan to the
// engines — exactly what the facade does.
func (cfg *Config) optEquivalent(dir, name string, c *actors.Compiled, set *testcase.Set) (bool, error) {
	type outcome struct {
		interp *simresult.Results
		gen    *simresult.Results
	}
	run := func(level opt.Level) (*outcome, error) {
		or, err := opt.Optimize(c, opt.Options{Level: level, Coverage: true, Diagnose: true})
		if err != nil {
			return nil, err
		}
		e, err := interp.New(or.Compiled, interp.Options{
			Coverage: true, Diagnose: true, Layout: or.Layout, Premark: or.Premark,
		})
		if err != nil {
			return nil, err
		}
		ir, err := e.Run(set, equivSteps)
		if err != nil {
			return nil, err
		}
		prog, err := codegen.Generate(or.Compiled, codegen.Options{
			Coverage: true, Diagnose: true, TestCases: set,
			Layout: or.Layout, Premark: or.Premark, Opt: level.String(),
			Plan: or.Plan,
		})
		if err != nil {
			return nil, err
		}
		bin, _, _, err := cfg.build(prog, filepath.Join(dir, name+"_eq_"+level.String()))
		if err != nil {
			return nil, err
		}
		gr, err := harness.RunContext(context.Background(), bin, harness.RunOptions{Steps: equivSteps, Timeout: cfg.Timeout})
		if err != nil {
			return nil, err
		}
		return &outcome{interp: ir, gen: gr}, nil
	}
	o0, err := run(opt.O0)
	if err != nil {
		return false, fmt.Errorf("%s equivalence O0: %w", name, err)
	}
	o1, err := run(opt.O1)
	if err != nil {
		return false, fmt.Errorf("%s equivalence O1: %w", name, err)
	}
	o2, err := run(opt.O2)
	if err != nil {
		return false, fmt.Errorf("%s equivalence O2: %w", name, err)
	}
	ok := sameInstrumented(o0.interp, o1.interp) &&
		sameInstrumented(o0.gen, o1.gen) &&
		sameInstrumented(o0.interp, o2.interp) &&
		sameInstrumented(o0.gen, o2.gen) &&
		simresult.SameOutputs(o0.interp, o0.gen) &&
		simresult.SameOutputs(o1.interp, o1.gen) &&
		simresult.SameOutputs(o2.interp, o2.gen)
	return ok, nil
}

// sameInstrumented is the full O0-vs-O1 oracle on one instrumented
// engine: output hash, diagnosis aggregates, and byte-identical coverage
// bitmaps.
func sameInstrumented(a, b *simresult.Results) bool {
	if !simresult.SameOutputs(a, b) || a.DiagTotal != b.DiagTotal {
		return false
	}
	if len(a.DiagCounts) != len(b.DiagCounts) {
		return false
	}
	for k, v := range a.DiagCounts {
		if b.DiagCounts[k] != v {
			return false
		}
	}
	if (a.Coverage == nil) != (b.Coverage == nil) {
		return false
	}
	if a.Coverage != nil {
		if !bytes.Equal(a.Coverage.Actor, b.Coverage.Actor) ||
			!bytes.Equal(a.Coverage.Cond, b.Coverage.Cond) ||
			!bytes.Equal(a.Coverage.Dec, b.Coverage.Dec) ||
			!bytes.Equal(a.Coverage.MCDC, b.Coverage.MCDC) {
			return false
		}
	}
	return true
}
