package codegen_test

import (
	"fmt"
	"testing"

	"accmos/internal/actors"
	"accmos/internal/benchmodels"
	"accmos/internal/codegen"
	"accmos/internal/interp"
	"accmos/internal/opt"
	"accmos/internal/rapid"
	"accmos/internal/simresult"
	"accmos/internal/testcase"
)

// TestRandomModelEquivalence synthesises random model shapes across the
// compute/control spectrum and requires all four engines to agree
// bit-for-bit. This is the repository's randomized end-to-end property:
// any actor template whose Eval, Gen, or rapid specialization drift apart
// fails here with a concrete seed to reproduce.
func TestRandomModelEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles several generated programs")
	}
	trials := []struct {
		seed        uint64
		actors      int
		computeFrac float64
	}{
		{9001, 40, 0.9},
		{9002, 60, 0.5},
		{9003, 80, 0.2},
		{9004, 120, 0.7},
		{9005, 50, 0.0},
		{9006, 70, 1.0},
		{9007, 200, 0.35}, // large, control/gate-heavy
		{9008, 150, 0.65}, // large, mixed
	}
	for _, tr := range trials {
		tr := tr
		t.Run(fmt.Sprintf("seed%d_n%d_c%.1f", tr.seed, tr.actors, tr.computeFrac), func(t *testing.T) {
			t.Parallel()
			m := benchmodels.Synthesize(benchmodels.Profile{
				Name:        fmt.Sprintf("RND%d", tr.seed),
				Actors:      tr.actors,
				Subsystems:  3,
				ComputeFrac: tr.computeFrac,
				Seed:        tr.seed,
				Inports:     3,
				Outports:    2,
			})
			c, err := actors.Compile(m)
			if err != nil {
				t.Fatal(err)
			}
			set := testcase.NewRandomSet(len(c.Inports), tr.seed^0xABCD, -100, 100)
			const steps = 2000

			ir, gr := runBoth(t, c, set, steps,
				interp.Options{Coverage: true, Diagnose: true},
				codegen.Options{Coverage: true, Diagnose: true})
			assertEquivalent(t, ir, gr)

			ac, err := interp.NewAccel(c)
			if err != nil {
				t.Fatal(err)
			}
			acRes, err := ac.Run(set, steps, 0)
			if err != nil {
				t.Fatal(err)
			}
			if acRes.OutputHash != ir.OutputHash {
				t.Errorf("SSEac hash %x != SSE %x", acRes.OutputHash, ir.OutputHash)
			}
			rc, err := rapid.New(c)
			if err != nil {
				t.Fatal(err)
			}
			rcRes, err := rc.Run(set, steps, 0)
			if err != nil {
				t.Fatal(err)
			}
			if rcRes.OutputHash != ir.OutputHash {
				t.Errorf("SSErac hash %x != SSE %x", rcRes.OutputHash, ir.OutputHash)
			}
		})
	}
}

// runAtLevel runs one model at the given optimization level on all four
// engines with coverage and diagnosis instrumentation, returning the
// interpreter and generated-program results after asserting the two
// uninstrumented accelerator engines agree on the output hash.
func runAtLevel(t *testing.T, c *actors.Compiled, set *testcase.Set, steps int64, level opt.Level) (*simresult.Results, *simresult.Results) {
	t.Helper()
	or, err := opt.Optimize(c, opt.Options{Level: level, Coverage: true, Diagnose: true})
	if err != nil {
		t.Fatal(err)
	}
	e, err := interp.New(or.Compiled, interp.Options{
		Coverage: true, Diagnose: true, Layout: or.Layout, Premark: or.Premark,
	})
	if err != nil {
		t.Fatal(err)
	}
	ir, err := e.Run(set, steps, 0)
	if err != nil {
		t.Fatal(err)
	}
	p, err := codegen.Generate(or.Compiled, codegen.Options{
		Coverage: true, Diagnose: true, TestCases: set,
		Layout: or.Layout, Premark: or.Premark, Opt: level.String(),
		Plan: or.Plan,
	})
	if err != nil {
		t.Fatal(err)
	}
	gr, err := buildAndRun(p, t.TempDir(), steps)
	if err != nil {
		t.Fatal(err)
	}
	for _, eng := range []string{"SSEac", "SSErac"} {
		var res *simresult.Results
		switch eng {
		case "SSEac":
			ac, err := interp.NewAccel(or.Compiled)
			if err != nil {
				t.Fatal(err)
			}
			res, err = ac.Run(set, steps, 0)
			if err != nil {
				t.Fatal(err)
			}
		case "SSErac":
			rc, err := rapid.New(or.Compiled)
			if err != nil {
				t.Fatal(err)
			}
			res, err = rc.Run(set, steps, 0)
			if err != nil {
				t.Fatal(err)
			}
		}
		if res.OutputHash != ir.OutputHash {
			t.Errorf("%s hash %x != SSE %x at %s", eng, res.OutputHash, ir.OutputHash, level)
		}
	}
	return ir, gr
}

// runPlainAtLevel is runAtLevel without coverage or diagnosis — the
// configuration where O2 fusion fires on every eligible chain instead of
// declining behind instrumentation, so it is the strongest oracle for
// fused-expression arithmetic. Returns the generated program's results
// after checking all in-process engines agree.
func runPlainAtLevel(t *testing.T, c *actors.Compiled, set *testcase.Set, steps int64, level opt.Level) *simresult.Results {
	t.Helper()
	or, err := opt.Optimize(c, opt.Options{Level: level})
	if err != nil {
		t.Fatal(err)
	}
	if level >= opt.O2 && or.FusedExprs == 0 && or.ActorsAfter > 10 {
		t.Logf("warning: O2 fused nothing on a %d-actor model", or.ActorsAfter)
	}
	e, err := interp.New(or.Compiled, interp.Options{Layout: or.Layout, Premark: or.Premark})
	if err != nil {
		t.Fatal(err)
	}
	ir, err := e.Run(set, steps, 0)
	if err != nil {
		t.Fatal(err)
	}
	p, err := codegen.Generate(or.Compiled, codegen.Options{
		TestCases: set, Layout: or.Layout, Premark: or.Premark,
		Opt: level.String(), Plan: or.Plan,
	})
	if err != nil {
		t.Fatal(err)
	}
	gr, err := buildAndRun(p, t.TempDir(), steps)
	if err != nil {
		t.Fatal(err)
	}
	if gr.OutputHash != ir.OutputHash {
		t.Errorf("generated hash %x != SSE %x at %s (plain)", gr.OutputHash, ir.OutputHash, level)
	}
	return gr
}

// TestOptShapeEquivalence runs the optimizer benchmark shapes — the
// models built to maximize what each pass removes — through the same
// four-engine, two-level oracle as the random trials.
func TestOptShapeEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles several generated programs")
	}
	for _, name := range benchmodels.OptNames() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			c, err := actors.Compile(benchmodels.MustBuildOpt(name))
			if err != nil {
				t.Fatal(err)
			}
			set := testcase.NewRandomSet(len(c.Inports), 4242, -100, 100)
			const steps = 1500
			i0, g0 := runAtLevel(t, c, set, steps, opt.O0)
			i1, g1 := runAtLevel(t, c, set, steps, opt.O1)
			i2, g2 := runAtLevel(t, c, set, steps, opt.O2)
			assertEquivalent(t, i0, g0)
			assertEquivalent(t, i1, g1)
			assertEquivalent(t, i2, g2)
			assertEquivalent(t, i0, i1)
			assertEquivalent(t, g0, g1)
			assertEquivalent(t, g0, g2) // fused step loop matches O0 bit for bit
		})
	}
}

// TestRandomModelOptEquivalence is the optimizer's randomized soundness
// property: for random model shapes, an -O1 run must be observationally
// identical to the -O0 run on every engine — same output hashes, same
// coverage bitmaps (premarked bits included), same diagnosis aggregates.
func TestRandomModelOptEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles several generated programs")
	}
	trials := []struct {
		seed        uint64
		actors      int
		computeFrac float64
	}{
		{7101, 50, 0.9},
		{7102, 80, 0.5},
		{7103, 120, 0.25},
		{7104, 160, 0.7},
	}
	for _, tr := range trials {
		tr := tr
		t.Run(fmt.Sprintf("seed%d_n%d_c%.2f", tr.seed, tr.actors, tr.computeFrac), func(t *testing.T) {
			t.Parallel()
			m := benchmodels.Synthesize(benchmodels.Profile{
				Name:        fmt.Sprintf("OPTRND%d", tr.seed),
				Actors:      tr.actors,
				Subsystems:  3,
				ComputeFrac: tr.computeFrac,
				Seed:        tr.seed,
				Inports:     3,
				Outports:    2,
			})
			c, err := actors.Compile(m)
			if err != nil {
				t.Fatal(err)
			}
			set := testcase.NewRandomSet(len(c.Inports), tr.seed^0x5151, -100, 100)
			const steps = 1500

			i0, g0 := runAtLevel(t, c, set, steps, opt.O0)
			i1, g1 := runAtLevel(t, c, set, steps, opt.O1)
			i2, g2 := runAtLevel(t, c, set, steps, opt.O2)
			assertEquivalent(t, i0, g0) // engines agree at O0
			assertEquivalent(t, i1, g1) // engines agree at O1
			assertEquivalent(t, i2, g2) // engines agree at O2
			assertEquivalent(t, i0, i1) // levels agree on the interpreter
			assertEquivalent(t, g0, g1) // levels agree on the generated program
			assertEquivalent(t, g0, g2) // fused/hoisted/narrowed codegen matches O0

			// Without instrumentation nothing declines fusion, so this
			// pair is the strong oracle for the fused step loop.
			p0 := runPlainAtLevel(t, c, set, steps, opt.O0)
			p2 := runPlainAtLevel(t, c, set, steps, opt.O2)
			if p0.OutputHash != p2.OutputHash {
				t.Errorf("plain O2 hash %x != plain O0 %x", p2.OutputHash, p0.OutputHash)
			}
		})
	}
}
