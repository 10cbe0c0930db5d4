package codegen_test

import (
	"context"
	"strings"
	"testing"

	"accmos/internal/actors"
	"accmos/internal/codegen"
	"accmos/internal/diagnose"
	"accmos/internal/harness"
	"accmos/internal/interp"
	"accmos/internal/model"
	"accmos/internal/simresult"
	"accmos/internal/testcase"
	"accmos/internal/types"
)

// compile builds a model or fails the test.
func compile(t *testing.T, m *model.Model) *actors.Compiled {
	t.Helper()
	c, err := actors.Compile(m)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// runBoth runs the interpreter and the generated program with identical
// options and steps, returning both results.
func runBoth(t *testing.T, c *actors.Compiled, set *testcase.Set, steps int64,
	iopts interp.Options, gopts codegen.Options) (*simresult.Results, *simresult.Results) {
	t.Helper()
	e, err := interp.New(c, iopts)
	if err != nil {
		t.Fatal(err)
	}
	ir, err := e.Run(set, steps, 0)
	if err != nil {
		t.Fatal(err)
	}
	gopts.TestCases = set
	p, err := codegen.Generate(c, gopts)
	if err != nil {
		t.Fatal(err)
	}
	gr, err := buildAndRun(p, t.TempDir(), steps)
	if err != nil {
		t.Fatal(err)
	}
	return ir, gr
}

// buildAndRun compiles p through a build cache rooted at dir and runs
// it once for steps.
func buildAndRun(p *codegen.Program, dir string, steps int64) (*simresult.Results, error) {
	bin, _, _, err := harness.NewBuildCache(dir).Build(p, nil)
	if err != nil {
		return nil, err
	}
	return harness.RunContext(context.Background(), bin, harness.RunOptions{Steps: steps})
}

// assertEquivalent checks the cross-engine oracle (simresult.Diff):
// identical steps, output hash, coverage bitmaps, diagnosis aggregates,
// first-detect steps, verbatim diagnosis records and monitor samples.
func assertEquivalent(t *testing.T, ir, gr *simresult.Results) {
	t.Helper()
	if d := simresult.Diff(ir, gr); d != "" {
		t.Errorf("interp vs generated: %s", d)
	}
}

func accumulatorModel(t *testing.T) *actors.Compiled {
	t.Helper()
	return compile(t, model.NewBuilder("FIG1").
		Add("InA", "Inport", 0, 1, model.WithOutKind(types.I32), model.WithParam("Port", "1")).
		Add("InB", "Inport", 0, 1, model.WithOutKind(types.I32), model.WithParam("Port", "2")).
		Add("AccA", "Sum", 2, 1, model.WithOperator("++")).
		Add("DelayA", "UnitDelay", 1, 1).
		Add("AccB", "Sum", 2, 1, model.WithOperator("++")).
		Add("DelayB", "UnitDelay", 1, 1).
		Add("Total", "Sum", 2, 1, model.WithOperator("++")).
		Add("Out", "Outport", 1, 0, model.WithParam("Port", "1")).
		Wire("InA", "AccA", 0).
		Wire("DelayA", "AccA", 1).
		Wire("AccA", "DelayA", 0).
		Wire("InB", "AccB", 0).
		Wire("DelayB", "AccB", 1).
		Wire("AccB", "DelayB", 0).
		Wire("AccA", "Total", 0).
		Wire("AccB", "Total", 1).
		Wire("Total", "Out", 0).
		MustBuild())
}

func TestGeneratedMatchesInterpAccumulator(t *testing.T) {
	c := accumulatorModel(t)
	// Positive-biased inputs: the accumulators drift to ~5e9 over 5000
	// steps, well past the int32 limit, so overflow diagnostics fire.
	set := testcase.NewRandomSet(2, 7, 5e5, 1.5e6)
	ir, gr := runBoth(t, c, set, 5000,
		interp.Options{Coverage: true, Diagnose: true},
		codegen.Options{Coverage: true, Diagnose: true})
	assertEquivalent(t, ir, gr)
	if ir.DiagTotal == 0 {
		t.Error("expected overflow diagnostics in this workload")
	}
}

func TestGeneratedStopOnDiag(t *testing.T) {
	c := accumulatorModel(t)
	set := &testcase.Set{Sources: []testcase.Source{
		{Kind: testcase.Const, Value: 1e6},
		{Kind: testcase.Const, Value: 1e6},
	}}
	ir, gr := runBoth(t, c, set, 1_000_000,
		interp.Options{Diagnose: true, StopOnDiag: diagnose.WrapOnOverflow},
		codegen.Options{Diagnose: true, StopOnDiag: diagnose.WrapOnOverflow})
	assertEquivalent(t, ir, gr)
	if gr.Steps > 1200 {
		t.Errorf("generated program ran %d steps; expected early stop near 1074", gr.Steps)
	}
}

func TestGenerateRequiresTestCases(t *testing.T) {
	c := accumulatorModel(t)
	if _, err := codegen.Generate(c, codegen.Options{}); err == nil {
		t.Fatal("missing TestCases must fail")
	}
	if _, err := codegen.Generate(c, codegen.Options{TestCases: &testcase.Set{}}); err == nil {
		t.Fatal("source/inport mismatch must fail")
	}
}

func TestGeneratedSourceShape(t *testing.T) {
	c := accumulatorModel(t)
	p, err := codegen.Generate(c, codegen.Options{
		Coverage: true, Diagnose: true,
		TestCases: testcase.NewRandomSet(2, 1, -1, 1),
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"package main",
		"func modelExe(step int64",
		"func modelInit()",
		"actorBitmap[",
		"diagnose_FIG1_Total(step",
		"func main()",
		"reportDiag(",
	} {
		if !strings.Contains(p.Source, want) {
			t.Errorf("generated source missing %q", want)
		}
	}
}
