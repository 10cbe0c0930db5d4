package codegen_test

import (
	"reflect"
	"strings"
	"testing"

	"accmos/internal/codegen"
	"accmos/internal/model"
	"accmos/internal/opt"
	"accmos/internal/testcase"
	"accmos/internal/types"
)

// nanBoundaryModel exercises the shared NaN/Inf checker at the edges of
// its correctness argument (NaN and ±Inf are absorbing under +, - and *):
// an output that is NaN while its only intermediate is Inf, an actor that
// performs no operation, float32 overflow from finite inputs, 0×Inf, and a
// vector Sum that stays on the recompute path.
func nanBoundaryModel() *model.Model {
	b := model.NewBuilder("NANB")
	s := &sinkCounter{}
	b.Add("InA", "Inport", 0, 1, model.WithOutKind(types.F64), model.WithParam("Port", "1"))
	b.Add("InS", "Inport", 0, 1, model.WithOutKind(types.F32), model.WithParam("Port", "2"))
	b.Add("InZ", "Inport", 0, 1, model.WithOutKind(types.F64), model.WithParam("Port", "3"))
	// Inf on the InA steps that carry ±1e300.
	b.Add("Big", "Gain", 1, 1, model.WithParam("Gain", "1e10"))
	// Inf - Inf: the output is NaN, the input Inf.
	b.Add("SumInf", "Sum", 2, 1, model.WithOperator("+-"))
	// One "+" input performs no operation: NaN passes through unflagged.
	b.Add("Pass", "Sum", 1, 1, model.WithOperator("+"))
	b.Add("Bi", "Bias", 1, 1, model.WithParam("Bias", "1"))
	// float32 overflow from finite inputs.
	b.Add("G32", "Gain", 1, 1, model.WithParam("Gain", "2e38"))
	b.Add("G50", "Gain", 1, 1, model.WithParam("Gain", "50"))
	b.Add("Exp32", "Math", 1, 1, model.WithOperator("exp"))
	b.Add("Poly32", "Polynomial", 1, 1, model.WithParam("Coeffs", "[2e38 0]"))
	// 0×Inf.
	b.Add("Prod", "Product", 2, 1, model.WithOperator("**"))
	// Vector output: recompute path.
	b.Add("CV", "Constant", 0, 1, model.WithOutKind(types.F64), model.WithOutWidth(3),
		model.WithParam("Value", "[1 2 3]"))
	b.Add("SumV", "Sum", 2, 1, model.WithOperator("++"))
	b.Wire("InA", "Big", 0)
	b.Wire("Big", "SumInf", 0)
	b.Wire("Big", "SumInf", 1)
	b.Wire("SumInf", "Pass", 0)
	b.Wire("Pass", "Bi", 0)
	b.Wire("InS", "G32", 0)
	b.Wire("InS", "G50", 0)
	b.Wire("G50", "Exp32", 0)
	b.Wire("InS", "Poly32", 0)
	b.Wire("Big", "Prod", 0)
	b.Wire("InZ", "Prod", 1)
	b.Wire("CV", "SumV", 0)
	b.Wire("Big", "SumV", 1)
	for _, src := range []string{"SumInf", "Pass", "Bi", "G32", "Exp32", "Poly32", "Prod", "SumV"} {
		s.out(b, src, 0)
	}
	return b.MustBuild()
}

func nanBoundaryStimulus() *testcase.Set {
	return &testcase.Set{Sources: []testcase.Source{
		{Kind: testcase.Table, Values: []float64{1, 1e300, 1, 1, 1e300, -1e300}},
		{Kind: testcase.Table, Values: []float64{0.5, 2, 0.5, 3}},
		{Kind: testcase.Table, Values: []float64{3, 0, 0, 2, 4, 0}},
	}}
}

// TestNaNCheckerBoundaryAllEngines requires the interpreter and the
// generated program to agree on diagnosis counts, first-detect steps and
// verbatim records (and all four engines on the output hash) at every
// optimization level, with enough findings to overflow the record buffer.
func TestNaNCheckerBoundaryAllEngines(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles generated programs")
	}
	c := compile(t, nanBoundaryModel())
	set := nanBoundaryStimulus()
	for _, level := range []opt.Level{opt.O0, opt.O1, opt.O2} {
		level := level
		t.Run(level.String(), func(t *testing.T) {
			t.Parallel()
			ir, gr := runAtLevel(t, c, set, 240, level)
			assertEquivalent(t, ir, gr)
			if !reflect.DeepEqual(ir.Diags, gr.Diags) {
				t.Errorf("diag records differ:\ninterp    %v\ngenerated %v", ir.Diags, gr.Diags)
			}
			if len(gr.Diags) != 64 {
				t.Errorf("%d records, want a full buffer of 64", len(gr.Diags))
			}
			want := map[string]int64{
				"NANB_Big|NaNOrInf":    1,
				"NANB_SumInf|NaNOrInf": 1,
				"NANB_Bi|NaNOrInf":     1,
				"NANB_G32|NaNOrInf":    1,
				"NANB_Exp32|NaNOrInf":  1,
				"NANB_Poly32|NaNOrInf": 1,
				"NANB_Prod|NaNOrInf":   1,
				"NANB_SumV|NaNOrInf":   1,
			}
			for k, step := range want {
				if got, ok := gr.FirstDetect[k]; !ok || got != step {
					t.Errorf("first detect %s = %d (present %v), want %d", k, got, ok, step)
				}
			}
			if n := gr.DiagCounts["NANB_Pass|NaNOrInf"]; n != 0 {
				t.Errorf("single-input + Sum flagged %d times; it performs no operation", n)
			}
		})
	}
}

// TestNaNCheckerSourceShape pins which actors use the shared checker and
// which keep a recompute function.
func TestNaNCheckerSourceShape(t *testing.T) {
	c := compile(t, nanBoundaryModel())
	p, err := codegen.Generate(c, codegen.Options{Diagnose: true, TestCases: nanBoundaryStimulus()})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		site string
		want int
	}{
		{"\tdiagNaN64(", 4},        // Big, SumInf, Bi, Prod
		{"\tdiagNaN32(", 4},        // G32, G50, Exp32, Poly32
		{"\nfunc diagnose_", 1},    // SumV
		{"diagnose_NANB_SumV(", 2}, // its call and its declaration
		{"diagnose_NANB_Pass", 0},  // no operation, no check
	} {
		if got := strings.Count(p.Source, tc.site); got != tc.want {
			t.Errorf("%q occurs %d times, want %d", tc.site, got, tc.want)
		}
	}
}
