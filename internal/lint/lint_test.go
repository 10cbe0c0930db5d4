package lint

import (
	"strings"
	"testing"

	"accmos/internal/actors"
	"accmos/internal/benchmodels"
	"accmos/internal/model"
	"accmos/internal/types"
)

func check(t *testing.T, m *model.Model) []Finding {
	t.Helper()
	c, err := actors.Compile(m)
	if err != nil {
		t.Fatal(err)
	}
	return Check(c)
}

func hasFinding(fs []Finding, actorSub, msgSub string) bool {
	for _, f := range fs {
		if strings.Contains(f.Actor, actorSub) && strings.Contains(f.Message, msgSub) {
			return true
		}
	}
	return false
}

func TestLintDeadLogicAndDangling(t *testing.T) {
	m := model.NewBuilder("L").
		Add("In", "Inport", 0, 1, model.WithOutKind(types.F64), model.WithParam("Port", "1")).
		Add("Live", "Gain", 1, 1, model.WithParam("Gain", "2")).
		Add("Dead", "Gain", 1, 1, model.WithParam("Gain", "3")).
		Add("Out", "Outport", 1, 0, model.WithParam("Port", "1")).
		Wire("In", "Live", 0).
		Wire("In", "Dead", 0). // Dead's output goes nowhere
		Wire("Live", "Out", 0).
		MustBuild()
	fs := check(t, m)
	if !hasFinding(fs, "L_Dead", "dead logic") {
		t.Errorf("missing dead-logic finding: %v", fs)
	}
	if !hasFinding(fs, "L_Dead", "never consumed") {
		t.Errorf("missing dangling-output finding: %v", fs)
	}
	if hasFinding(fs, "L_Live", "dead logic") {
		t.Errorf("Live flagged dead: %v", fs)
	}
}

func TestLintConstantConditions(t *testing.T) {
	m := model.NewBuilder("L").
		Add("C", "Constant", 0, 1, model.WithOutKind(types.F64), model.WithParam("Value", "1")).
		Add("A", "Constant", 0, 1, model.WithOutKind(types.F64), model.WithParam("Value", "2")).
		Add("B", "Constant", 0, 1, model.WithOutKind(types.F64), model.WithParam("Value", "3")).
		Add("Sw", "Switch", 3, 1).
		Add("Out", "Outport", 1, 0, model.WithParam("Port", "1")).
		Wire("A", "Sw", 0).
		Wire("C", "Sw", 1).
		Wire("B", "Sw", 2).
		Wire("Sw", "Out", 0).
		MustBuild()
	fs := check(t, m)
	if !hasFinding(fs, "L_Sw", "one branch is unreachable") {
		t.Errorf("missing constant-control finding: %v", fs)
	}
}

func TestLintDowncastAndDivZeroAndZeroGain(t *testing.T) {
	m := model.NewBuilder("L").
		Add("In", "Inport", 0, 1, model.WithOutKind(types.I32), model.WithParam("Port", "1")).
		Add("Zero", "Constant", 0, 1, model.WithOutKind(types.I32), model.WithParam("Value", "0")).
		Add("Narrow", "Sum", 2, 1, model.WithOperator("++"), model.WithOutKind(types.I16)).
		Add("Div", "Product", 2, 1, model.WithOperator("*/")).
		Add("G0", "Gain", 1, 1, model.WithParam("Gain", "0")).
		Add("O1", "Outport", 1, 0, model.WithParam("Port", "1")).
		Add("O2", "Outport", 1, 0, model.WithParam("Port", "2")).
		Add("O3", "Outport", 1, 0, model.WithParam("Port", "3")).
		Wire("In", "Narrow", 0).
		Wire("In", "Narrow", 1).
		Wire("In", "Div", 0).
		Wire("Zero", "Div", 1).
		Wire("In", "G0", 0).
		Wire("Narrow", "O1", 0).
		Wire("Div", "O2", 0).
		Wire("G0", "O3", 0).
		MustBuild()
	fs := check(t, m)
	if !hasFinding(fs, "L_Narrow", "downcast") {
		t.Errorf("missing downcast finding: %v", fs)
	}
	if !hasFinding(fs, "L_Div", "constant zero") {
		t.Errorf("missing div-by-zero finding: %v", fs)
	}
	if !hasFinding(fs, "L_G0", "gain is zero") {
		t.Errorf("missing zero-gain finding: %v", fs)
	}
}

func TestLintCoupledConditionsAndConstEnable(t *testing.T) {
	m := model.NewBuilder("L").
		Add("In", "Inport", 0, 1, model.WithOutKind(types.Bool), model.WithParam("Port", "1")).
		Add("And", "Logic", 2, 1, model.WithOperator("AND")).
		Add("On", "Constant", 0, 1, model.WithOutKind(types.Bool), model.WithParam("Value", "true")).
		Add("G", "Gain", 1, 1, model.WithParam("Gain", "2"), model.WithParam("EnabledBy", "On"), model.WithOutKind(types.F64)).
		Add("Cv", "DataTypeConversion", 1, 1, model.WithOutKind(types.F64)).
		Add("O1", "Outport", 1, 0, model.WithParam("Port", "1")).
		Add("O2", "Outport", 1, 0, model.WithParam("Port", "2")).
		Wire("In", "And", 0).
		Wire("In", "And", 1). // same source twice: coupled
		Wire("In", "Cv", 0).
		Wire("Cv", "G", 0).
		Wire("And", "O1", 0).
		Wire("G", "O2", 0).
		MustBuild()
	fs := check(t, m)
	if !hasFinding(fs, "L_And", "coupled conditions") {
		t.Errorf("missing coupled-conditions finding: %v", fs)
	}
	if !hasFinding(fs, "L_G", "permanently enabled") {
		t.Errorf("missing constant-enable finding: %v", fs)
	}
}

func TestLintCleanModelIsQuiet(t *testing.T) {
	m := model.NewBuilder("L").
		Add("In", "Inport", 0, 1, model.WithOutKind(types.F64), model.WithParam("Port", "1")).
		Add("G", "Gain", 1, 1, model.WithParam("Gain", "2")).
		Add("Out", "Outport", 1, 0, model.WithParam("Port", "1")).
		Chain("In", "G", "Out").
		MustBuild()
	if fs := check(t, m); len(fs) != 0 {
		t.Errorf("clean model produced findings: %v", fs)
	}
}

func TestLintBenchmarksRunClean(t *testing.T) {
	// The benchmark models may legitimately contain dangling filler
	// outputs; the lint must at least run and stay deterministic.
	c, err := actors.Compile(benchmodels.MustBuild("CSEV"))
	if err != nil {
		t.Fatal(err)
	}
	a := Check(c)
	b := Check(c)
	if len(a) != len(b) {
		t.Fatal("lint is nondeterministic")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("lint ordering is nondeterministic")
		}
	}
}

func TestLintSignalWidthError(t *testing.T) {
	m := model.NewBuilder("L").
		Add("In", "Inport", 0, 1, model.WithOutKind(types.F64), model.WithParam("Port", "1")).
		Add("G", "Gain", 1, 1, model.WithParam("Gain", "2"), model.WithOutWidth(MaxSignalWidth+1)).
		Add("Out", "Outport", 1, 0, model.WithParam("Port", "1")).
		Chain("In", "G", "Out").
		MustBuild()
	fs := check(t, m)
	if !hasFinding(fs, "L_G", "exceeds the supported maximum") {
		t.Fatalf("missing width finding: %v", fs)
	}
	blocking := Errors(fs)
	if len(blocking) == 0 {
		t.Fatalf("width finding is not error severity: %v", fs)
	}
	for _, f := range blocking {
		if f.Severity != Error {
			t.Errorf("Errors returned a %s finding: %v", f.Severity, f)
		}
	}
	// A width at the bound is fine.
	ok := model.NewBuilder("L").
		Add("In", "Inport", 0, 1, model.WithOutKind(types.F64), model.WithParam("Port", "1")).
		Add("G", "Gain", 1, 1, model.WithParam("Gain", "2"), model.WithOutWidth(MaxSignalWidth)).
		Add("Out", "Outport", 1, 0, model.WithParam("Port", "1")).
		Chain("In", "G", "Out").
		MustBuild()
	if blocking := Errors(check(t, ok)); len(blocking) != 0 {
		t.Errorf("width at the bound must not block: %v", blocking)
	}
}

func TestLintErrorsSortFirst(t *testing.T) {
	m := model.NewBuilder("L").
		Add("In", "Inport", 0, 1, model.WithOutKind(types.F64), model.WithParam("Port", "1")).
		Add("G", "Gain", 1, 1, model.WithParam("Gain", "0"), model.WithOutWidth(MaxSignalWidth+1)).
		Add("Out", "Outport", 1, 0, model.WithParam("Port", "1")).
		Chain("In", "G", "Out").
		MustBuild()
	fs := check(t, m)
	var sawNonError bool
	for _, f := range fs {
		if f.Actor != "L_G" {
			continue
		}
		if f.Severity != Error {
			sawNonError = true
		} else if sawNonError {
			t.Fatalf("error finding sorted after a lesser severity: %v", fs)
		}
	}
}

func TestLintNoFusion(t *testing.T) {
	// A long chain of opaque actors (Sign never lowers) on a model past
	// the size gate: the O2 plan fuses nothing, so the informational
	// finding fires once, attached to the model name.
	b := model.NewBuilder("NF")
	b.Add("In", "Inport", 0, 1, model.WithOutKind(types.F64), model.WithParam("Port", "1"))
	prev := "In"
	for i := 0; i < NoFusionMinActors; i++ {
		n := "S" + string(rune('A'+i))
		b.Add(n, "Sign", 1, 1)
		b.Connect(prev, 0, n, 0)
		prev = n
	}
	b.Add("Out", "Outport", 1, 0, model.WithParam("Port", "1"))
	b.Connect(prev, 0, "Out", 0)
	fs := check(t, b.MustBuild())
	var hits int
	for _, f := range fs {
		if f.Rule == RuleNoFusion {
			hits++
			if f.Severity != Info {
				t.Errorf("NoFusion severity = %s, want info", f.Severity)
			}
			if f.Actor != "NF" {
				t.Errorf("NoFusion actor = %q, want the model name", f.Actor)
			}
		}
	}
	if hits != 1 {
		t.Fatalf("NoFusion findings = %d, want 1: %v", hits, fs)
	}

	// A fusion-heavy benchmark shape must stay clean.
	c, err := actors.Compile(benchmodels.MustBuildOpt("OPTF"))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range Check(c) {
		if f.Rule == RuleNoFusion {
			t.Fatalf("OPTF flagged NoFusion despite fusing: %v", f)
		}
	}

	// Below the size gate the rule stays silent even with zero fusion.
	small := model.NewBuilder("NFS").
		Add("In", "Inport", 0, 1, model.WithOutKind(types.F64), model.WithParam("Port", "1")).
		Add("S", "Sign", 1, 1).
		Add("Out", "Outport", 1, 0, model.WithParam("Port", "1")).
		Chain("In", "S", "Out").
		MustBuild()
	for _, f := range check(t, small) {
		if f.Rule == RuleNoFusion {
			t.Fatalf("small model flagged NoFusion below the size gate: %v", f)
		}
	}
}
