package codegen_test

import (
	"strings"
	"testing"

	"accmos/internal/actors"
	"accmos/internal/codegen"
	"accmos/internal/interp"
	"accmos/internal/model"
	"accmos/internal/rapid"
	"accmos/internal/testcase"
	"accmos/internal/types"
)

// gatedModel: a conditionally executed processing block (gain + integrator
// + a diagnosable sum) enabled only while the input exceeds a threshold —
// Simulink enabled-subsystem semantics with reset outputs.
func gatedModel(t *testing.T) *actors.Compiled {
	t.Helper()
	b := model.NewBuilder("GATED")
	b.Add("In", "Inport", 0, 1, model.WithOutKind(types.F64), model.WithParam("Port", "1"))
	b.Add("En", "CompareToZero", 1, 1, model.WithOperator(">"))
	b.Add("G", "Gain", 1, 1, model.WithParam("Gain", "3"), model.WithParam("EnabledBy", "En"))
	b.Add("Acc", "DiscreteIntegrator", 1, 1, model.WithParam("Gain", "0.5"), model.WithParam("EnabledBy", "En"))
	b.Add("SumI", "Sum", 2, 1, model.WithOperator("++"), model.WithOutKind(types.I32), model.WithParam("EnabledBy", "En"))
	b.Add("CvA", "DataTypeConversion", 1, 1, model.WithOutKind(types.I32))
	b.Add("CvB", "DataTypeConversion", 1, 1, model.WithOutKind(types.I32))
	b.Add("Out1", "Outport", 1, 0, model.WithParam("Port", "1"))
	b.Add("Out2", "Outport", 1, 0, model.WithParam("Port", "2"))
	b.Add("Out3", "Outport", 1, 0, model.WithParam("Port", "3"))
	b.Wire("In", "En", 0)
	b.Wire("In", "G", 0)
	b.Wire("G", "Acc", 0)
	b.Wire("G", "CvA", 0)
	b.Wire("Acc", "CvB", 0)
	b.Wire("CvA", "SumI", 0)
	b.Wire("CvB", "SumI", 1)
	b.Wire("G", "Out1", 0)
	b.Wire("Acc", "Out2", 0)
	b.Wire("SumI", "Out3", 0)
	return compile(t, b.MustBuild())
}

func TestGatedEquivalenceAllEngines(t *testing.T) {
	c := gatedModel(t)
	set := testcase.NewRandomSet(1, 31, -10, 10)
	const steps = 3000
	ir, gr := runBoth(t, c, set, steps,
		interp.Options{Coverage: true, Diagnose: true},
		codegen.Options{Coverage: true, Diagnose: true})
	assertEquivalent(t, ir, gr)

	ac, err := interp.NewAccel(c)
	if err != nil {
		t.Fatal(err)
	}
	acRes, err := ac.Run(set, steps)
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
	rcRes, err := rc.Run(set, steps)
	if err != nil {
		t.Fatal(err)
	}
	if rcRes.OutputHash != ir.OutputHash {
		t.Errorf("SSErac hash %x != SSE %x", rcRes.OutputHash, ir.OutputHash)
	}
}

func TestGatedActorCoveragePartial(t *testing.T) {
	c := gatedModel(t)
	// Always-negative input: the enable never fires, so the gated actors
	// never execute and actor coverage stays partial in both engines.
	set := &testcase.Set{Sources: []testcase.Source{{Kind: testcase.Const, Value: -1}}}
	ir, gr := runBoth(t, c, set, 50,
		interp.Options{Coverage: true, Diagnose: true},
		codegen.Options{Coverage: true, Diagnose: true})
	assertEquivalent(t, ir, gr)
	e, err := interp.New(c, interp.Options{Coverage: true})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run(set, 50)
	if err != nil {
		t.Fatal(err)
	}
	rep := e.Layout().Report(res.Coverage)
	// 10 actors, 3 gated and never enabled: 7/10 executed.
	if rep.ActorCovered != 7 || rep.ActorTotal != 10 {
		t.Errorf("actor coverage %d/%d, want 7/10", rep.ActorCovered, rep.ActorTotal)
	}
	// Gated actors' diagnostics must not fire while disabled.
	if res.DiagTotal != 0 {
		t.Errorf("diagnostics fired from disabled actors: %v", res.DiagCounts)
	}
}

func TestGatedStateFreezes(t *testing.T) {
	c := gatedModel(t)
	// Alternate enable on/off; the integrator must only accumulate on
	// enabled steps. Input +2 (enabled) alternating with -2 (disabled):
	// each enabled step adds 0.5 * 3*2 = 3 to the accumulator.
	set := &testcase.Set{Sources: []testcase.Source{
		{Kind: testcase.Pulse, Period: 2, Width: 1, High: 2, Low: -2},
	}}
	e, err := interp.New(c, interp.Options{Monitor: []string{"Acc"}, MaxMonitorSamples: 8})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run(set, 8)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"0", "0", "3", "0", "6", "0", "9", "0"}
	samples := res.Monitor["Acc"]
	// Monitoring is skipped on disabled steps, so samples cover enabled
	// steps only: 0, 3, 6, 9.
	wantEnabled := []string{"0", "3", "6", "9"}
	if len(samples) != len(wantEnabled) {
		t.Fatalf("samples = %v (want %d enabled-step samples)", samples, len(wantEnabled))
	}
	for i, w := range wantEnabled {
		if samples[i].Value != w {
			t.Errorf("enabled sample %d = %s, want %s (full expectation %v)", i, samples[i].Value, w, want)
		}
	}
}

func TestGatedValidation(t *testing.T) {
	b := model.NewBuilder("BADGATE")
	b.Add("C", "Constant", 0, 1, model.WithOutKind(types.F64))
	b.Add("G", "Gain", 1, 1, model.WithParam("EnabledBy", "NoSuch"))
	b.Add("T", "Terminator", 1, 0)
	b.Chain("C", "G", "T")
	if _, err := actors.Compile(b.MustBuild()); err == nil {
		t.Error("unknown enabler must be rejected")
	}
	b2 := model.NewBuilder("SELFGATE")
	b2.Add("C", "Constant", 0, 1, model.WithOutKind(types.F64))
	b2.Add("G", "Gain", 1, 1, model.WithParam("EnabledBy", "G"))
	b2.Add("T", "Terminator", 1, 0)
	b2.Chain("C", "G", "T")
	if _, err := actors.Compile(b2.MustBuild()); err == nil {
		t.Error("self-gating must be rejected")
	}
	// Gating that creates a scheduling cycle is an algebraic loop.
	b3 := model.NewBuilder("CYCLEGATE")
	b3.Add("C", "Constant", 0, 1, model.WithOutKind(types.F64))
	b3.Add("G", "Gain", 1, 1, model.WithParam("EnabledBy", "Cz"))
	b3.Add("Cz", "CompareToZero", 1, 1, model.WithOperator(">"))
	b3.Add("T", "Terminator", 1, 0)
	b3.Wire("C", "G", 0)
	b3.Wire("G", "Cz", 0)
	b3.Wire("Cz", "T", 0)
	if _, err := actors.Compile(b3.MustBuild()); err == nil {
		t.Error("enable cycle must be rejected")
	}
}

func TestVectorMonitorEquivalence(t *testing.T) {
	// Signal monitoring on a vector actor must render samples exactly as
	// the interpreter's value printer does.
	b := model.NewBuilder("VMON")
	b.Add("In", "Inport", 0, 1, model.WithOutKind(types.I16), model.WithParam("Port", "1"))
	b.Add("CV", "Constant", 0, 1, model.WithOutKind(types.I16), model.WithOutWidth(3),
		model.WithParam("Value", "[1 2 3]"))
	b.Add("SumV", "Sum", 2, 1, model.WithOperator("++"))
	b.Add("Red", "SumOfElements", 1, 1)
	b.Add("Out", "Outport", 1, 0, model.WithParam("Port", "1"))
	b.Wire("CV", "SumV", 0)
	b.Wire("In", "SumV", 1)
	b.Wire("SumV", "Red", 0)
	b.Wire("Red", "Out", 0)
	c := compile(t, b.MustBuild())
	set := testcase.NewRandomSet(1, 63, -50, 50)
	ir, gr := runBoth(t, c, set, 40,
		interp.Options{Monitor: []string{"SumV"}, MaxMonitorSamples: 8},
		codegen.Options{Monitor: []string{"SumV"}, MaxMonitorSamples: 8})
	assertEquivalent(t, ir, gr) // monitor samples included
	is := ir.Monitor["SumV"]
	if len(is) != 8 {
		t.Fatalf("sample count %d, want 8", len(is))
	}
	if !strings.HasPrefix(is[0].Value, "[") {
		t.Errorf("vector sample not rendered as a vector: %q", is[0].Value)
	}
}
