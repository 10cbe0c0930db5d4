package benchmodels_test

import (
	"strings"
	"testing"

	"accmos/internal/actors"
	"accmos/internal/benchmodels"
	"accmos/internal/diagnose"
	"accmos/internal/interp"
	"accmos/internal/lint"
	"accmos/internal/testcase"
)

func TestTable1Counts(t *testing.T) {
	want := map[string][2]int{ // published #Actor, #SubSystem
		"CPUT": {275, 27}, "CSEV": {152, 17}, "FMTM": {276, 42},
		"LANS": {570, 39}, "LEDLC": {170, 31}, "RAC": {667, 57},
		"SPV": {131, 16}, "TCP": {330, 42}, "TWC": {214, 13}, "UTPC": {214, 21},
	}
	if len(benchmodels.Names()) != len(want) {
		t.Fatalf("have %d models, want %d", len(benchmodels.Names()), len(want))
	}
	for name, counts := range want {
		m, err := benchmodels.Build(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		st := m.Stats()
		if st.Actors != counts[0] {
			t.Errorf("%s actors = %d, want %d", name, st.Actors, counts[0])
		}
		if st.Subsystems != counts[1] {
			t.Errorf("%s subsystems = %d, want %d", name, st.Subsystems, counts[1])
		}
		if benchmodels.Description(name) == "" {
			t.Errorf("%s has no description", name)
		}
	}
}

func TestAllModelsCompileAndSimulate(t *testing.T) {
	for _, name := range benchmodels.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			c, err := actors.Compile(benchmodels.MustBuild(name))
			if err != nil {
				t.Fatal(err)
			}
			e, err := interp.New(c, interp.Options{Coverage: true, Diagnose: true})
			if err != nil {
				t.Fatal(err)
			}
			set := testcase.NewRandomSet(len(c.Inports), 7, -100, 100)
			res, err := e.Run(set, 200, 0)
			if err != nil {
				t.Fatal(err)
			}
			if res.Steps != 200 {
				t.Errorf("steps = %d", res.Steps)
			}
			rep := e.Layout().Report(res.Coverage)
			if rep.Actor <= 0 {
				t.Error("no actor coverage at all")
			}
		})
	}
}

func TestBuildDeterministic(t *testing.T) {
	a := benchmodels.MustBuild("LANS")
	b := benchmodels.MustBuild("LANS")
	if len(a.Actors) != len(b.Actors) || len(a.Connections) != len(b.Connections) {
		t.Fatal("construction is not deterministic in size")
	}
	for i := range a.Actors {
		if a.Actors[i].Name != b.Actors[i].Name || a.Actors[i].Type != b.Actors[i].Type {
			t.Fatalf("actor %d differs: %v vs %v", i, a.Actors[i], b.Actors[i])
		}
	}
	for i := range a.Connections {
		if a.Connections[i] != b.Connections[i] {
			t.Fatalf("connection %d differs", i)
		}
	}
}

func TestBuildUnknown(t *testing.T) {
	if _, err := benchmodels.Build("NOPE"); err == nil {
		t.Fatal("unknown model must error")
	}
}

func TestFigure1Overflows(t *testing.T) {
	c, err := actors.Compile(benchmodels.Figure1Model())
	if err != nil {
		t.Fatal(err)
	}
	e, err := interp.New(c, interp.Options{Diagnose: true, StopOnDiag: diagnose.WrapOnOverflow})
	if err != nil {
		t.Fatal(err)
	}
	set := &testcase.Set{Sources: []testcase.Source{
		{Kind: testcase.Const, Value: 1e6},
		{Kind: testcase.Const, Value: 1e6},
	}}
	res, err := e.Run(set, 1<<30, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.FirstDetectOf(diagnose.WrapOnOverflow) < 0 {
		t.Fatal("Figure 1 model must overflow")
	}
}

func TestCSEVInjectedErrors(t *testing.T) {
	const rate = 1_000_000
	c, err := actors.Compile(benchmodels.CSEVInjected(rate))
	if err != nil {
		t.Fatal(err)
	}
	e, err := interp.New(c, interp.Options{Diagnose: true})
	if err != nil {
		t.Fatal(err)
	}
	set := testcase.NewRandomSet(len(c.Inports), 5, -10, 10)
	res, err := e.Run(set, benchmodels.OverflowStepOf(rate)+100, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Error 1: the quantity accumulator overflow appears late.
	first := res.FirstDetect["CSEVINJ_QuantityAdd|WrapOnOverflow"]
	want := benchmodels.OverflowStepOf(rate)
	if first < want-2 || first > want+2 {
		t.Errorf("quantity overflow first at %d, predicted %d (counts: %v)", first, want, res.DiagSummary())
	}
	// Error 2: the downcast on the power product appears immediately.
	if step, ok := res.FirstDetect["CSEVINJ_ChargePower|Downcast"]; !ok || step != 0 {
		t.Errorf("power downcast first detect = %d, %v; want step 0", step, ok)
	}
	// The int16 power output actually wraps, too.
	if _, ok := res.FirstDetect["CSEVINJ_ChargePower|WrapOnOverflow"]; !ok {
		t.Error("power product should wrap on overflow with int16 output")
	}
}

func TestBaseCSEVHasNoQuantityOverflow(t *testing.T) {
	c, err := actors.Compile(benchmodels.MustBuild("CSEV"))
	if err != nil {
		t.Fatal(err)
	}
	e, err := interp.New(c, interp.Options{Diagnose: true})
	if err != nil {
		t.Fatal(err)
	}
	set := testcase.NewRandomSet(len(c.Inports), 5, -10, 10)
	res, err := e.Run(set, 3000, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := res.FirstDetect["CSEV_QuantityAdd|WrapOnOverflow"]; ok {
		t.Error("production CSEV must not overflow its quantity store this quickly")
	}
}

func TestBenchmarksFullyConnected(t *testing.T) {
	// The connectivity invariant: every actor in every benchmark model
	// influences some model output (zero dead logic under the static
	// checks), as in production controllers.
	for _, name := range benchmodels.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			c, err := actors.Compile(benchmodels.MustBuild(name))
			if err != nil {
				t.Fatal(err)
			}
			for _, f := range lint.Check(c) {
				if strings.Contains(f.Message, "dead logic") {
					t.Errorf("%s", f)
				}
			}
		})
	}
}
