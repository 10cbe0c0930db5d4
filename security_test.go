package accmos_test

import (
	"reflect"
	"strings"
	"testing"

	accmos "accmos"
	"accmos/internal/model"
	"accmos/internal/types"
)

// injectPayload is Go source wrapped in line breaks: written verbatim into
// a generated "//" comment, it would end the comment and compile into the
// program.
const injectPayload = "\nvar _ = func() int { println(\"INJECTED CODE RAN\"); return 0 }()\n//"

// TestModelNamesCannotInjectCode feeds the payload through the model name,
// a subsystem label and actor names. Names are model text: the generated
// program must carry them only escaped, still simulate exactly like the
// interpreter, and report findings under the unaltered name.
func TestModelNamesCannotInjectCode(t *testing.T) {
	m := accmos.NewModelBuilder("M"+injectPayload).
		Add("In", "Inport", 0, 1, model.WithOutKind(types.F64), model.WithParam("Port", "1")).
		InSubsystem("S"+injectPayload).
		Add("Log"+injectPayload, "Math", 1, 1, model.WithOperator("log")).
		Add("G\r"+injectPayload, "Gain", 1, 1, model.WithParam("Gain", "2")).
		InSubsystem("").
		Add("Out", "Outport", 1, 0, model.WithParam("Port", "1")).
		Chain("In", "Log"+injectPayload, "G\r"+injectPayload, "Out").
		MustBuild()
	opts := accmos.Options{
		Steps:     500,
		Coverage:  true,
		Diagnose:  true,
		TestCases: accmos.RandomTestCases(m, 5, -1, 1),
		Cache:     accmos.NewBuildCache(t.TempDir()),
	}
	src, err := accmos.GenerateSource(m, opts)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(src, "\nvar _ = func()") {
		t.Fatal("a model name reached the generated source as a declaration")
	}
	sim, err := accmos.Simulate(m, opts)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := accmos.Interpret(m, opts)
	if err != nil {
		t.Fatal(err)
	}
	if sim.OutputHash != ref.OutputHash {
		t.Errorf("output hash %x, interpreter %x", sim.OutputHash, ref.OutputHash)
	}
	if !reflect.DeepEqual(sim.DiagCounts, ref.DiagCounts) || !reflect.DeepEqual(sim.FirstDetect, ref.FirstDetect) {
		t.Errorf("diagnosis differs:\ngenerated %v %v\ninterp    %v %v",
			sim.DiagCounts, sim.FirstDetect, ref.DiagCounts, ref.FirstDetect)
	}
	if !reflect.DeepEqual(sim.Diags, ref.Diags) {
		t.Errorf("diag records differ:\ngenerated %v\ninterp    %v", sim.Diags, ref.Diags)
	}
	wantActor := "M" + injectPayload + "_S" + injectPayload + "_Log" + injectPayload
	found := false
	for _, r := range sim.Diags {
		found = found || r.Actor == wantActor
	}
	if !found {
		t.Errorf("no diag record names %q: %v", wantActor, sim.Diags)
	}
}
