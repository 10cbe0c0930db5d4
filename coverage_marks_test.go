package accmos_test

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	accmos "accmos"
	"accmos/internal/coverage"
	"accmos/internal/diagnose"
	"accmos/internal/model"
	"accmos/internal/simresult"
	"accmos/internal/testcase"
	"accmos/internal/types"
)

// gatedMarksModel has ungated actors, which the generated program marks
// once per modelRun call, and a subsystem enabled while In > 0.99, whose
// actors mark their bits inside their gate. The ungated Gain→Bias→Abs
// chain fuses at O2.
func gatedMarksModel() *accmos.Model {
	return accmos.NewModelBuilder("GATEMARKS").
		Add("In", "Inport", 0, 1, model.WithOutKind(types.F64), model.WithParam("Port", "1")).
		Add("Sh", "Bias", 1, 1, model.WithParam("Bias", "-0.99")).
		Add("En", "CompareToZero", 1, 1, model.WithOperator(">")).
		Add("G", "Gain", 1, 1, model.WithParam("Gain", "3"), model.WithParam("EnabledBy", "En")).
		Add("Acc", "DiscreteIntegrator", 1, 1, model.WithParam("Gain", "0.5"), model.WithParam("EnabledBy", "En")).
		Add("K", "Gain", 1, 1, model.WithParam("Gain", "2.5")).
		Add("B", "Bias", 1, 1, model.WithParam("Bias", "-1")).
		Add("A", "Abs", 1, 1).
		Add("Out1", "Outport", 1, 0, model.WithParam("Port", "1")).
		Add("Out2", "Outport", 1, 0, model.WithParam("Port", "2")).
		Add("Out3", "Outport", 1, 0, model.WithParam("Port", "3")).
		Wire("In", "Sh", 0).
		Wire("Sh", "En", 0).
		Wire("In", "G", 0).
		Wire("G", "Acc", 0).
		Wire("In", "K", 0).
		Wire("K", "B", 0).
		Wire("B", "A", 0).
		Wire("G", "Out1", 0).
		Wire("Acc", "Out2", 0).
		Wire("A", "Out3", 0).
		MustBuild()
}

// gatedActors are the paths of the actors of gatedMarksModel that run
// only while their gate is open, in sorted order.
var gatedActors = []string{"GATEMARKS_Acc", "GATEMARKS_G"}

// neverRan lists, sorted, the paths of the actors a result's coverage
// says never executed.
func neverRan(r *accmos.Result) []string {
	var out []string
	for _, line := range r.Uncovered() {
		if rest, ok := strings.CutPrefix(line, "actor "); ok {
			out = append(out, strings.TrimSpace(strings.TrimSuffix(rest, " never executed")))
		}
	}
	sort.Strings(out)
	return out
}

// againstEngines checks a generated run against the three in-process
// engines replaying it under opts: the interpreter on every field
// simresult.Diff compares, the four coverage bitmaps included, and the
// Accelerator and Rapid Accelerator baselines, which collect no coverage
// or diagnosis and so cannot stop on one, on the output hash over the
// steps the generated run executed. It returns the interpreter's result.
func againstEngines(t *testing.T, label string, m *accmos.Model, opts accmos.Options, gen *simresult.Results) *accmos.Result {
	t.Helper()
	ref, err := accmos.Interpret(m, opts)
	if err != nil {
		t.Fatal(err)
	}
	if d := simresult.Diff(gen, ref.Results); d != "" {
		t.Errorf("%s: generated vs SSE: %s", label, d)
	}
	bare := accmos.Options{Steps: gen.Steps, OptLevel: opts.OptLevel, TestCases: opts.TestCases}
	for _, eng := range []struct {
		name string
		run  func(*accmos.Model, accmos.Options) (*accmos.Result, error)
	}{{"SSEac", accmos.Accelerate}, {"SSErac", accmos.RapidAccelerate}} {
		res, err := eng.run(m, bare)
		if err != nil {
			t.Fatal(err)
		}
		if res.Steps != gen.Steps || res.OutputHash != gen.OutputHash {
			t.Errorf("%s: %s ran %d steps to hash %016x, generated %d steps to %016x",
				label, eng.name, res.Steps, res.OutputHash, gen.Steps, gen.OutputHash)
		}
	}
	return ref
}

// TestGatedActorMarksFollowTheGate: the generated program marks ungated
// actors once per modelRun call and gated ones inside their gate, so a
// gate that never opens leaves its actors' bits 0, one that opens in a
// later chunk (near step 1990 of 3000) sets them, and a stop-on diagnosis that
// fires on step 0 reports exactly the actors that ran in that one step.
// Every opt level must agree with the in-process engines bit for bit.
func TestGatedActorMarksFollowTheGate(t *testing.T) {
	m := gatedMarksModel()
	cases := []struct {
		name  string
		src   testcase.Source
		steps int64
		// stop, when set, stops the run on a range check of Sh that the
		// stimulus fails on step 0.
		stop      bool
		wantSteps int64
		wantNever []string
	}{
		{"gate never opens", testcase.Source{Kind: testcase.Const, Value: -1}, 3000, false, 3000, gatedActors},
		{"gate opens mid-run", testcase.Source{Kind: testcase.Ramp, Start: -1, Slope: 0.001}, 3000, false, 3000, nil},
		{"stop on step 0", testcase.Source{Kind: testcase.Const, Value: -1}, 3000, true, 1, gatedActors},
		{"stop on step 0, gate open", testcase.Source{Kind: testcase.Const, Value: 2}, 3000, true, 1, nil},
	}
	for _, lvl := range []accmos.OptLevel{accmos.OptO0, accmos.OptO1, accmos.OptO2} {
		for _, tc := range cases {
			label := lvl.String() + "/" + tc.name
			opts := accmos.Options{
				Steps:     tc.steps,
				OptLevel:  lvl,
				Coverage:  true,
				Diagnose:  true,
				TestCases: &accmos.TestCases{Sources: []accmos.TestSource{tc.src}},
			}
			if tc.stop {
				opts.Custom = []accmos.CustomCheck{{Actor: "Sh", Name: "sh-range", Kind: diagnose.RangeCheck, Lo: -1, Hi: 0}}
				opts.StopOnDiag = diagnose.Custom
			}
			gen, err := accmos.Simulate(m, opts)
			if err != nil {
				t.Fatal(err)
			}
			if gen.Steps != tc.wantSteps {
				t.Errorf("%s: ran %d steps, want %d", label, gen.Steps, tc.wantSteps)
			}
			if got := neverRan(gen); strings.Join(got, ",") != strings.Join(tc.wantNever, ",") {
				t.Errorf("%s: actors never executed %v, want %v", label, got, tc.wantNever)
			}
			againstEngines(t, label, m, opts, gen.Results)
		}
	}
}

// TestLanesStoppingAtDifferentStepsKeepActorMarks: a multi-lane request
// whose lanes stop at different steps, some before the gate ever opened
// and some after. Each lane matches its single-lane request, each
// single-lane request matches the in-process engines replaying its seed,
// bitmaps included, and the request's OR-merged coverage matches the OR
// of the interpreter's.
func TestLanesStoppingAtDifferentStepsKeepActorMarks(t *testing.T) {
	m := gatedMarksModel()
	seeds := []uint64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}
	for _, lvl := range []accmos.OptLevel{accmos.OptO1, accmos.OptO2} {
		opts := accmos.Options{
			Steps:    3000,
			OptLevel: lvl,
			Coverage: true,
			Diagnose: true,
			// In < -0.99 ends a lane, at a seed-dependent step.
			Custom:     []accmos.CustomCheck{{Actor: "Sh", Name: "sh-range", Kind: diagnose.RangeCheck, Lo: -1.98, Hi: 1}},
			StopOnDiag: diagnose.Custom,
			TestCases:  accmos.RandomTestCases(m, 5, -1, 1),
		}
		lanes, laneCov, singles := laneRuns(t, m, opts, seeds, len(seeds))
		matchLanes(t, seeds, lanes, laneCov, singles)
		var refCov *coverage.Raw
		stops := map[int64]bool{}
		gateSeen := map[bool]bool{}
		for i, seed := range seeds {
			label := fmt.Sprintf("%s/seed %d", lvl, seed)
			laneOpts := opts
			laneOpts.TestCases = xorSuite(opts.TestCases, seed)
			ref := againstEngines(t, label, m, laneOpts, singles[i])
			if refCov == nil {
				c := ref.Results.Coverage
				refCov = &coverage.Raw{
					Actor: make([]byte, len(c.Actor)), Cond: make([]byte, len(c.Cond)),
					Dec: make([]byte, len(c.Dec)), MCDC: make([]byte, len(c.MCDC)),
				}
			}
			if err := refCov.Merge(ref.Results.Coverage); err != nil {
				t.Fatal(err)
			}
			stops[singles[i].Steps] = true
			gateSeen[len(neverRan(ref)) == 0] = true
		}
		if d := simresult.Diff(&simresult.Results{Coverage: laneCov}, &simresult.Results{Coverage: refCov}); d != "" {
			t.Errorf("%s: the lanes' merged coverage vs the interpreter's: %s", lvl, d)
		}
		if len(stops) < 3 || !gateSeen[true] || !gateSeen[false] {
			t.Errorf("%s: lanes stopped at %v, gate opened in some: %v, stayed shut in some: %v; the test needs all three",
				lvl, stops, gateSeen[true], gateSeen[false])
		}
	}
}
