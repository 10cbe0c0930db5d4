package interp

import (
	"math"
	"strings"
	"testing"
	"time"

	"accmos/internal/actors"
	"accmos/internal/diagnose"
	"accmos/internal/model"
	"accmos/internal/testcase"
	"accmos/internal/types"
)

// accumulatorModel is the Figure-1 shape: two inputs accumulated through
// unit delays, then summed — overflows i32 after enough steps.
func accumulatorModel(t *testing.T) *actors.Compiled {
	t.Helper()
	m := model.NewBuilder("FIG1").
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
		MustBuild()
	c, err := actors.Compile(m)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func constSet(vals ...float64) *testcase.Set {
	s := &testcase.Set{}
	for _, v := range vals {
		s.Sources = append(s.Sources, testcase.Source{Kind: testcase.Const, Value: v})
	}
	return s
}

func TestAccumulatorOverflowDetected(t *testing.T) {
	c := accumulatorModel(t)
	e, err := New(c, Options{Diagnose: true})
	if err != nil {
		t.Fatal(err)
	}
	// 1e6 per step per accumulator: wraps i32 (2^31) after ~2147 steps.
	res, err := e.Run(constSet(1e6, 1e6), 5000, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.DiagTotal == 0 {
		t.Fatal("expected overflow diagnostics")
	}
	// Total accumulates 2e6 per step, wrapping i32 at step ~2^31/2e6 = 1073.
	first := res.FirstDetectOf(diagnose.WrapOnOverflow)
	if first < 1000 || first > 1150 {
		t.Errorf("first overflow at step %d, want ~1073", first)
	}
}

func TestStopOnDiagStopsEarly(t *testing.T) {
	c := accumulatorModel(t)
	e, err := New(c, Options{Diagnose: true, StopOnDiag: diagnose.WrapOnOverflow})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run(constSet(1e6, 1e6), 5000000, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Steps > 2500 {
		t.Errorf("engine ran %d steps; StopOnDiag should halt near 2148", res.Steps)
	}
}

func TestAccumulatorValues(t *testing.T) {
	// With constant inputs 1 and 2, after step k the accumulators hold
	// (k+1) and 2(k+1), total 3(k+1). Validate via a monitored outport.
	c := accumulatorModel(t)
	e, err := New(c, Options{Monitor: []string{"Total"}, MaxMonitorSamples: 4})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run(constSet(1, 2), 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	samples := res.Monitor["Total"]
	if len(samples) != 4 {
		t.Fatalf("monitor samples = %v", samples)
	}
	want := []string{"3", "6", "9", "12"}
	for i, w := range want {
		if samples[i].Value != w {
			t.Errorf("step %d total = %s, want %s", i, samples[i].Value, w)
		}
	}
	if res.MonitorHits["Total"] != 4 {
		t.Errorf("monitor hits = %d", res.MonitorHits["Total"])
	}
}

func switchModel(t *testing.T) *actors.Compiled {
	t.Helper()
	m := model.NewBuilder("SW").
		Add("In", "Inport", 0, 1, model.WithOutKind(types.F64), model.WithParam("Port", "1")).
		Add("Hi", "Constant", 0, 1, model.WithOutKind(types.F64), model.WithParam("Value", "10")).
		Add("Lo", "Constant", 0, 1, model.WithOutKind(types.F64), model.WithParam("Value", "-10")).
		Add("Sw", "Switch", 3, 1, model.WithOperator(">="), model.WithParam("Threshold", "0")).
		Add("Out", "Outport", 1, 0, model.WithParam("Port", "1")).
		Wire("Hi", "Sw", 0).
		Wire("In", "Sw", 1).
		Wire("Lo", "Sw", 2).
		Wire("Sw", "Out", 0).
		MustBuild()
	c, err := actors.Compile(m)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestSwitchConditionCoverage(t *testing.T) {
	c := switchModel(t)
	e, err := New(c, Options{Coverage: true})
	if err != nil {
		t.Fatal(err)
	}
	// Constant positive control: only branch 0 executes.
	res, err := e.Run(constSet(5), 10, 0)
	if err != nil {
		t.Fatal(err)
	}
	rep := e.Layout().Report(res.Coverage)
	if rep.CondCovered != 1 || rep.CondTotal != 2 {
		t.Errorf("one-sided control: cond %d/%d", rep.CondCovered, rep.CondTotal)
	}
	if rep.Actor != 100 {
		t.Errorf("all actors execute every step: actor%% = %g", rep.Actor)
	}
	// Alternating control: both branches execute.
	alt := &testcase.Set{Sources: []testcase.Source{{
		Kind: testcase.Pulse, Period: 2, Width: 1, High: 1, Low: -1,
	}}}
	res, err = e.Run(alt, 10, 0)
	if err != nil {
		t.Fatal(err)
	}
	rep = e.Layout().Report(res.Coverage)
	if rep.CondCovered != 2 {
		t.Errorf("alternating control: cond %d/2", rep.CondCovered)
	}
}

func logicModel(t *testing.T) *actors.Compiled {
	t.Helper()
	m := model.NewBuilder("LG").
		Add("A", "Inport", 0, 1, model.WithOutKind(types.Bool), model.WithParam("Port", "1")).
		Add("B", "Inport", 0, 1, model.WithOutKind(types.Bool), model.WithParam("Port", "2")).
		Add("And", "Logic", 2, 1, model.WithOperator("AND")).
		Add("Out", "Outport", 1, 0, model.WithParam("Port", "1")).
		Wire("A", "And", 0).
		Wire("B", "And", 1).
		Wire("And", "Out", 0).
		MustBuild()
	c, err := actors.Compile(m)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestLogicDecisionAndMCDC(t *testing.T) {
	c := logicModel(t)
	e, err := New(c, Options{Coverage: true})
	if err != nil {
		t.Fatal(err)
	}
	// Inputs (1,1): decision true only; both conds determine while true.
	res, err := e.Run(constSet(1, 1), 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	rep := e.Layout().Report(res.Coverage)
	if rep.DecCovered != 1 || rep.DecTotal != 2 {
		t.Errorf("dec %d/%d after TT only", rep.DecCovered, rep.DecTotal)
	}
	if rep.MCDCCovered != 0 || rep.MCDCTotal != 2 {
		t.Errorf("mcdc %d/%d after TT only", rep.MCDCCovered, rep.MCDCTotal)
	}
	// Exercise TT, TF, FT: full MC/DC for a 2-input AND.
	seq := &testcase.Set{Sources: []testcase.Source{
		{Kind: testcase.Table, Values: []float64{1, 1, 0}},
		{Kind: testcase.Table, Values: []float64{1, 0, 1}},
	}}
	res, err = e.Run(seq, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	rep = e.Layout().Report(res.Coverage)
	if rep.DecCovered != 2 {
		t.Errorf("dec %d/2 after TT,TF,FT", rep.DecCovered)
	}
	if rep.MCDCCovered != 2 {
		t.Errorf("mcdc %d/2 after TT,TF,FT", rep.MCDCCovered)
	}
}

func TestDataStoreRoundTrip(t *testing.T) {
	// quantity += In each step via DSRead -> Sum -> DSWrite; i32 store.
	m := model.NewBuilder("DS").
		Add("In", "Inport", 0, 1, model.WithOutKind(types.I32), model.WithParam("Port", "1")).
		Add("DSM", "DataStoreMemory", 0, 0, model.WithParam("Store", "quantity"), model.WithOutKind(types.I32)).
		Add("Rd", "DataStoreRead", 0, 1, model.WithParam("Store", "quantity"), model.WithOutKind(types.I32)).
		Add("Add", "Sum", 2, 1, model.WithOperator("++")).
		Add("Wr", "DataStoreWrite", 1, 0, model.WithParam("Store", "quantity")).
		Add("Out", "Outport", 1, 0, model.WithParam("Port", "1")).
		Wire("Rd", "Add", 0).
		Wire("In", "Add", 1).
		Wire("Add", "Wr", 0).
		Wire("Add", "Out", 0).
		MustBuild()
	c, err := actors.Compile(m)
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(c, Options{Diagnose: true, Monitor: []string{"Add"}})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run(constSet(5), 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	samples := res.Monitor["Add"]
	want := []string{"5", "10", "15", "20"}
	for i, w := range want {
		if samples[i].Value != w {
			t.Errorf("step %d = %s, want %s", i, samples[i].Value, w)
		}
	}
}

func TestDataStoreOverflowCaseStudyShape(t *testing.T) {
	// The CSEV case-study error 1: int store accumulating until overflow.
	m := model.NewBuilder("CS").
		Add("In", "Inport", 0, 1, model.WithOutKind(types.I32), model.WithParam("Port", "1")).
		Add("DSM", "DataStoreMemory", 0, 0, model.WithParam("Store", "quantity"), model.WithOutKind(types.I32)).
		Add("Rd", "DataStoreRead", 0, 1, model.WithParam("Store", "quantity"), model.WithOutKind(types.I32)).
		Add("Add", "Sum", 2, 1, model.WithOperator("++")).
		Add("Wr", "DataStoreWrite", 1, 0, model.WithParam("Store", "quantity")).
		Add("Out", "Outport", 1, 0, model.WithParam("Port", "1")).
		Wire("Rd", "Add", 0).
		Wire("In", "Add", 1).
		Wire("Add", "Wr", 0).
		Wire("Add", "Out", 0).
		MustBuild()
	c, err := actors.Compile(m)
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(c, Options{Diagnose: true, StopOnDiag: diagnose.WrapOnOverflow})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run(constSet(1e6), 1<<40, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.FirstDetectOf(diagnose.WrapOnOverflow) < 0 {
		t.Fatal("overflow not detected")
	}
	if res.Steps < 2000 || res.Steps > 2500 {
		t.Errorf("stopped at step %d, want ~2148", res.Steps)
	}
}

func TestCustomRangeAndDeltaChecks(t *testing.T) {
	c := switchModel(t)
	e, err := New(c, Options{Custom: []diagnose.CustomCheck{
		{Actor: "Sw", Name: "range", Kind: diagnose.RangeCheck, Lo: -5, Hi: 5},
		{Actor: "Sw", Name: "delta", Kind: diagnose.DeltaCheck, MaxDelta: 5},
	}})
	if err != nil {
		t.Fatal(err)
	}
	// Output flips between +10 and -10: range violated every step, delta
	// violated on each flip.
	alt := &testcase.Set{Sources: []testcase.Source{{
		Kind: testcase.Pulse, Period: 2, Width: 1, High: 1, Low: -1,
	}}}
	res, err := e.Run(alt, 6, 0)
	if err != nil {
		t.Fatal(err)
	}
	var rangeHits, deltaHits int64
	for k, n := range res.DiagCounts {
		if strings.Contains(k, "Custom") {
			_ = k
		}
		_ = n
	}
	for _, r := range res.Diags {
		if r.Kind != diagnose.Custom {
			continue
		}
		if strings.HasPrefix(r.Detail, "range:") {
			rangeHits++
		}
		if strings.HasPrefix(r.Detail, "delta:") {
			deltaHits++
		}
	}
	if rangeHits != 6 {
		t.Errorf("range check fired %d times, want 6", rangeHits)
	}
	if deltaHits != 5 {
		t.Errorf("delta check fired %d times, want 5 (every flip after the first step)", deltaHits)
	}
}

func TestCustomCallbackCheck(t *testing.T) {
	c := switchModel(t)
	e, err := New(c, Options{Custom: []diagnose.CustomCheck{{
		Actor: "Sw", Name: "cb", Kind: diagnose.CallbackCheck,
		Callback: func(step int64, v types.Value) (bool, string) {
			return v.AsFloat() > 0, "positive"
		},
	}}})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run(constSet(1), 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.DiagTotal != 3 {
		t.Errorf("callback fired %d times, want 3", res.DiagTotal)
	}
}

func TestCustomCheckValidation(t *testing.T) {
	c := switchModel(t)
	if _, err := New(c, Options{Custom: []diagnose.CustomCheck{{
		Actor: "NoSuch", Name: "x", Kind: diagnose.RangeCheck,
	}}}); err == nil {
		t.Error("unknown actor in custom check must fail")
	}
	if _, err := New(c, Options{Custom: []diagnose.CustomCheck{{
		Actor: "Sw", Name: "bad", Kind: diagnose.RangeCheck, Lo: 2, Hi: 1,
	}}}); err == nil {
		t.Error("Lo > Hi must fail")
	}
}

func TestRunForBudget(t *testing.T) {
	c := accumulatorModel(t)
	e, err := New(c, Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run(constSet(1, 1), math.MaxInt64, 30*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if res.Steps == 0 {
		t.Fatal("no steps executed within budget")
	}
	if res.ExecNanos < int64(20*time.Millisecond) {
		t.Errorf("exec time %v too short for 30ms budget", time.Duration(res.ExecNanos))
	}
}

func TestDeterministicHash(t *testing.T) {
	c := accumulatorModel(t)
	e, err := New(c, Options{})
	if err != nil {
		t.Fatal(err)
	}
	set := testcase.NewRandomSet(2, 42, -100, 100)
	r1, err := e.Run(set, 500, 0)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := e.Run(set, 500, 0)
	if err != nil {
		t.Fatal(err)
	}
	if r1.OutputHash != r2.OutputHash || r1.OutputHash == 0 {
		t.Errorf("hashes differ or zero: %x vs %x", r1.OutputHash, r2.OutputHash)
	}
	// Different seed must (overwhelmingly) change the hash.
	r3, err := e.Run(testcase.NewRandomSet(2, 43, -100, 100), 500, 0)
	if err != nil {
		t.Fatal(err)
	}
	if r3.OutputHash == r1.OutputHash {
		t.Error("different inputs produced identical hash")
	}
}

func TestTestcaseSourceCountMismatch(t *testing.T) {
	c := accumulatorModel(t)
	e, err := New(c, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(constSet(1), 10, 0); err == nil {
		t.Fatal("source/inport count mismatch must error")
	}
}
