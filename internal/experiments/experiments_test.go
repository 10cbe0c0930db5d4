package experiments

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

// Experiment tests use miniature scales: the goal is exercising the full
// pipelines (generation, compilation, four engines, reporting), not
// producing meaningful timings.

func TestTable2Small(t *testing.T) {
	rows, err := Table2(Config{
		Steps:  2000,
		Models: []string{"SPV", "CSEV"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if !r.HashOK {
			t.Errorf("%s: engines disagree on outputs", r.Model)
		}
		if r.AccMoS <= 0 || r.SSE <= 0 || r.SSEac <= 0 || r.SSErac <= 0 {
			t.Errorf("%s: missing timings %+v", r.Model, r)
		}
		if r.SpeedupSSE <= 1 {
			t.Errorf("%s: AccMoS slower than SSE (%.2fx) — the headline result must hold even at small scale",
				r.Model, r.SpeedupSSE)
		}
	}
	var buf bytes.Buffer
	FormatTable2(&buf, rows)
	if !strings.Contains(buf.String(), "SPV") || !strings.Contains(buf.String(), "mean") {
		t.Errorf("formatted table incomplete:\n%s", buf.String())
	}
}

func TestTable3Small(t *testing.T) {
	rows, err := Table3(Config{
		Budgets: []time.Duration{50 * time.Millisecond},
		Models:  []string{"SPV"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("rows = %d", len(rows))
	}
	r := rows[0]
	if r.AccMoS.Steps == 0 || r.SSE.Steps == 0 {
		t.Fatalf("no steps executed: %+v", r)
	}
	if r.AccMoS.Steps <= r.SSE.Steps {
		t.Errorf("AccMoS executed %d steps vs SSE %d in the same budget; expected more",
			r.AccMoS.Steps, r.SSE.Steps)
	}
	if r.AccMoS.Report.Actor < r.SSE.Report.Actor {
		t.Errorf("AccMoS actor coverage %.1f%% below SSE %.1f%%",
			r.AccMoS.Report.Actor, r.SSE.Report.Actor)
	}
	var buf bytes.Buffer
	FormatTable3(&buf, rows)
	if !strings.Contains(buf.String(), "SPV") {
		t.Errorf("formatted table incomplete:\n%s", buf.String())
	}
}

func TestCaseStudySmall(t *testing.T) {
	res, err := CaseStudy(Config{ChargeRate: 2_000_000})
	if err != nil {
		t.Fatal(err)
	}
	if res.OverflowAccMoS.Step < 0 || res.OverflowSSE.Step < 0 {
		t.Fatalf("overflow not detected: %+v", res)
	}
	if res.OverflowAccMoS.Step != res.OverflowSSE.Step {
		t.Errorf("engines disagree on overflow step: AccMoS %d vs SSE %d",
			res.OverflowAccMoS.Step, res.OverflowSSE.Step)
	}
	if got, want := res.OverflowAccMoS.Step, res.PredictedStep; got < want-2 || got > want+2 {
		t.Errorf("overflow step %d, predicted %d", got, want)
	}
	if res.DowncastAccMoS.Step != 0 || res.DowncastSSE.Step != 0 {
		t.Errorf("downcast must be immediate: AccMoS %d SSE %d",
			res.DowncastAccMoS.Step, res.DowncastSSE.Step)
	}
	var buf bytes.Buffer
	FormatCaseStudy(&buf, res)
	if !strings.Contains(buf.String(), "error 1") {
		t.Errorf("formatted case study incomplete:\n%s", buf.String())
	}
}

func TestFigure1Small(t *testing.T) {
	res, err := Figure1(Config{}, 100_000)
	if err != nil {
		t.Fatal(err)
	}
	if res.SSE.Step != res.AccMoS.Step || res.SSE.Step < 0 {
		t.Fatalf("detection steps: SSE %d AccMoS %d", res.SSE.Step, res.AccMoS.Step)
	}
	want := int64(1) << 31 / (2 * 100_000)
	if res.DetectStep < want-2 || res.DetectStep > want+2 {
		t.Errorf("detect step %d, want ~%d", res.DetectStep, want)
	}
	var buf bytes.Buffer
	FormatFigure1(&buf, res)
	if !strings.Contains(buf.String(), "speedup") {
		t.Errorf("formatted figure incomplete:\n%s", buf.String())
	}
}

// TestBenchOptSmall runs the optimizer benchmark on one O1 shape and one
// O2-sensitive shape: every engine row and the TOTAL gate row must carry
// a green O0-vs-O1-vs-O2 oracle, the O1 pipeline must shrink the O1
// shape and the O2 lowering must fuse expressions of the O2 shape.
func TestBenchOptSmall(t *testing.T) {
	rows, err := BenchOpt(Config{Steps: 2000, Models: []string{"OPTC", "OPTF"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2*4+1 {
		t.Fatalf("rows = %d, want 9", len(rows))
	}
	for _, r := range rows {
		if !r.EquivOK {
			t.Errorf("%s %s: O0/O1/O2 oracle failed", r.Model, r.Engine)
		}
		if r.Model == "TOTAL" {
			continue
		}
		if r.O0 <= 0 || r.O1 <= 0 || r.O2 <= 0 {
			t.Errorf("%s %s: missing timings %+v", r.Model, r.Engine, r)
		}
		if r.Model == "OPTC" && r.ActorsAfter >= r.ActorsBefore {
			t.Errorf("%s %s: O1 kept %d of %d actors", r.Model, r.Engine, r.ActorsAfter, r.ActorsBefore)
		}
		if r.Model == "OPTF" && r.FusedExprs == 0 {
			t.Errorf("%s %s: O2 fused no expressions", r.Model, r.Engine)
		}
	}
	var buf bytes.Buffer
	FormatOpt(&buf, rows)
	if !strings.Contains(buf.String(), "OPTF") {
		t.Errorf("formatted table incomplete:\n%s", buf.String())
	}
}
