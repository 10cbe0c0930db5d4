package experiments

import (
	"bytes"
	"strings"
	"testing"
	"time"

	accmos "accmos"
	"accmos/internal/benchmodels"
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
	if len(rows) != 2*4 {
		t.Fatalf("rows = %d, want 8", len(rows))
	}
	for _, g := range group(rows, func(r MetricRow) string { return r.Model }) {
		acc := find(g, "", "AccMoS")
		if acc.HashOK == nil || !*acc.HashOK {
			t.Errorf("%s: engines disagree on outputs", acc.Model)
		}
		for _, r := range g {
			if r.WallNanos <= 0 || r.Steps != 2000 {
				t.Errorf("%s %s: missing timing %+v", r.Model, r.Engine, r)
			}
		}
		if sp := ratio(find(g, "", "SSE").WallNanos, acc.WallNanos); sp <= 1 {
			t.Errorf("%s: AccMoS slower than SSE (%.2fx) — the headline result must hold even at small scale",
				acc.Model, sp)
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
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	acc, sse := find(rows, "", "AccMoS"), find(rows, "", "SSE")
	if acc.Steps == 0 || sse.Steps == 0 {
		t.Fatalf("no steps executed: %+v", rows)
	}
	if acc.Steps <= sse.Steps {
		t.Errorf("AccMoS executed %d steps vs SSE %d in the same budget; expected more", acc.Steps, sse.Steps)
	}
	if acc.Coverage.Actor < sse.Coverage.Actor {
		t.Errorf("AccMoS actor coverage %.1f%% below SSE %.1f%%", acc.Coverage.Actor, sse.Coverage.Actor)
	}
	var buf bytes.Buffer
	FormatTable3(&buf, rows)
	if !strings.Contains(buf.String(), "SPV") {
		t.Errorf("formatted table incomplete:\n%s", buf.String())
	}
}

func TestCaseStudySmall(t *testing.T) {
	const rate = 2_000_000
	rows, err := CaseStudy(Config{ChargeRate: rate})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(rows))
	}
	accO, sseO := find(rows, "overflow", "AccMoS"), find(rows, "overflow", "SSE")
	if step(accO) < 0 || step(sseO) < 0 {
		t.Fatalf("overflow not detected: %+v", rows)
	}
	if step(accO) != step(sseO) {
		t.Errorf("engines disagree on overflow step: AccMoS %d vs SSE %d", step(accO), step(sseO))
	}
	if got, want := step(accO), benchmodels.OverflowStepOf(rate); got < want-2 || got > want+2 {
		t.Errorf("overflow step %d, predicted %d", got, want)
	}
	if a, s := step(find(rows, "downcast", "AccMoS")), step(find(rows, "downcast", "SSE")); a != 0 || s != 0 {
		t.Errorf("downcast must be immediate: AccMoS %d SSE %d", a, s)
	}
	var buf bytes.Buffer
	FormatCaseStudy(&buf, rate, rows)
	if !strings.Contains(buf.String(), "error 1") {
		t.Errorf("formatted case study incomplete:\n%s", buf.String())
	}
}

func TestFigure1Small(t *testing.T) {
	rows, err := Figure1(Config{}, 100_000)
	if err != nil {
		t.Fatal(err)
	}
	acc, sse := find(rows, "", "AccMoS"), find(rows, "", "SSE")
	if step(sse) != step(acc) || step(sse) < 0 {
		t.Fatalf("detection steps: SSE %d AccMoS %d", step(sse), step(acc))
	}
	want := int64(1) << 31 / (2 * 100_000)
	if got := step(acc); got < want-2 || got > want+2 {
		t.Errorf("detect step %d, want ~%d", got, want)
	}
	var buf bytes.Buffer
	FormatFigure1(&buf, 100_000, rows)
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
	if len(rows) != 2*4*3+1 {
		t.Fatalf("rows = %d, want 25", len(rows))
	}
	for _, r := range rows {
		if r.HashOK == nil || !*r.HashOK {
			t.Errorf("%s %s %s: O0/O1/O2 oracle failed", r.Model, r.Engine, r.OptLevel)
		}
		if r.Model == "TOTAL" {
			continue
		}
		if r.WallNanos <= 0 {
			t.Errorf("%s %s %s: missing timing %+v", r.Model, r.Engine, r.OptLevel, r)
		}
		if r.Model == "OPTC" && r.ActorsAfter >= r.ActorsBefore {
			t.Errorf("%s %s: O1 kept %d of %d actors", r.Model, r.Engine, r.ActorsAfter, r.ActorsBefore)
		}
		if r.Model == "OPTF" && r.OptLevel == "O2" && r.FusedExprs == 0 {
			t.Errorf("%s %s: O2 fused no expressions", r.Model, r.Engine)
		}
	}
	var buf bytes.Buffer
	FormatOpt(&buf, rows)
	if !strings.Contains(buf.String(), "OPTF") {
		t.Errorf("formatted table incomplete:\n%s", buf.String())
	}
}

// TestAblationSmall runs the ablation at a few thousand LANS steps.
// Coverage never changes the generated program's outputs, and with both
// instrumentations on its output stream equals SSE's. The
// diagnosis-off variants may differ from SSE (the known NaN-payload
// defect, DESIGN.md), which this test neither hides nor asserts. The A4
// rows carry the front end's and the build's trace spans.
func TestAblationSmall(t *testing.T) {
	cfg := Config{Steps: 3000}
	rows, err := Ablation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(instrumentations)+2 {
		t.Fatalf("rows = %d, want %d", len(rows), len(instrumentations)+2)
	}
	for _, v := range instrumentations {
		if r := find(rows, v.variant, "AccMoS"); r.Model != "LANS" || r.Steps != cfg.Steps || r.WallNanos <= 0 || r.HashOK == nil {
			t.Errorf("A1 %s row: %+v", v.variant, r)
		}
	}
	if r := find(rows, "both", "AccMoS"); !*r.HashOK {
		t.Error("LANS with coverage and diagnosis differs from SSE")
	}
	cfg.fillDefaults()
	m := benchmodels.MustBuild("LANS")
	hash := func(cov, dia bool) uint64 {
		opts := cfg.options(m)
		opts.Steps, opts.Coverage, opts.Diagnose = cfg.Steps, cov, dia
		res, err := accmos.Simulate(m, opts)
		if err != nil {
			t.Fatal(err)
		}
		return res.OutputHash
	}
	if none, cov := hash(false, false), hash(true, false); none != cov {
		t.Errorf("coverage changed the output hash without diagnosis: %x vs %x", none, cov)
	}
	if dia, both := hash(false, true), hash(true, true); dia != both {
		t.Errorf("coverage changed the output hash with diagnosis: %x vs %x", dia, both)
	}

	gen, cold := find(rows, "generate", "AccMoS"), find(rows, "cold-build", "AccMoS")
	if gen.Model != "RAC" || gen.Phases["generate"] <= 0 {
		t.Errorf("A4 generate row: %+v", gen)
	}
	for _, span := range []string{"generate", "compile.gc", "compile.link"} {
		if cold.Phases[span] <= 0 {
			t.Errorf("A4 cold-build row has no %s phase: %v", span, cold.Phases)
		}
	}
	if cold.Model != "CSEV" || cold.CacheHit || cold.CompileNanos <= 0 {
		t.Errorf("A4 cold-build row: %+v", cold)
	}
	var buf bytes.Buffer
	FormatAblation(&buf, rows)
	if !strings.Contains(buf.String(), "diagnosis") || !strings.Contains(buf.String(), "cold-build") {
		t.Errorf("formatted ablation incomplete:\n%s", buf.String())
	}
}
