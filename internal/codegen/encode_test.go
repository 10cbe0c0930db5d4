package codegen_test

import (
	"context"
	"encoding/json"
	"os/exec"
	"reflect"
	"strings"
	"testing"

	"accmos/internal/codegen"
	"accmos/internal/diagnose"
	"accmos/internal/harness"
	"accmos/internal/interp"
	"accmos/internal/model"
	"accmos/internal/simresult"
	"accmos/internal/testcase"
	"accmos/internal/types"
)

// TestResultEncoderRoundTrip: a document from the generated encoder that
// carries every section — diagnosis counts, first-detect steps, verbatim
// records whose details need JSON escaping, monitor samples, and a model
// name holding a quote and a backslash — decodes through
// simresult.DecodeGenerated to exactly what encoding/json reads, and
// agrees with the interpreter.
func TestResultEncoderRoundTrip(t *testing.T) {
	const name = `enc"od\er`
	c := compile(t, model.NewBuilder(name).
		Add("In", "Inport", 0, 1, model.WithOutKind(types.I32), model.WithParam("Port", "1")).
		Add("Acc", "Sum", 2, 1, model.WithOperator("++")).
		Add("D", "UnitDelay", 1, 1).
		Add("Out", "Outport", 1, 0, model.WithParam("Port", "1")).
		Wire("In", "Acc", 0).
		Wire("D", "Acc", 1).
		Wire("Acc", "D", 0).
		Wire("Acc", "Out", 0).
		MustBuild())
	set := testcase.NewRandomSet(1, 9, 1e5, 2e6)
	custom := []diagnose.CustomCheck{
		{Actor: "Acc", Name: "range \"q\"\t\\ 100%", Kind: diagnose.RangeCheck, Lo: -1e7, Hi: 1e7},
	}
	p, err := codegen.Generate(c, codegen.Options{
		Coverage: true, Diagnose: true, Monitor: []string{"Acc"}, Custom: custom, TestCases: set,
	})
	if err != nil {
		t.Fatal(err)
	}
	bin, _, err := harness.Build(context.Background(), p, t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	doc, err := exec.Command(bin, "-steps=3000").Output()
	if err != nil {
		t.Fatal(err)
	}

	var got, want simresult.Results
	if err := simresult.Decode(doc, &got); err != nil {
		t.Fatalf("%v\n%s", err, doc)
	}
	if err := json.Unmarshal(doc, &want); err != nil {
		t.Fatalf("encoding/json rejects the generated document: %v\n%s", err, doc)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("decode diverges from encoding/json:\n got  %+v\n want %+v", got, want)
	}

	if got.Model != name {
		t.Errorf("model name %q, want %q", got.Model, name)
	}
	if len(got.DiagCounts) < 2 || len(got.FirstDetect) != len(got.DiagCounts) {
		t.Errorf("diag sections: counts %v first %v", got.DiagCounts, got.FirstDetect)
	}
	escaped := false
	for _, r := range got.Diags {
		escaped = escaped || strings.HasPrefix(r.Detail, custom[0].Name+": value ")
	}
	if !escaped {
		t.Errorf("no verbatim record carries the escaped custom-check detail: %+v", got.Diags)
	}
	if len(got.Monitor["Acc"]) == 0 || got.MonitorHits["Acc"] != 3000 {
		t.Errorf("monitor sections: %d samples, %d hits", len(got.Monitor["Acc"]), got.MonitorHits["Acc"])
	}

	e, err := interp.New(c, interp.Options{Coverage: true, Diagnose: true, Monitor: []string{"Acc"}, Custom: custom})
	if err != nil {
		t.Fatal(err)
	}
	ir, err := e.Run(set, 3000, 0)
	if err != nil {
		t.Fatal(err)
	}
	assertEquivalent(t, ir, &got) // verbatim records and monitor samples included
}
