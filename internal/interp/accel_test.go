package interp

import (
	"math"
	"testing"
	"time"

	"accmos/internal/actors"
	"accmos/internal/model"
	"accmos/internal/testcase"
	"accmos/internal/types"
)

func accelFixture(t *testing.T) *actors.Compiled {
	t.Helper()
	m := model.NewBuilder("AC").
		Add("In", "Inport", 0, 1, model.WithOutKind(types.F64), model.WithParam("Port", "1")).
		Add("G", "Gain", 1, 1, model.WithParam("Gain", "2")).
		Add("D", "UnitDelay", 1, 1).
		Add("Out", "Outport", 1, 0, model.WithParam("Port", "1")).
		Chain("In", "G", "D", "Out").
		MustBuild()
	c, err := actors.Compile(m)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestAccelMatchesSSE(t *testing.T) {
	c := accelFixture(t)
	set := testcase.NewRandomSet(1, 5, -10, 10)
	sse, err := New(c, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := sse.Run(set, 1000, 0)
	if err != nil {
		t.Fatal(err)
	}
	ac, err := NewAccel(c)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ac.Run(set, 1000, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got.OutputHash != ref.OutputHash {
		t.Errorf("hash %x != %x", got.OutputHash, ref.OutputHash)
	}
	if got.Engine != "SSEac" {
		t.Errorf("engine = %q", got.Engine)
	}
	if got.Coverage != nil || got.DiagTotal != 0 {
		t.Error("Accelerator mode must not produce coverage or diagnostics")
	}
}

func TestAccelRunForBudget(t *testing.T) {
	c := accelFixture(t)
	ac, err := NewAccel(c)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ac.Run(testcase.NewRandomSet(1, 5, -10, 10), math.MaxInt64, 20*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if res.Steps == 0 {
		t.Fatal("no steps within budget")
	}
}

func TestAccelRepeatedRunsAreClean(t *testing.T) {
	// State, stores and the host goroutine must reset between runs.
	c := accelFixture(t)
	ac, err := NewAccel(c)
	if err != nil {
		t.Fatal(err)
	}
	set := testcase.NewRandomSet(1, 9, -10, 10)
	r1, err := ac.Run(set, 500, 0)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := ac.Run(set, 500, 0)
	if err != nil {
		t.Fatal(err)
	}
	if r1.OutputHash != r2.OutputHash {
		t.Error("re-run with same inputs changed outputs (stale state?)")
	}
}

func TestEnginesWithNoOutports(t *testing.T) {
	// A model whose only sinks are terminators still simulates; the output
	// hash stays at the FNV offset in every engine.
	m := model.NewBuilder("NOOUT").
		Add("In", "Inport", 0, 1, model.WithOutKind(types.F64), model.WithParam("Port", "1")).
		Add("G", "Gain", 1, 1, model.WithParam("Gain", "3")).
		Add("T", "Terminator", 1, 0).
		Chain("In", "G", "T").
		MustBuild()
	c, err := actors.Compile(m)
	if err != nil {
		t.Fatal(err)
	}
	set := testcase.NewRandomSet(1, 2, -1, 1)
	sse, err := New(c, Options{Coverage: true})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sse.Run(set, 100, 0)
	if err != nil {
		t.Fatal(err)
	}
	ac, err := NewAccel(c)
	if err != nil {
		t.Fatal(err)
	}
	acRes, err := ac.Run(set, 100, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.OutputHash != acRes.OutputHash {
		t.Error("hashes differ on outport-free model")
	}
}
