package rapid_test

import (
	"fmt"
	"math"
	"testing"

	"accmos/internal/actors"
	"accmos/internal/interp"
	"accmos/internal/model"
	"accmos/internal/rapid"
	"accmos/internal/testcase"
	"accmos/internal/types"
)

// The fast engines carry no instrumentation, so their correctness oracle
// is hash equality against the reference interpreter on the same streams.

func compileModel(t *testing.T, m *model.Model) *actors.Compiled {
	t.Helper()
	c, err := actors.Compile(m)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// crossCheck runs SSE, SSEac and SSErac on the same model/streams and
// requires identical output hashes.
func crossCheck(t *testing.T, c *actors.Compiled, set *testcase.Set, steps int64) {
	t.Helper()
	sse, err := interp.New(c, interp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	refRes, err := sse.Run(set, steps, 0)
	if err != nil {
		t.Fatal(err)
	}
	ac, err := interp.NewAccel(c)
	if err != nil {
		t.Fatal(err)
	}
	acRes, err := ac.Run(set, steps, 0)
	if err != nil {
		t.Fatal(err)
	}
	rc, err := rapid.New(c)
	if err != nil {
		t.Fatal(err)
	}
	rcRes, err := rc.Run(set, steps, 0)
	if err != nil {
		t.Fatal(err)
	}
	if acRes.OutputHash != refRes.OutputHash {
		t.Errorf("SSEac hash %x != SSE hash %x", acRes.OutputHash, refRes.OutputHash)
	}
	if rcRes.OutputHash != refRes.OutputHash {
		t.Errorf("SSErac hash %x != SSE hash %x", rcRes.OutputHash, refRes.OutputHash)
	}
	if acRes.Steps != steps || rcRes.Steps != steps {
		t.Errorf("step counts: ac %d rac %d want %d", acRes.Steps, rcRes.Steps, steps)
	}
}

func TestFastEnginesMatchSSEMixedModel(t *testing.T) {
	for _, k := range []types.Kind{types.I16, types.I32, types.U32, types.F32, types.F64} {
		k := k
		t.Run(k.GoType(), func(t *testing.T) {
			t.Parallel()
			b := model.NewBuilder("MIX" + k.GoType())
			b.Add("InA", "Inport", 0, 1, model.WithOutKind(k), model.WithParam("Port", "1"))
			b.Add("InB", "Inport", 0, 1, model.WithOutKind(k), model.WithParam("Port", "2"))
			b.Add("Sm", "Sum", 3, 1, model.WithOperator("++-"))
			b.Add("Pr", "Product", 2, 1, model.WithOperator("*/"))
			b.Add("G", "Gain", 1, 1, model.WithParam("Gain", "3"))
			b.Add("Bi", "Bias", 1, 1, model.WithParam("Bias", "7"))
			b.Add("D", "UnitDelay", 1, 1)
			b.Add("Cz", "CompareToZero", 1, 1, model.WithOperator(">"))
			b.Add("Cc", "CompareToConstant", 1, 1, model.WithOperator("<"), model.WithParam("Constant", "20"))
			b.Add("Rel", "RelationalOperator", 2, 1, model.WithOperator(">="))
			b.Add("Lg", "Logic", 3, 1, model.WithOperator("AND"))
			b.Add("Sw", "Switch", 3, 1, model.WithOperator(">="), model.WithParam("Threshold", "1"))
			// Bridged types mixed in: Saturation, Abs, Math.
			satMin := "-50"
			if k.IsUnsigned() {
				satMin = "5"
			}
			b.Add("Sat", "Saturation", 1, 1, model.WithParam("Min", satMin), model.WithParam("Max", "50"))
			b.Add("Ab", "Abs", 1, 1)
			b.Wire("InA", "Sm", 0)
			b.Wire("InB", "Sm", 1)
			b.Wire("D", "Sm", 2)
			b.Wire("Sm", "D", 0)
			b.Wire("InA", "Pr", 0)
			b.Wire("InB", "Pr", 1)
			b.Wire("Sm", "G", 0)
			b.Wire("G", "Bi", 0)
			b.Wire("InA", "Cz", 0)
			b.Wire("InB", "Cc", 0)
			b.Wire("InA", "Rel", 0)
			b.Wire("InB", "Rel", 1)
			b.Wire("Cz", "Lg", 0)
			b.Wire("Cc", "Lg", 1)
			b.Wire("Rel", "Lg", 2)
			b.Wire("Bi", "Sw", 0)
			b.Wire("InB", "Sw", 1)
			b.Wire("Pr", "Sw", 2)
			b.Wire("Sw", "Sat", 0)
			b.Wire("InB", "Ab", 0)
			n := 0
			for _, src := range []string{"Sm", "Pr", "Sw", "Lg", "Sat", "Ab"} {
				out := fmt.Sprintf("Out%d", n)
				b.Add(out, "Outport", 1, 0, model.WithParam("Port", fmt.Sprint(n+1)))
				b.Wire(src, out, 0)
				n++
			}
			c := compileModel(t, b.MustBuild())
			lo := -100.0
			if k.IsUnsigned() {
				lo = 0
			}
			crossCheck(t, c, testcase.NewRandomSet(2, 61, lo, 100), 4000)
		})
	}
}

func TestRapidSpecializationCoverage(t *testing.T) {
	// The mixed model must actually exercise the specialized templates —
	// otherwise the rapid engine silently degrades to bridge-everything.
	b := model.NewBuilder("SPEC")
	b.Add("In", "Inport", 0, 1, model.WithOutKind(types.F64), model.WithParam("Port", "1"))
	b.Add("C", "Constant", 0, 1, model.WithOutKind(types.F64), model.WithParam("Value", "2"))
	b.Add("Sm", "Sum", 2, 1, model.WithOperator("++"))
	b.Add("G", "Gain", 1, 1, model.WithParam("Gain", "1.5"))
	b.Add("D", "UnitDelay", 1, 1)
	b.Add("Out", "Outport", 1, 0, model.WithParam("Port", "1"))
	b.Wire("In", "Sm", 0)
	b.Wire("C", "Sm", 1)
	b.Wire("Sm", "G", 0)
	b.Wire("G", "D", 0)
	b.Wire("D", "Out", 0)
	c := compileModel(t, b.MustBuild())
	e, err := rapid.New(c)
	if err != nil {
		t.Fatal(err)
	}
	spec, bridged := e.Stats()
	if spec < 5 {
		t.Errorf("specialized %d actors, want >= 5 (In, C, Sm, G, D)", spec)
	}
	if bridged != 0 {
		t.Errorf("bridged %d actors, want 0", bridged)
	}
}

func TestRapidSourceCountMismatch(t *testing.T) {
	b := model.NewBuilder("M")
	b.Add("In", "Inport", 0, 1, model.WithOutKind(types.F64), model.WithParam("Port", "1"))
	b.Add("Out", "Outport", 1, 0, model.WithParam("Port", "1"))
	b.Wire("In", "Out", 0)
	c := compileModel(t, b.MustBuild())
	e, err := rapid.New(c)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(&testcase.Set{}, 10, 0); err == nil {
		t.Fatal("source mismatch must error")
	}
	ac, err := interp.NewAccel(c)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ac.Run(&testcase.Set{}, 10, 0); err == nil {
		t.Fatal("accel source mismatch must error")
	}
}

func TestFastEnginesDataStores(t *testing.T) {
	b := model.NewBuilder("DS")
	b.Add("In", "Inport", 0, 1, model.WithOutKind(types.I32), model.WithParam("Port", "1"))
	b.Add("DSM", "DataStoreMemory", 0, 0, model.WithParam("Store", "q"), model.WithOutKind(types.I32)).
		Add("Rd", "DataStoreRead", 0, 1, model.WithParam("Store", "q"), model.WithOutKind(types.I32)).
		Add("Add", "Sum", 2, 1, model.WithOperator("++")).
		Add("Wr", "DataStoreWrite", 1, 0, model.WithParam("Store", "q")).
		Add("Out", "Outport", 1, 0, model.WithParam("Port", "1")).
		Wire("Rd", "Add", 0).
		Wire("In", "Add", 1).
		Wire("Add", "Wr", 0).
		Wire("Add", "Out", 0)
	c := compileModel(t, b.MustBuild())
	crossCheck(t, c, testcase.NewRandomSet(1, 71, -100, 100), 2000)
}

func TestRapidRunForBudget(t *testing.T) {
	b := model.NewBuilder("B")
	b.Add("In", "Inport", 0, 1, model.WithOutKind(types.F64), model.WithParam("Port", "1"))
	b.Add("G", "Gain", 1, 1, model.WithParam("Gain", "2"))
	b.Add("Out", "Outport", 1, 0, model.WithParam("Port", "1"))
	b.Chain("In", "G", "Out")
	c := compileModel(t, b.MustBuild())
	e, err := rapid.New(c)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run(testcase.NewRandomSet(1, 3, 0, 1), math.MaxInt64, 20_000_000) // 20ms
	if err != nil {
		t.Fatal(err)
	}
	if res.Steps == 0 {
		t.Fatal("no steps within budget")
	}
}

func TestBridgeOnlyMatchesSpecialized(t *testing.T) {
	// The ablation build must be semantically identical to the specialized
	// build — only slower.
	b := model.NewBuilder("ABL")
	b.Add("In", "Inport", 0, 1, model.WithOutKind(types.I32), model.WithParam("Port", "1"))
	b.Add("Sm", "Sum", 2, 1, model.WithOperator("+-"))
	b.Add("D", "UnitDelay", 1, 1)
	b.Add("G", "Gain", 1, 1, model.WithParam("Gain", "3"))
	b.Add("Out", "Outport", 1, 0, model.WithParam("Port", "1"))
	b.Wire("In", "Sm", 0)
	b.Wire("D", "Sm", 1)
	b.Wire("Sm", "D", 0)
	b.Wire("Sm", "G", 0)
	b.Wire("G", "Out", 0)
	c := compileModel(t, b.MustBuild())
	set := testcase.NewRandomSet(1, 21, -1000, 1000)
	spec, err := rapid.New(c)
	if err != nil {
		t.Fatal(err)
	}
	bridge, err := rapid.NewBridgeOnly(c)
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := spec.Stats(); n == 0 {
		t.Error("specialized build specialized nothing")
	}
	if _, n := bridge.Stats(); n == 0 {
		t.Error("bridge-only build bridged nothing")
	}
	rs, err := spec.Run(set, 3000, 0)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := bridge.Run(set, 3000, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rs.OutputHash != rb.OutputHash {
		t.Errorf("bridge-only hash %x != specialized %x", rb.OutputHash, rs.OutputHash)
	}
}
