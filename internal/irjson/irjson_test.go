package irjson

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	"accmos/internal/actors"
	"accmos/internal/benchmodels"
	"accmos/internal/interp"
	"accmos/internal/model"
	"accmos/internal/testcase"
)

func TestRoundTripBenchmarkModel(t *testing.T) {
	m := benchmodels.MustBuild("CSEV")
	doc := FromModel(m)
	var buf bytes.Buffer
	if err := Encode(&buf, doc); err != nil {
		t.Fatal(err)
	}
	back, err := Decode(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	m2, err := back.ToModel()
	if err != nil {
		t.Fatal(err)
	}
	if len(m2.Actors) != len(m.Actors) || len(m2.Connections) != len(m.Connections) {
		t.Fatalf("shape lost: %d/%d actors, %d/%d connections",
			len(m2.Actors), len(m.Actors), len(m2.Connections), len(m.Connections))
	}
	// Behavioural equivalence through the interpreter.
	run := func(mm *model.Model) uint64 {
		c, err := actors.Compile(mm)
		if err != nil {
			t.Fatal(err)
		}
		e, err := interp.New(c, interp.Options{})
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.Run(testcase.NewRandomSet(len(c.Inports), 3, -50, 50), 500, 0)
		if err != nil {
			t.Fatal(err)
		}
		return res.OutputHash
	}
	if run(m) != run(m2) {
		t.Error("IR round trip changed behaviour")
	}
}

func TestFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "m.json")
	m := benchmodels.Figure1Model()
	if err := WriteModelFile(path, m); err != nil {
		t.Fatal(err)
	}
	back, err := ReadModelFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.Name != m.Name || len(back.Actors) != len(m.Actors) {
		t.Errorf("lost shape: %s %d", back.Name, len(back.Actors))
	}
}

func TestDecodeRejectsUnknownFields(t *testing.T) {
	// Strict decoding catches importer schema drift early.
	if _, err := Decode(strings.NewReader(`{"name":"M","nodes":[],"edges":[],"bogus":1}`)); err == nil {
		t.Fatal("unknown field must be rejected")
	}
}

func TestToModelValidation(t *testing.T) {
	bad := []*Document{
		{}, // no name
		{Name: "M", Nodes: []Node{{ID: "A", Kind: "Gain", In: -1, Out: 1}}},
		{Name: "M", Nodes: []Node{{ID: "A", Kind: "Constant", Out: 1}, {ID: "A", Kind: "Constant", Out: 1}}},
		{Name: "M", Edges: []Edge{{From: "x", To: "y"}}},
	}
	for i, d := range bad {
		if _, err := d.ToModel(); err == nil {
			t.Errorf("bad[%d] must fail", i)
		}
	}
}

func TestHandAuthoredPtolemyStyleDocument(t *testing.T) {
	// A document such as a Ptolemy-II importer would emit: actor classes
	// mapped onto the shared kind vocabulary.
	src := `{
	  "name": "PTOL",
	  "nodes": [
	    {"id": "clock", "kind": "Ramp", "group": "sources", "in": 0, "out": 1,
	     "params": {"Slope": "0.5"}},
	    {"id": "scale", "kind": "Gain", "group": "arith", "in": 1, "out": 1,
	     "params": {"Gain": "2"}},
	    {"id": "display", "kind": "Outport", "in": 1, "out": 0,
	     "params": {"Port": "1"}}
	  ],
	  "edges": [
	    {"from": "clock", "fromPort": 0, "to": "scale", "toPort": 0},
	    {"from": "scale", "fromPort": 0, "to": "display", "toPort": 0}
	  ]
	}`
	doc, err := Decode(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	m, err := doc.ToModel()
	if err != nil {
		t.Fatal(err)
	}
	c, err := actors.Compile(m)
	if err != nil {
		t.Fatal(err)
	}
	e, err := interp.New(c, interp.Options{Monitor: []string{"scale"}})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run(&testcase.Set{}, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"0", "1", "2"} // 2 * 0.5 * step
	for i, w := range want {
		if res.Monitor["scale"][i].Value != w {
			t.Errorf("step %d = %s, want %s", i, res.Monitor["scale"][i].Value, w)
		}
	}
}

// FuzzDecode hardens the IR parser the same way as the slx fuzzer.
func FuzzDecode(f *testing.F) {
	var seed bytes.Buffer
	if err := Encode(&seed, FromModel(benchmodels.Figure1Model())); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.Bytes())
	f.Add([]byte(`{"name":"M","nodes":[],"edges":[]}`))
	f.Add([]byte(`{`))
	f.Fuzz(func(t *testing.T, data []byte) {
		doc, err := Decode(bytes.NewReader(data))
		if err != nil {
			return
		}
		m, err := doc.ToModel()
		if err != nil {
			return
		}
		_, _ = actors.Compile(m)
	})
}
