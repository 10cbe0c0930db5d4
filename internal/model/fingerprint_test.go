package model

import (
	"testing"

	"accmos/internal/types"
)

func TestFingerprintStableAcrossClone(t *testing.T) {
	m := twoActorModel(t)
	m.Actor("A").SetParam("Value", "3")
	m.Actor("A").SetParam("OutDataType", "int32")
	if got, want := m.Clone().Fingerprint(), m.Fingerprint(); got != want {
		t.Fatalf("clone fingerprint %x, original %x", got, want)
	}
}

// Every structural edit must move the fingerprint: it keys the
// front-end memo, so an edit that kept it would serve a stale program.
func TestFingerprintCoversStructure(t *testing.T) {
	base := func() *Model {
		m := twoActorModel(t)
		m.Actor("A").SetParam("Value", "3")
		return m
	}
	edits := map[string]func(m *Model){
		"name":        func(m *Model) { m.Name = "N" },
		"actor name":  func(m *Model) { m.Actors[0].Name = "A2" },
		"type":        func(m *Model) { m.Actors[0].Type = "Ground" },
		"operator":    func(m *Model) { m.Actors[0].Operator = "+" },
		"subsystem":   func(m *Model) { m.Actors[0].Subsystem = "S" },
		"param value": func(m *Model) { m.Actors[0].SetParam("Value", "4") },
		"param name":  func(m *Model) { m.Actors[0].Params = map[string]string{"Valu": "e3"} },
		"new param":   func(m *Model) { m.Actors[1].SetParam("Port", "1") },
		"port name":   func(m *Model) { m.Actors[0].Outputs[0].Name = "o" },
		"port kind":   func(m *Model) { m.Actors[0].Outputs[0].Kind = types.I8 },
		"port width":  func(m *Model) { m.Actors[0].Outputs[0].Width = 4 },
		"new input":   func(m *Model) { m.Actors[1].Inputs = append(m.Actors[1].Inputs, Port{}) },
		"conn port":   func(m *Model) { m.Connections[0].SrcPort = 1 },
		"conn dst":    func(m *Model) { m.Connections[0].DstActor = "A" },
		"extra conn":  func(m *Model) { m.Connect("A", 0, "B", 0) },
		"actor order": func(m *Model) { m.Actors[0], m.Actors[1] = m.Actors[1], m.Actors[0] },
	}
	want := base().Fingerprint()
	for name, edit := range edits {
		m := base()
		edit(m)
		if m.Fingerprint() == want {
			t.Errorf("%s: edit left the fingerprint unchanged", name)
		}
	}
}

// A parameter map's iteration order must not reach the fingerprint.
func TestFingerprintParamOrder(t *testing.T) {
	a, b := twoActorModel(t), twoActorModel(t)
	for _, kv := range [][2]string{{"x", "1"}, {"y", "2"}, {"z", "3"}, {"w", "4"}} {
		a.Actors[0].SetParam(kv[0], kv[1])
	}
	for _, kv := range [][2]string{{"w", "4"}, {"z", "3"}, {"y", "2"}, {"x", "1"}} {
		b.Actors[0].SetParam(kv[0], kv[1])
	}
	for i := 0; i < 20; i++ {
		if a.Fingerprint() != b.Fingerprint() {
			t.Fatal("fingerprint depends on parameter insertion order")
		}
	}
}

var raceEnabled bool

func TestFingerprintAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector")
	}
	m := twoActorModel(t)
	m.Actor("A").SetParam("Value", "3")
	m.Fingerprint()
	if n := testing.AllocsPerRun(100, func() { m.Fingerprint() }); n != 0 {
		t.Errorf("Fingerprint allocates %.1f times per call in steady state", n)
	}
}
