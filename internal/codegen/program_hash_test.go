package codegen_test

import (
	"strings"
	"testing"

	"accmos/internal/codegen"
	"accmos/internal/model"
	"accmos/internal/simrt"
	"accmos/internal/testcase"
	"accmos/internal/types"
)

func hashModel(t *testing.T, name string) *model.Model {
	t.Helper()
	return model.NewBuilder(name).
		Add("In", "Inport", 0, 1, model.WithOutKind(types.F64), model.WithParam("Port", "1")).
		Add("G", "Gain", 1, 1, model.WithParam("Gain", "3")).
		Add("Out", "Outport", 1, 0, model.WithParam("Port", "1")).
		Chain("In", "G", "Out").
		MustBuild()
}

func generateFor(t *testing.T, name string, opts codegen.Options) *codegen.Program {
	t.Helper()
	c := compile(t, hashModel(t, name))
	if opts.TestCases == nil {
		opts.TestCases = testcase.NewRandomSet(1, 7, -1, 1)
	}
	p, err := codegen.Generate(c, opts)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestProgramHashStable(t *testing.T) {
	a := generateFor(t, "PH", codegen.Options{Coverage: true})
	b := generateFor(t, "PH", codegen.Options{Coverage: true})
	if a.Hash() != b.Hash() {
		t.Error("two generations of the same model and options must hash identically")
	}
	if len(a.Hash()) != 64 {
		t.Errorf("hash length = %d, want 64 hex chars", len(a.Hash()))
	}
}

// TestProgramHashOptLevelNeverCollides pins the cache-key regression: two
// optimization levels can legitimately emit byte-identical source (when no
// pass fires on a model), yet an -O0 and an -O1 program must never share a
// build-cache entry — the level is hashed independently of the source.
func TestProgramHashOptLevelNeverCollides(t *testing.T) {
	src := "package main\nfunc main() {}\n"
	plain := &codegen.Program{Model: "PH", Source: src}
	o0 := &codegen.Program{Model: "PH", Source: src, Opt: "O0"}
	o1 := &codegen.Program{Model: "PH", Source: src, Opt: "O1"}
	if o0.Hash() == o1.Hash() {
		t.Error("O0 and O1 programs with identical source must hash differently")
	}
	if plain.Hash() == o0.Hash() || plain.Hash() == o1.Hash() {
		t.Error("an untagged program must not collide with a level-tagged one")
	}
}

func TestProgramHashDiscriminates(t *testing.T) {
	base := generateFor(t, "PH", codegen.Options{Coverage: true})
	seen := map[string]string{base.Hash(): "base"}
	variants := map[string]*codegen.Program{
		"coverage off":    generateFor(t, "PH", codegen.Options{}),
		"diagnosis on":    generateFor(t, "PH", codegen.Options{Coverage: true, Diagnose: true}),
		"other steps":     generateFor(t, "PH", codegen.Options{Coverage: true, DefaultSteps: 777}),
		"other testcases": generateFor(t, "PH", codegen.Options{Coverage: true, TestCases: testcase.NewRandomSet(1, 8, -1, 1)}),
		"other model":     generateFor(t, "PH2", codegen.Options{Coverage: true}),
		"opt O0":          generateFor(t, "PH", codegen.Options{Coverage: true, Opt: "O0"}),
		"opt O1":          generateFor(t, "PH", codegen.Options{Coverage: true, Opt: "O1"}),
	}
	for what, p := range variants {
		h := p.Hash()
		if prev, dup := seen[h]; dup {
			t.Errorf("%s collides with %s", what, prev)
		}
		seen[h] = what
	}
}

// TestProgramHashCoversRuntime: the runtime is linked, not part of the
// source, so the key folds in its fingerprint. A build cache that
// outlives a runtime change then never serves a binary linked against
// the old runtime.
func TestProgramHashCoversRuntime(t *testing.T) {
	p := generateFor(t, "PR", codegen.Options{Coverage: true})
	if p.Runtime != simrt.Fingerprint() {
		t.Fatalf("generated program records runtime %q, want simrt.Fingerprint() %q", p.Runtime, simrt.Fingerprint())
	}
	changed := *p
	changed.Runtime = strings.Repeat("0", len(p.Runtime))
	if changed.Hash() == p.Hash() {
		t.Error("a changed runtime fingerprint left the program hash unchanged")
	}
}

// TestProgramImportsMatchSource: Imports reports the import clause the
// generator emitted, which is what the harness lists export data for.
func TestProgramImportsMatchSource(t *testing.T) {
	p := generateFor(t, "PI", codegen.Options{Coverage: true, Diagnose: true})
	got := map[string]bool{}
	for _, path := range p.Imports() {
		got[path] = true
		if !strings.Contains(p.Source, `"`+path+`"`) {
			t.Errorf("import %q not in the source", path)
		}
	}
	for _, want := range []string{"accmos/internal/simrt", "math", "strconv"} {
		if !got[want] {
			t.Errorf("Imports() = %v, missing %q", p.Imports(), want)
		}
	}
	// The serve loop, step loop clock, flags and encoders are the
	// runtime's, compiled once.
	for _, gone := range []string{"bufio", "encoding/json", "flag", "fmt", "os", "time"} {
		if got[gone] {
			t.Errorf("Imports() = %v, want no %q", p.Imports(), gone)
		}
	}
	broken := &codegen.Program{Source: "package main\nimport \"fmt\"\nimport (\n"}
	if imps := broken.Imports(); len(imps) != 1 || imps[0] != "fmt" {
		t.Errorf("unparsable import clause: Imports() = %v, want the parsed [fmt]", imps)
	}
}
