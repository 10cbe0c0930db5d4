package testcase

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestSourceValidate(t *testing.T) {
	good := []Source{
		{Kind: Const, Value: 3},
		{Kind: Uniform, Lo: -1, Hi: 1},
		{Kind: Ramp}, {Kind: Sine},
		{Kind: Pulse, Period: 5},
		{Kind: Table, Values: []float64{1}},
	}
	for i, s := range good {
		if err := s.Validate(); err != nil {
			t.Errorf("good[%d]: %v", i, err)
		}
	}
	bad := []Source{
		{Kind: Uniform, Lo: 1, Hi: -1},
		{Kind: Pulse, Period: 0},
		{Kind: Table},
		{Kind: SourceKind(42)},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("bad[%d]: expected error", i)
		}
	}
}

func TestStreamSemantics(t *testing.T) {
	set := &Set{Sources: []Source{
		{Kind: Const, Value: 2.5},
		{Kind: Ramp, Start: 1, Slope: 2},
		{Kind: Pulse, Period: 4, Width: 2, High: 9, Low: -1},
		{Kind: Table, Values: []float64{10, 20, 30}},
		{Kind: Sine, Amp: 3, Freq: 0.5, Phase: 1},
	}}
	streams := set.Streams()
	for step := int64(0); step < 8; step++ {
		if got := streams[0].At(step); got != 2.5 {
			t.Errorf("const@%d = %g", step, got)
		}
		if got := streams[1].At(step); got != 1+2*float64(step) {
			t.Errorf("ramp@%d = %g", step, got)
		}
		wantPulse := -1.0
		if step%4 < 2 {
			wantPulse = 9
		}
		if got := streams[2].At(step); got != wantPulse {
			t.Errorf("pulse@%d = %g, want %g", step, got, wantPulse)
		}
		if got := streams[3].At(step); got != []float64{10, 20, 30}[step%3] {
			t.Errorf("table@%d = %g", step, got)
		}
		if got := streams[4].At(step); got != 3*math.Sin(0.5*float64(step)+1) {
			t.Errorf("sine@%d = %g", step, got)
		}
	}
}

func TestUniformDeterministicAndInRange(t *testing.T) {
	src := Source{Kind: Uniform, Lo: -5, Hi: 5, Seed: 99}
	s1 := (&Set{Sources: []Source{src}}).Streams()[0]
	s2 := (&Set{Sources: []Source{src}}).Streams()[0]
	for step := int64(0); step < 1000; step++ {
		a, b := s1.At(step), s2.At(step)
		if a != b {
			t.Fatalf("nondeterministic at %d: %g vs %g", step, a, b)
		}
		if a < -5 || a >= 5 {
			t.Fatalf("out of range at %d: %g", step, a)
		}
	}
}

func TestNewRandomSetDistinctSeeds(t *testing.T) {
	set := NewRandomSet(3, 7, 0, 1)
	if len(set.Sources) != 3 {
		t.Fatalf("sources = %d", len(set.Sources))
	}
	seen := map[uint64]bool{}
	for _, s := range set.Sources {
		if seen[s.Seed] {
			t.Fatal("duplicate per-port seed")
		}
		seen[s.Seed] = true
	}
	streams := set.Streams()
	if streams[0].At(0) == streams[1].At(0) && streams[0].At(1) == streams[1].At(1) {
		t.Error("ports produce identical streams")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	set := &Set{Sources: []Source{
		{Kind: Ramp, Start: 0, Slope: 0.5},
		{Kind: Uniform, Lo: -1, Hi: 1, Seed: 3},
	}}
	var buf bytes.Buffer
	if err := set.WriteCSV(&buf, 16); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	orig := set.Streams()
	loaded := back.Streams()
	for step := int64(0); step < 16; step++ {
		for p := 0; p < 2; p++ {
			if orig[p].At(step) != loaded[p].At(step) {
				t.Fatalf("port %d step %d differs", p, step)
			}
		}
	}
}

func TestReadCSVErrors(t *testing.T) {
	if _, err := ReadCSV(strings.NewReader("")); err == nil {
		t.Error("empty CSV must fail")
	}
	if _, err := ReadCSV(strings.NewReader("1,abc\n")); err == nil {
		t.Error("non-numeric cell must fail")
	}
	if _, err := ReadCSV(strings.NewReader("1,2\n3\n")); err == nil {
		t.Error("ragged rows must fail")
	}
}

func TestEmitGoShapes(t *testing.T) {
	cases := []Source{
		{Kind: Const, Value: -2.5},
		{Kind: Uniform, Lo: -1e6, Hi: 1e6, Seed: 5},
		{Kind: Ramp, Start: -3, Slope: 0.25},
		{Kind: Sine, Amp: 1, Freq: 0.1},
		{Kind: Pulse, Period: 7, Width: 3, High: 1, Low: 0},
		{Kind: Table, Values: []float64{1, -2, 3.5}},
	}
	for i := range cases {
		globals, inits, expr := EmitGo(&cases[i], "tcX", "tcUniform[0]")
		if expr == "" {
			t.Errorf("case %d: empty expression", i)
		}
		_ = globals
		_ = inits
	}
	// Uniform must emit its seed state and advance helper, reading its
	// seed and range from the run parameters, never as literals.
	globals, inits, expr := EmitGo(&cases[1], "tc9", "tcUniform[3]")
	joined := strings.Join(globals, "\n")
	if !strings.Contains(joined, "tc9_seed") || !strings.Contains(joined, "func tc9_next()") {
		t.Errorf("uniform globals missing pieces:\n%s", joined)
	}
	if len(inits) != 1 || inits[0] != "tc9_seed = tcUniform[3].Seed ^ seedXor" {
		t.Errorf("uniform inits = %v", inits)
	}
	if !strings.Contains(joined, "(tcUniform[3].Hi-tcUniform[3].Lo) + tcUniform[3].Lo") || strings.Contains(joined, "1e+06") {
		t.Errorf("uniform range is not read from the run parameters:\n%s", joined)
	}
	if expr != "tc9_next()" {
		t.Errorf("uniform expr = %q", expr)
	}
	// Negative bounds must be parenthesised (no "--" token).
	if strings.Contains(joined, "--") {
		t.Errorf("emitted '--' token:\n%s", joined)
	}
}

func TestNeedsMath(t *testing.T) {
	if !NeedsMath(&Source{Kind: Sine}) {
		t.Error("sine needs math")
	}
	if NeedsMath(&Source{Kind: Const, Value: 1}) {
		t.Error("plain const does not need math")
	}
	if !NeedsMath(&Source{Kind: Const, Value: math.Inf(1)}) {
		t.Error("Inf const needs math")
	}
}

// Property: uniform values stay within [Lo, Hi) across seeds and steps.
func TestQuickUniformRange(t *testing.T) {
	f := func(seed uint64, rawLo, span float64) bool {
		lo := math.Mod(rawLo, 1e6)
		hi := lo + math.Abs(math.Mod(span, 1e6)) + 1e-9
		st := (&Set{Sources: []Source{{Kind: Uniform, Lo: lo, Hi: hi, Seed: seed}}}).Streams()[0]
		for step := int64(0); step < 64; step++ {
			v := st.At(step)
			if v < lo || v >= hi {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
