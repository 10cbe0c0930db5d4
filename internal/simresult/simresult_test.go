package simresult

import (
	"encoding/json"
	"strings"
	"testing"
	"testing/quick"

	"accmos/internal/coverage"
	"accmos/internal/diagnose"
	"accmos/internal/obs"
)

func TestHashU64KnownVector(t *testing.T) {
	// FNV-1a over eight zero bytes from the offset basis.
	h := HashU64(FNVOffset, 0)
	if h == FNVOffset || h == 0 {
		t.Errorf("h = %x", h)
	}
	// Determinism and sensitivity.
	if HashU64(FNVOffset, 1) == HashU64(FNVOffset, 2) {
		t.Error("collision on trivially different inputs")
	}
	if HashU64(FNVOffset, 7) != HashU64(FNVOffset, 7) {
		t.Error("nondeterministic")
	}
}

// Property: chaining is order-sensitive (a stream hash, not a set hash).
func TestQuickHashOrderSensitive(t *testing.T) {
	f := func(a, b uint64) bool {
		if a == b {
			return true
		}
		return HashU64(HashU64(FNVOffset, a), b) != HashU64(HashU64(FNVOffset, b), a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFromSinkAndQueries(t *testing.T) {
	s := diagnose.NewSink(8)
	s.Report(diagnose.Record{Step: 5, Actor: "M_A", Kind: diagnose.WrapOnOverflow})
	s.Report(diagnose.Record{Step: 9, Actor: "M_B", Kind: diagnose.WrapOnOverflow})
	s.Report(diagnose.Record{Step: 2, Actor: "M_C", Kind: diagnose.DivisionByZero})
	var r Results
	r.FromSink(s)
	if r.DiagTotal != 3 || len(r.Diags) != 3 {
		t.Errorf("totals: %d %d", r.DiagTotal, len(r.Diags))
	}
	if got := r.FirstDetectOf(diagnose.WrapOnOverflow); got != 5 {
		t.Errorf("FirstDetectOf overflow = %d", got)
	}
	if got := r.FirstDetectOf(diagnose.DivisionByZero); got != 2 {
		t.Errorf("FirstDetectOf div = %d", got)
	}
	if got := r.FirstDetectOf(diagnose.DomainError); got != -1 {
		t.Errorf("FirstDetectOf missing = %d", got)
	}
	sum := r.DiagSummary()
	if len(sum) != 3 {
		t.Errorf("summary = %v", sum)
	}
	// Deterministic ordering.
	if sum[0] > sum[1] || sum[1] > sum[2] {
		t.Errorf("summary not sorted: %v", sum)
	}
}

func TestJSONRoundTripExactHash(t *testing.T) {
	// uint64 hashes must survive JSON exactly (no float64 mangling).
	orig := Results{Model: "M", Engine: "AccMoS", Steps: 42, OutputHash: ^uint64(0) - 12345}
	b, err := json.Marshal(&orig)
	if err != nil {
		t.Fatal(err)
	}
	var back Results
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back.OutputHash != orig.OutputHash || back.Steps != orig.Steps {
		t.Errorf("round trip lost data: %+v", back)
	}
}

func TestSameOutputs(t *testing.T) {
	a := &Results{Steps: 10, OutputHash: 7}
	b := &Results{Steps: 10, OutputHash: 7}
	c := &Results{Steps: 10, OutputHash: 8}
	d := &Results{Steps: 11, OutputHash: 7}
	if !SameOutputs(a, b) || SameOutputs(a, c) || SameOutputs(a, d) {
		t.Error("SameOutputs misbehaves")
	}
}

// TestDiff mutates one oracle field at a time and requires Diff to name
// it, while identical runs and runs differing only in timing, engine and
// timeline agree.
func TestDiff(t *testing.T) {
	base := func() *Results {
		return &Results{
			Model: "M", Engine: "SSE", Steps: 100, ExecNanos: 5, OutputHash: 0xfeed,
			Coverage: &coverage.Raw{
				Actor: []byte{1, 0, 1}, Cond: []byte{1, 1}, Dec: []byte{0, 1}, MCDC: []byte{1},
			},
			DiagTotal:   3,
			DiagCounts:  map[string]int64{"M_A|WrapOnOverflow": 2, "M_B|Downcast": 1},
			FirstDetect: map[string]int64{"M_A|WrapOnOverflow": 4, "M_B|Downcast": 9},
			Diags: []diagnose.Record{
				{Step: 4, Actor: "M_A", Kind: diagnose.WrapOnOverflow},
				{Step: 7, Actor: "M_A", Kind: diagnose.WrapOnOverflow},
				{Step: 9, Actor: "M_B", Kind: diagnose.Downcast, Detail: "300 -> 44"},
			},
			Monitor:     map[string][]MonitorSample{"M_A": {{Step: 0, Value: "1"}, {Step: 1, Value: "2"}}},
			MonitorHits: map[string]int64{"M_A": 5},
		}
	}
	same := base()
	same.Engine, same.ExecNanos, same.CompileNanos = "AccMoS", 99, 1234
	same.Timeline = []obs.Snapshot{{Steps: 50}}
	if d := Diff(base(), same); d != "" {
		t.Fatalf("identical oracle fields: Diff = %q", d)
	}
	for _, tc := range []struct {
		field  string
		mutate func(r *Results)
	}{
		{"steps", func(r *Results) { r.Steps++ }},
		{"output hash", func(r *Results) { r.OutputHash ^= 1 }},
		{"coverage presence", func(r *Results) { r.Coverage = nil }},
		{"actor coverage bitmap", func(r *Results) { r.Coverage.Actor[1] = 1 }},
		{"cond coverage bitmap", func(r *Results) { r.Coverage.Cond[0] = 0 }},
		{"dec coverage bitmap", func(r *Results) { r.Coverage.Dec = r.Coverage.Dec[:1] }},
		{"mcdc coverage bitmap", func(r *Results) { r.Coverage.MCDC[0] = 0 }},
		{"diag total", func(r *Results) { r.DiagTotal++ }},
		{"diag count", func(r *Results) { r.DiagCounts["M_B|Downcast"] = 2 }},
		{"diag count", func(r *Results) { r.DiagCounts["M_C|Downcast"] = 0 }},
		{"first detect", func(r *Results) { r.FirstDetect["M_B|Downcast"] = 8 }},
		{"first detect", func(r *Results) { delete(r.FirstDetect, "M_A|WrapOnOverflow") }},
		{"diag record 2", func(r *Results) { r.Diags[2].Detail = "300 -> 45" }},
		{"diag records", func(r *Results) { r.Diags = r.Diags[:2] }},
		{"monitor hits", func(r *Results) { r.MonitorHits["M_A"] = 6 }},
		{"monitor hits", func(r *Results) { r.MonitorHits["M_B"] = 1 }},
		{`monitor "M_A" sample 1`, func(r *Results) { r.Monitor["M_A"][1].Value = "3" }},
		{`monitor "M_A" samples`, func(r *Results) { r.Monitor["M_A"] = r.Monitor["M_A"][:1] }},
		{`monitor "M_B" samples`, func(r *Results) { r.Monitor["M_B"] = []MonitorSample{{Step: 2, Value: "0"}} }},
	} {
		mutated := base()
		tc.mutate(mutated)
		for _, d := range []string{Diff(base(), mutated), Diff(mutated, base())} {
			if !strings.HasPrefix(d, tc.field) {
				t.Errorf("mutating %s: Diff = %q", tc.field, d)
			}
		}
	}
}
