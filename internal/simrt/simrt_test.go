package simrt

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"accmos/internal/diagnose"
	"accmos/internal/obs"
	"accmos/internal/simresult"
)

// TestAppendStrMatchesEncodingJSON: appendStr writes valid JSON that
// decodes to the same string as encoding/json's own encoding of the
// input, for the bytes where a hand-written encoder usually goes wrong.
// The bytes may differ (encoding/json writes "\n" and "\u2028" where
// appendStr writes "\u000a" and the raw rune); the decoded value may not.
func TestAppendStrMatchesEncodingJSON(t *testing.T) {
	for _, s := range []string{
		"", "plain", `a "quoted" word`, `back\slash`, "tab\tnew\nline\r",
		"\x00\x01\x1f\x7f", "line\u2028sep\u2029para", "bad\xffutf8\xc3", "é中🙂",
		"<html>&amp;", "\\u0041",
	} {
		got := appendStr(nil, s)
		if !json.Valid(got) {
			t.Errorf("appendStr(%q) = %s: not valid JSON", s, got)
			continue
		}
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		var fromOurs, fromStd string
		if err := json.Unmarshal(got, &fromOurs); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(want, &fromStd); err != nil {
			t.Fatal(err)
		}
		if fromOurs != fromStd {
			t.Errorf("appendStr(%q) decodes to %q, encoding/json's encoding to %q", s, fromOurs, fromStd)
		}
	}
}

// TestJSONFloatNonFinite: NaN and ±Inf, which JSON cannot carry, render
// as 0; finite values round-trip.
func TestJSONFloatNonFinite(t *testing.T) {
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if got := jsonFloat(f); got != "0" {
			t.Errorf("jsonFloat(%v) = %q, want 0", f, got)
		}
	}
	for _, f := range []float64{0, -1.5, math.MaxFloat64, -math.MaxFloat64, 5e-324, 123456.789} {
		var back float64
		if err := json.Unmarshal([]byte(jsonFloat(f)), &back); err != nil || back != f {
			t.Errorf("jsonFloat(%v) = %q, decodes to %v (%v)", f, jsonFloat(f), back, err)
		}
	}
}

// testProgram is a Program over hand-filled state whose Run hook
// "executes" the requested steps at once.
func testProgram() *Program {
	hash, total := uint64(0xdeadbeefcafe), int64(4)
	diags := []DiagRecord{
		{Step: 3, Actor: "M/Div", Kind: "DivisionByZero"},
		{Step: 9, Actor: "M/Sum\n\"2\"", Kind: "WrapOnOverflow", Detail: "limit: value 1e+300\x01"},
	}
	p := &Program{
		Model:             "M\x01\"odel\"",
		OutputHash:        &hash,
		DiagTotal:         &total,
		Diags:             &diags,
		DiagCounts:        []int64{3, 0, 1},
		DiagFirst:         []int64{3, -1, 9},
		DiagActors:        []string{"M/Div", "M/Never", "M/Sum\n\"2\""},
		DiagKinds:         []string{"DivisionByZero", "NaNOrInf", "WrapOnOverflow"},
		MonHits:           []int64{0, 0},
		MonSamples:        make([][]MonitorSample, 2),
		MonNames:          []string{"M/Gain", "M/Idle"},
		MaxMonitorSamples: 2,
		Coverage: &Coverage{
			Actor: []uint8{1, 0, 1}, Cond: []uint8{1, 1}, Dec: []uint8{}, MCDC: []uint8{0},
		},
	}
	for step := int64(0); step < 3; step++ {
		p.Collect(0, step, FmtVecF64([]float64{float64(step), 0.5}))
	}
	p.Reset = func(uint64) {}
	p.Run = func(steps, budgetMS int64, hb time.Duration, runID string) (int64, time.Duration) {
		return steps, time.Millisecond
	}
	p.Batch = func(seeds []uint64, steps int64, hb time.Duration, runID string) [][]byte {
		out := make([][]byte, len(seeds))
		for i := range seeds {
			out[i] = p.Result(steps, 7, false)
		}
		return out
	}
	return p
}

// TestFramesDecodeWithSimresult: the frames the serve loop writes for a
// single run, a batch and a bad request are what the harness decodes:
// each result document through simresult.Decode, field for field.
func TestFramesDecodeWithSimresult(t *testing.T) {
	p := testProgram()
	in := strings.Join([]string{
		`{"id":"r1","steps":42,"seedXor":5,"corr":"j-1"}`,
		`{"accmosBatch":1,"id":"r2","steps":8,"seedXors":[1,2]}`,
		`{"id":"r3","steps":"many"}`,
	}, "\n") + "\n"
	var out bytes.Buffer
	if err := p.serve(strings.NewReader(in), &out, 1000); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(out.String(), "\n"), "\n")
	if len(lines) != 5 {
		t.Fatalf("serve wrote %d lines, want 1 + (1+2) + 1:\n%s", len(lines), out.String())
	}
	var frame struct {
		ID        string          `json:"id"`
		Error     string          `json:"error"`
		Result    json.RawMessage `json:"result"`
		LaneCount int             `json:"laneCount"`
		Coverage  json.RawMessage `json:"coverage"`
	}
	if err := json.Unmarshal([]byte(lines[0]), &frame); err != nil || frame.ID != "r1" {
		t.Fatalf("single-run frame %s: %v", lines[0], err)
	}
	var res simresult.Results
	if err := simresult.Decode(frame.Result, &res); err != nil {
		t.Fatalf("simresult.Decode(%s): %v", frame.Result, err)
	}
	want := simresult.Results{
		Model: p.Model, Engine: "AccMoS", Steps: 42, ExecNanos: int64(time.Millisecond),
		OutputHash: 0xdeadbeefcafe, DiagTotal: 4,
		DiagCounts:  map[string]int64{"M/Div|DivisionByZero": 3, "M/Sum\n\"2\"|WrapOnOverflow": 1},
		FirstDetect: map[string]int64{"M/Div|DivisionByZero": 3, "M/Sum\n\"2\"|WrapOnOverflow": 9},
		Diags: []diagnose.Record{
			{Step: 3, Actor: "M/Div", Kind: "DivisionByZero"},
			{Step: 9, Actor: "M/Sum\n\"2\"", Kind: "WrapOnOverflow", Detail: "limit: value 1e+300\x01"},
		},
		Monitor:     map[string][]simresult.MonitorSample{"M/Gain": {{Step: 0, Value: "[0 0.5]"}, {Step: 1, Value: "[1 0.5]"}}},
		MonitorHits: map[string]int64{"M/Gain": 3},
	}
	if res.Coverage == nil || !bytes.Equal(res.Coverage.Actor, []byte{1, 0, 1}) ||
		!bytes.Equal(res.Coverage.Cond, []byte{1, 1}) || len(res.Coverage.Dec) != 0 || !bytes.Equal(res.Coverage.MCDC, []byte{0}) {
		t.Errorf("coverage decoded as %+v", res.Coverage)
	}
	res.Coverage = nil
	if !reflect.DeepEqual(res, want) {
		t.Errorf("decoded result\n got  %+v\n want %+v", res, want)
	}

	frame.Result = nil
	if err := json.Unmarshal([]byte(lines[1]), &frame); err != nil || frame.ID != "r2" || frame.LaneCount != 2 || frame.Result != nil {
		t.Fatalf("batch header frame %s: %+v %v", lines[1], frame, err)
	}
	if !json.Valid(frame.Coverage) {
		t.Errorf("batch coverage %s is not JSON", frame.Coverage)
	}
	for _, lane := range lines[2:4] {
		var r simresult.Results
		if err := simresult.Decode([]byte(lane), &r); err != nil || r.Steps != 8 || r.Coverage != nil {
			t.Errorf("batch lane %s: steps %d, coverage %v, %v", lane, r.Steps, r.Coverage, err)
		}
	}

	frame.Error = ""
	if err := json.Unmarshal([]byte(lines[4]), &frame); err != nil || !strings.Contains(frame.Error, "decoding request") {
		t.Errorf("bad request frame %s: error %q, %v", lines[4], frame.Error, err)
	}
}

// TestHeartbeatParsesWithObs: a heartbeat line is what obs.ParseHeartbeat
// reads back, including a model name JSON must escape.
func TestHeartbeatParsesWithObs(t *testing.T) {
	p := testProgram()
	line := p.appendHeartbeat(nil, "r7", 5000, 2*time.Second, true)
	if !bytes.HasSuffix(line, []byte("\n")) || bytes.Count(line, []byte("\n")) != 1 {
		t.Fatalf("heartbeat is not one line: %q", line)
	}
	s, ok := obs.ParseHeartbeat(bytes.TrimSuffix(line, []byte("\n")))
	if !ok {
		t.Fatalf("obs.ParseHeartbeat rejected %s", line)
	}
	want := obs.Snapshot{
		Model: p.Model, Engine: "AccMoS", Steps: 5000, ElapsedNanos: int64(2 * time.Second),
		StepsPerSec: 2500, Coverage: 100 * 4.0 / 6.0, Diags: 4, Final: true, Run: "r7",
	}
	if s != want {
		t.Errorf("parsed heartbeat\n got  %+v\n want %+v", s, want)
	}

	p.Coverage = nil
	s, ok = obs.ParseHeartbeat(bytes.TrimSuffix(p.appendHeartbeat(nil, "", 0, 0, false), []byte("\n")))
	if !ok || s.Coverage != -1 || s.StepsPerSec != 0 || s.Final || s.Run != "" {
		t.Errorf("coverage-off heartbeat parsed as %+v (ok %v)", s, ok)
	}
}

// TestSourcesAreThePackage: the harness compiles the embedded sources as
// the whole runtime, so every non-test file but source.go is embedded.
func TestSourcesAreThePackage(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	for _, f := range files {
		if f != "source.go" && !strings.HasSuffix(f, "_test.go") {
			want = append(want, f)
		}
	}
	var got []string
	for name, data := range Sources() {
		got = append(got, name)
		disk, err := os.ReadFile(name)
		if err != nil || !bytes.Equal(disk, data) {
			t.Errorf("embedded %s differs from the file on disk (%v)", name, err)
		}
	}
	sort.Strings(got)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("embedded sources %v, want %v", got, want)
	}
	if len(Fingerprint()) != 64 {
		t.Errorf("Fingerprint() = %q, want 64 hex chars", Fingerprint())
	}
}

// TestServeReportsReadError: serve reports a read error instead of
// ending as if at EOF.
func TestServeReportsReadError(t *testing.T) {
	long := strings.Repeat("x", 9*1024*1024) // beyond the scanner's buffer
	err := testProgram().serve(strings.NewReader(long), &bytes.Buffer{}, 1)
	if err == nil {
		t.Error("an oversized request line ended serving without an error")
	}
}
