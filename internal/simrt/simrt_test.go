package simrt

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"accmos/internal/coverage"
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
// "executes" the requested steps at once and sets a few coverage bits.
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
			Actor: []uint8{0, 0, 0}, Cond: []uint8{0, 0}, Dec: []uint8{}, MCDC: []uint8{0},
		},
	}
	for step := int64(0); step < 3; step++ {
		p.Collect(0, step, FmtVecF64([]float64{float64(step), 0.5}))
	}
	p.Reset = func(uint64) {}
	p.Run = func(steps, budgetMS int64, hb time.Duration, runID string) (int64, time.Duration) {
		p.Coverage.Actor[0], p.Coverage.Actor[2] = 1, 1
		p.Coverage.Cond[0], p.Coverage.Cond[1] = 1, 1
		return steps, time.Millisecond
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
		if err := simresult.Decode([]byte(lane), &r); err != nil || r.Steps != 8 || r.Coverage != nil ||
			r.ExecNanos != int64(time.Millisecond) {
			t.Errorf("batch lane %s: steps %d, execNanos %d, coverage %v, %v", lane, r.Steps, r.ExecNanos, r.Coverage, err)
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
	p.Run(1, 0, 0, "")
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

// laneProgram is a Program whose hooks stand in for a generated model
// and log every call. Reset sets the premark bit Actor[0], as modelInit
// does for bits the optimizer proved statically. Run marks Actor[seed]
// and executes 10*seed steps (capped by the bound) in five slices,
// heartbeating after each one and once more, final, at the end, the way
// runSim does.
type laneProgram struct {
	*Program
	log  []string
	seed uint64
}

func newLaneProgram() *laneProgram {
	var hash uint64
	var total int64
	var diags []DiagRecord
	lp := &laneProgram{Program: &Program{
		Model: "LANES", OutputHash: &hash, DiagTotal: &total, Diags: &diags,
		Coverage: &Coverage{Actor: make([]uint8, 8), Cond: []uint8{0}, Dec: []uint8{0}, MCDC: []uint8{0}},
	}}
	lp.Reset = func(seed uint64) {
		lp.log = append(lp.log, "reset "+strconv.FormatUint(seed, 10))
		lp.seed = seed
		lp.Coverage.Actor[0] = 1
	}
	lp.Run = func(steps, budgetMS int64, hb time.Duration, runID string) (int64, time.Duration) {
		lp.log = append(lp.log, "run "+strconv.FormatUint(lp.seed, 10))
		lp.Coverage.Actor[lp.seed] = 1
		n := min(steps, 10*int64(lp.seed))
		start := time.Now()
		for k := int64(1); k <= 5; k++ {
			if hb > 0 {
				time.Sleep(time.Millisecond)
				lp.Heartbeat(runID, n*k/5, time.Since(start), false)
			}
		}
		if hb > 0 {
			// A full interval later, so only the batch can hold the
			// lane's final record back.
			time.Sleep(hb)
			lp.Heartbeat(runID, n, time.Since(start), true)
		}
		return n, time.Since(start)
	}
	return lp
}

// serveLines serves the NDJSON request lines and returns the output
// lines.
func serveLines(t *testing.T, p *Program, reqs ...string) []string {
	t.Helper()
	var out bytes.Buffer
	if err := p.serve(strings.NewReader(strings.Join(reqs, "\n")+"\n"), &out, 1000); err != nil {
		t.Fatal(err)
	}
	return strings.Split(strings.TrimSuffix(out.String(), "\n"), "\n")
}

// TestBatchResetsEachLaneInSeedOrder: a batch runs its lanes back to
// back, each from its own reset, in the request's seed order, and
// answers with the lanes in that order.
func TestBatchResetsEachLaneInSeedOrder(t *testing.T) {
	lp := newLaneProgram()
	lines := serveLines(t, lp.Program, `{"accmosBatch":1,"id":"b","steps":25,"seedXors":[3,1,2]}`)
	want := []string{"reset 3", "run 3", "reset 1", "run 1", "reset 2", "run 2"}
	if !reflect.DeepEqual(lp.log, want) {
		t.Errorf("hook calls %v, want %v", lp.log, want)
	}
	if len(lines) != 4 {
		t.Fatalf("batch wrote %d lines, want a header and 3 lanes", len(lines))
	}
	for i, steps := range []int64{25, 10, 20} {
		var r simresult.Results
		if err := simresult.Decode([]byte(lines[1+i]), &r); err != nil || r.Steps != steps {
			t.Errorf("lane %d: %s (%v), want %d steps", i, lines[1+i], err, steps)
		}
	}
}

// TestCoverageClearedOncePerRequest: the runtime clears coverage once per
// request, before the first reset. A batch's header carries every lane's
// bits, a single run served after it carries only its own, and the
// premark bits Reset sets survive the clear.
func TestCoverageClearedOncePerRequest(t *testing.T) {
	lp := newLaneProgram()
	lines := serveLines(t, lp.Program,
		`{"accmosBatch":1,"id":"b1","steps":100,"seedXors":[3,1]}`,
		`{"id":"s","steps":100,"seedXor":5}`,
		`{"accmosBatch":1,"id":"b2","steps":100,"seedXors":[2]}`,
	)
	if len(lines) != 3+1+2 {
		t.Fatalf("serve wrote %d lines:\n%s", len(lines), strings.Join(lines, "\n"))
	}
	var b1, b2 struct{ Coverage coverage.Raw }
	var single struct{ Result json.RawMessage }
	for _, f := range []struct {
		line string
		into any
	}{{lines[0], &b1}, {lines[3], &single}, {lines[4], &b2}} {
		if err := json.Unmarshal([]byte(f.line), f.into); err != nil {
			t.Fatalf("frame %s: %v", f.line, err)
		}
	}
	var s simresult.Results
	if err := simresult.Decode(single.Result, &s); err != nil || s.Coverage == nil {
		t.Fatalf("single-run result %s: %v", single.Result, err)
	}
	for _, c := range []struct {
		name string
		got  []byte
		want []byte
	}{
		{"batch [3 1]", b1.Coverage.Actor, []byte{1, 1, 0, 1, 0, 0, 0, 0}},
		{"single run 5 after it", s.Coverage.Actor, []byte{1, 0, 0, 0, 0, 1, 0, 0}},
		{"batch [2] after that", b2.Coverage.Actor, []byte{1, 0, 1, 0, 0, 0, 0, 0}},
	} {
		if !bytes.Equal(c.got, c.want) {
			t.Errorf("%s: actor coverage %v, want %v", c.name, c.got, c.want)
		}
	}
}

// TestBatchHeartbeatContract: a batch heartbeats as one run. Steps sum
// over lanes and never decrease, records come no faster than the
// request's interval on the batch's clock, and exactly one final record
// comes last, carrying the sum of the lanes' steps.
func TestBatchHeartbeatContract(t *testing.T) {
	const hbMS = 2
	lp := newLaneProgram()
	f, err := os.CreateTemp(t.TempDir(), "stderr")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	stderr := os.Stderr
	os.Stderr = f
	lines := serveLines(t, lp.Program, `{"accmosBatch":1,"id":"hb","steps":25,"seedXors":[3,1,2],"heartbeatMs":2}`)
	os.Stderr = stderr
	if len(lines) != 4 {
		t.Fatalf("batch wrote %d lines, want 4", len(lines))
	}
	data, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	var beats []obs.Snapshot
	for _, line := range strings.Split(strings.TrimSuffix(string(data), "\n"), "\n") {
		s, ok := obs.ParseHeartbeat([]byte(line))
		if !ok || s.Run != "hb" {
			t.Fatalf("stderr line %q is not a heartbeat of the batch", line)
		}
		beats = append(beats, s)
	}
	if len(beats) < 3 {
		t.Fatalf("%d heartbeats; the contract is not exercised", len(beats))
	}
	last := beats[len(beats)-1]
	if !last.Final || last.Steps != 25+10+20 {
		t.Errorf("last heartbeat %+v, want the final one with %d steps", last, 25+10+20)
	}
	var prev obs.Snapshot
	for i, s := range beats {
		if s.Final && i != len(beats)-1 {
			t.Errorf("heartbeat %d of %d is final", i+1, len(beats))
		}
		if s.Steps < prev.Steps {
			t.Errorf("heartbeat %d: steps fell from %d to %d", i+1, prev.Steps, s.Steps)
		}
		if !s.Final && s.ElapsedNanos-prev.ElapsedNanos < int64(hbMS*time.Millisecond) {
			t.Errorf("heartbeat %d at %v, %v after the previous one: faster than %d ms",
				i+1, time.Duration(s.ElapsedNanos), time.Duration(s.ElapsedNanos-prev.ElapsedNanos), hbMS)
		}
		prev = s
	}
}
