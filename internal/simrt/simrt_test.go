package simrt

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
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
// "executes" each chunk at once and sets a few coverage bits.
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
	p.Run = func(from, to int64) int64 {
		p.Coverage.Actor[0], p.Coverage.Actor[2] = 1, 1
		p.Coverage.Cond[0], p.Coverage.Cond[1] = 1, 1
		return to
	}
	return p
}

// TestFramesDecodeWithSimresult: the frames the serve loop writes for
// two requests and a bad one are what the harness decodes: a header
// through encoding/json, then the run's result document through
// simresult.Decode, field for field. A header names only the request
// (and the error of one that did not run).
func TestFramesDecodeWithSimresult(t *testing.T) {
	p := testProgram()
	in := strings.Join([]string{
		`{"id":"r1","steps":42,"seedXor":5,"corr":"j-1"}`,
		`{"id":"r2","steps":8,"seedXor":2}`,
		`{"id":"r3","steps":"many"}`,
	}, "\n") + "\n"
	var out bytes.Buffer
	if err := p.serve(strings.NewReader(in), &out, 1000); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(out.String(), "\n"), "\n")
	if len(lines) != 5 {
		t.Fatalf("serve wrote %d lines, want (1+1) + (1+1) + 1:\n%s", len(lines), out.String())
	}
	for i, want := range map[int]string{0: `{"accmosRun":1,"id":"r1"}`, 2: `{"accmosRun":1,"id":"r2"}`} {
		if lines[i] != want {
			t.Errorf("header %s, want %s", lines[i], want)
		}
	}
	var res simresult.Results
	if err := simresult.Decode([]byte(lines[1]), &res); err != nil {
		t.Fatalf("simresult.Decode(%s): %v", lines[1], err)
	}
	want := simresult.Results{
		Model: p.Model, Engine: "AccMoS", Steps: 42,
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
	if res.ExecNanos < 0 {
		t.Errorf("execNanos %d is negative", res.ExecNanos)
	}
	res.Coverage, res.ExecNanos = nil, 0
	if !reflect.DeepEqual(res, want) {
		t.Errorf("decoded result\n got  %+v\n want %+v", res, want)
	}

	var r simresult.Results
	if err := simresult.Decode([]byte(lines[3]), &r); err != nil || r.Steps != 8 || r.Coverage == nil {
		t.Errorf("second result %s: steps %d, coverage %v, %v", lines[3], r.Steps, r.Coverage, err)
	}

	var frame struct {
		Marker    int `json:"accmosRun"`
		ID, Error string
	}
	if err := json.Unmarshal([]byte(lines[4]), &frame); err != nil || frame.Marker != 1 || frame.ID != "r3" ||
		!strings.Contains(frame.Error, "decoding request") {
		t.Errorf("bad request frame %s: %+v, %v", lines[4], frame, err)
	}
}

// TestHeartbeatParsesWithObs: a heartbeat line is what obs.ParseHeartbeat
// reads back, including a model name JSON must escape.
func TestHeartbeatParsesWithObs(t *testing.T) {
	p := testProgram()
	p.Run(0, 1)
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
// does for bits the optimizer proved statically. Run marks Actor[seed],
// sleeps delay, and stops the run of a seed listed in stopAt after that
// many steps, the way a stop-on diagnosis ends modelRun early. As in a
// generated program, the stop holds until the next Reset.
type laneProgram struct {
	*Program
	log     []string
	seed    uint64
	stopAt  map[uint64]int64
	stopped bool
	delay   time.Duration
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
		lp.stopped = false
		lp.Coverage.Actor[0] = 1
	}
	lp.Run = func(from, to int64) int64 {
		if len(lp.log) > 1000 {
			panic("the runtime keeps calling Run: a run never ends")
		}
		if from >= to {
			// Generated programs mark their always-run actors on every
			// call that gets past the stop check.
			panic(fmt.Sprintf("Run(%d, %d): the runtime must call Run with from < to", from, to))
		}
		lp.log = append(lp.log, fmt.Sprintf("run %d [%d,%d)", lp.seed, from, to))
		if lp.stopped {
			return from
		}
		lp.Coverage.Actor[lp.seed] = 1
		time.Sleep(lp.delay)
		if stop, ok := lp.stopAt[lp.seed]; ok && stop <= to {
			lp.stopped = true
			return stop
		}
		return to
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

// frameResults decodes the response frames in lines, one per request:
// each a header without an error, then its result line.
func frameResults(t *testing.T, lines []string) []simresult.Results {
	t.Helper()
	if len(lines)%2 != 0 {
		t.Fatalf("%d lines are not whole frames:\n%s", len(lines), strings.Join(lines, "\n"))
	}
	out := make([]simresult.Results, len(lines)/2)
	for i := range out {
		var h struct {
			Marker int `json:"accmosRun"`
			Error  string
		}
		if err := json.Unmarshal([]byte(lines[2*i]), &h); err != nil || h.Marker != 1 || h.Error != "" {
			t.Fatalf("header %s: %+v %v", lines[2*i], h, err)
		}
		if err := simresult.Decode([]byte(lines[2*i+1]), &out[i]); err != nil {
			t.Fatalf("result %d %s: %v", i, lines[2*i+1], err)
		}
	}
	return out
}

// TestRunChunkBoundaries: the runtime steps a run through the Run hook
// in chunks of 1024 steps, the last one cut at the step bound. A request
// without seedXor runs seed 0.
func TestRunChunkBoundaries(t *testing.T) {
	lp := newLaneProgram()
	res := frameResults(t, serveLines(t, lp.Program, `{"id":"c","steps":2500,"seedXor":1}`, `{"id":"z","steps":5}`))
	want := []string{"reset 1", "run 1 [0,1024)", "run 1 [1024,2048)", "run 1 [2048,2500)", "reset 0", "run 0 [0,5)"}
	if !reflect.DeepEqual(lp.log, want) {
		t.Errorf("hook calls %v, want %v", lp.log, want)
	}
	if res[0].Steps != 2500 || res[1].Steps != 5 {
		t.Errorf("runs took %d and %d steps, want 2500 and 5", res[0].Steps, res[1].Steps)
	}
}

// TestStopMidChunkEndsLane: when Run returns before the end of its chunk
// (a stop-on diagnosis fired) the run ends at the step it returned, and
// the next request runs in full.
func TestStopMidChunkEndsLane(t *testing.T) {
	lp := newLaneProgram()
	lp.stopAt = map[uint64]int64{1: 1500}
	res := frameResults(t, serveLines(t, lp.Program, `{"id":"s1","steps":2500,"seedXor":1}`, `{"id":"s2","steps":2500,"seedXor":2}`))
	want := []string{
		"reset 1", "run 1 [0,1024)", "run 1 [1024,2048)",
		"reset 2", "run 2 [0,1024)", "run 2 [1024,2048)", "run 2 [2048,2500)",
	}
	if !reflect.DeepEqual(lp.log, want) {
		t.Errorf("hook calls %v, want %v", lp.log, want)
	}
	if res[0].Steps != 1500 || res[1].Steps != 2500 {
		t.Errorf("runs took %d and %d steps, want 1500 and 2500", res[0].Steps, res[1].Steps)
	}
}

// TestStopOnChunkEndEndsLane: a stop on the last step of a chunk leaves
// Run returning the chunk's end, so the runtime calls it once more; that
// call runs nothing and ends the run at the stop.
func TestStopOnChunkEndEndsLane(t *testing.T) {
	lp := newLaneProgram()
	lp.stopAt = map[uint64]int64{1: 1024}
	res := frameResults(t, serveLines(t, lp.Program, `{"id":"e1","steps":2500,"seedXor":1}`, `{"id":"e2","steps":2500,"seedXor":2}`))
	want := []string{
		"reset 1", "run 1 [0,1024)", "run 1 [1024,2048)",
		"reset 2", "run 2 [0,1024)", "run 2 [1024,2048)", "run 2 [2048,2500)",
	}
	if !reflect.DeepEqual(lp.log, want) {
		t.Errorf("hook calls %v, want %v", lp.log, want)
	}
	if res[0].Steps != 1024 || res[1].Steps != 2500 {
		t.Errorf("runs took %d and %d steps, want 1024 and 2500", res[0].Steps, res[1].Steps)
	}
}

// TestRunBudget: a budget bounds a run on its own clock, read before
// each chunk. A budget-only run ends on a chunk boundary after at least
// one chunk; with a step bound too, whichever is reached first ends it.
func TestRunBudget(t *testing.T) {
	const delay = 2 * time.Millisecond
	// A chunk takes at least delay, so a 10 ms budget admits at most 5.
	for _, c := range []struct {
		req   string
		exact int64 // 0: ended by the budget
	}{
		{`{"id":"b","budgetMs":10,"seedXor":1}`, 0},
		{`{"id":"sb","steps":1000000000,"budgetMs":10,"seedXor":2}`, 0},
		{`{"id":"s","steps":3000,"budgetMs":5000,"seedXor":3}`, 3000},
	} {
		lp := newLaneProgram()
		lp.delay = delay
		r := frameResults(t, serveLines(t, lp.Program, c.req))[0]
		switch {
		case c.exact > 0 && (r.Steps != c.exact || len(lp.log) != 1+3):
			t.Errorf("%s: ran %d steps in %v, want the step bound %d in 3 chunks", c.req, r.Steps, lp.log, c.exact)
		case c.exact == 0 && (r.Steps < 1024 || r.Steps > 5*1024 || r.Steps%1024 != 0):
			t.Errorf("%s: ran %d steps, want 1 to 5 whole chunks", c.req, r.Steps)
		}
	}
}

// TestBackToBackRequestsMatchFreshProgram: requests served one after
// another on one Program, with different seeds and a stop among them,
// each answer what a fresh Program answers for that request alone,
// coverage included. The runtime clears coverage at the start of every
// request, before Reset, so the premark bits Reset sets survive and no
// earlier run's bits leak into a later result.
func TestBackToBackRequestsMatchFreshProgram(t *testing.T) {
	reqs := []string{
		`{"id":"a","steps":3000,"seedXor":3}`,
		`{"id":"b","steps":3000,"seedXor":1}`,
		`{"id":"c","steps":100,"seedXor":5}`,
		`{"id":"d","steps":3000,"seedXor":3}`,
		`{"id":"e","steps":100,"seedXor":2}`,
	}
	stopAt := map[uint64]int64{1: 1500}
	lp := newLaneProgram()
	lp.stopAt = stopAt
	served := frameResults(t, serveLines(t, lp.Program, reqs...))
	for i, req := range reqs {
		fresh := newLaneProgram()
		fresh.stopAt = stopAt
		want := frameResults(t, serveLines(t, fresh.Program, req))[0]
		got := served[i]
		got.ExecNanos, want.ExecNanos = 0, 0
		if !reflect.DeepEqual(got, want) {
			t.Errorf("request %s after %d others: %+v, a fresh program answers %+v", req, i, got, want)
		}
	}
	if c := served[4].Coverage; c == nil || !bytes.Equal(c.Actor, []byte{1, 0, 1, 0, 0, 0, 0, 0}) {
		t.Errorf("the last request's coverage %+v, want only the premark and its own seed's bit", c)
	}
}

// TestBatchHeartbeatContract: a request heartbeats on one clock, on the
// serve output ahead of its frame. Steps never decrease, elapsed time
// runs from the run's start, records come no faster than the request's
// interval, and exactly one final record comes last, carrying the run's
// steps, at or after its loop time.
func TestBatchHeartbeatContract(t *testing.T) {
	const hbMS = 2
	lp := newLaneProgram()
	lp.delay = time.Millisecond
	lines := serveLines(t, lp.Program, `{"id":"hb","steps":12000,"seedXor":3,"heartbeatMs":2}`)
	var beats []obs.Snapshot
	for len(lines) > 0 {
		s, ok := obs.ParseHeartbeat([]byte(lines[0]))
		if !ok {
			break
		}
		if s.Run != "hb" {
			t.Fatalf("heartbeat %q is not tagged with the request", lines[0])
		}
		beats = append(beats, s)
		lines = lines[1:]
	}
	res := frameResults(t, lines) // the frame follows its heartbeats, with nothing after
	if len(beats) < 3 {
		t.Fatalf("%d heartbeats; the contract is not exercised", len(beats))
	}
	last := beats[len(beats)-1]
	if !last.Final || last.Steps != 12000 {
		t.Errorf("last heartbeat %+v, want the final one with 12000 steps", last)
	}
	if last.ElapsedNanos < res[0].ExecNanos {
		t.Errorf("final heartbeat at %v, before the run's loop time %v",
			time.Duration(last.ElapsedNanos), time.Duration(res[0].ExecNanos))
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
