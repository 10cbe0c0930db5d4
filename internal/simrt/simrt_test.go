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

// TestFramesDecodeWithSimresult: the frames the serve loop writes for a
// one-lane request, a two-lane request and a bad request are what the
// harness decodes: a header through encoding/json, then each lane's
// result document through simresult.Decode, field for field.
func TestFramesDecodeWithSimresult(t *testing.T) {
	p := testProgram()
	in := strings.Join([]string{
		`{"id":"r1","steps":42,"seedXors":[5],"corr":"j-1"}`,
		`{"id":"r2","steps":8,"seedXors":[1,2]}`,
		`{"id":"r3","steps":"many"}`,
	}, "\n") + "\n"
	var out bytes.Buffer
	if err := p.serve(strings.NewReader(in), &out, 1000); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(out.String(), "\n"), "\n")
	if len(lines) != 6 {
		t.Fatalf("serve wrote %d lines, want (1+1) + (1+2) + 1:\n%s", len(lines), out.String())
	}
	var frame struct {
		Marker    int    `json:"accmosRun"`
		ID        string `json:"id"`
		Error     string `json:"error"`
		LaneCount int    `json:"laneCount"`
	}
	if err := json.Unmarshal([]byte(lines[0]), &frame); err != nil || frame.Marker != 1 || frame.ID != "r1" || frame.LaneCount != 1 {
		t.Fatalf("one-lane header %s: %+v %v", lines[0], frame, err)
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

	frame.LaneCount = 0
	if err := json.Unmarshal([]byte(lines[2]), &frame); err != nil || frame.ID != "r2" || frame.LaneCount != 2 {
		t.Fatalf("two-lane header %s: %+v %v", lines[2], frame, err)
	}
	for i, lane := range lines[3:5] {
		var r simresult.Results
		if err := simresult.Decode([]byte(lane), &r); err != nil || r.Steps != 8 || (r.Coverage != nil) != (i == 1) {
			t.Errorf("lane %d %s: steps %d, coverage %v, %v", i, lane, r.Steps, r.Coverage, err)
		}
	}

	frame.Error, frame.LaneCount = "", 0
	if err := json.Unmarshal([]byte(lines[5]), &frame); err != nil || !strings.Contains(frame.Error, "decoding request") || frame.LaneCount != 0 {
		t.Errorf("bad request frame %s: %+v, %v", lines[5], frame, err)
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
// sleeps delay, and stops the lane of a seed listed in stopAt after that
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
			panic("the runtime keeps calling Run: a lane never ends")
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

// laneResults decodes the lanes of the one response frame in lines,
// checking its header.
func laneResults(t *testing.T, lines []string) []simresult.Results {
	t.Helper()
	var h struct{ LaneCount int }
	if err := json.Unmarshal([]byte(lines[0]), &h); err != nil || h.LaneCount != len(lines)-1 {
		t.Fatalf("header %s announces %d lanes, %d follow (%v)", lines[0], h.LaneCount, len(lines)-1, err)
	}
	out := make([]simresult.Results, len(lines)-1)
	for i, lane := range lines[1:] {
		if err := simresult.Decode([]byte(lane), &out[i]); err != nil {
			t.Fatalf("lane %d %s: %v", i, lane, err)
		}
	}
	return out
}

// TestBatchResetsEachLaneInSeedOrder: a request runs its lanes back to
// back, each from its own reset, in the request's seed order, and
// answers with the lanes in that order.
func TestBatchResetsEachLaneInSeedOrder(t *testing.T) {
	lp := newLaneProgram()
	lp.stopAt = map[uint64]int64{1: 10, 2: 20}
	lanes := laneResults(t, serveLines(t, lp.Program, `{"id":"b","steps":25,"seedXors":[3,1,2]}`))
	want := []string{"reset 3", "run 3 [0,25)", "reset 1", "run 1 [0,25)", "reset 2", "run 2 [0,25)"}
	if !reflect.DeepEqual(lp.log, want) {
		t.Errorf("hook calls %v, want %v", lp.log, want)
	}
	for i, steps := range []int64{25, 10, 20} {
		if lanes[i].Steps != steps {
			t.Errorf("lane %d ran %d steps, want %d", i, lanes[i].Steps, steps)
		}
	}
}

// TestRunChunkBoundaries: the runtime steps a lane through the Run hook
// in chunks of 1024 steps, the last one cut at the step bound.
func TestRunChunkBoundaries(t *testing.T) {
	lp := newLaneProgram()
	lanes := laneResults(t, serveLines(t, lp.Program, `{"id":"c","steps":2500,"seedXors":[1]}`))
	want := []string{"reset 1", "run 1 [0,1024)", "run 1 [1024,2048)", "run 1 [2048,2500)"}
	if !reflect.DeepEqual(lp.log, want) {
		t.Errorf("hook calls %v, want %v", lp.log, want)
	}
	if lanes[0].Steps != 2500 {
		t.Errorf("lane ran %d steps, want 2500", lanes[0].Steps)
	}
}

// TestStopMidChunkEndsLane: when Run returns before the end of its chunk
// (a stop-on diagnosis fired) the lane ends at the step it returned, and
// the next lane runs in full.
func TestStopMidChunkEndsLane(t *testing.T) {
	lp := newLaneProgram()
	lp.stopAt = map[uint64]int64{1: 1500}
	lanes := laneResults(t, serveLines(t, lp.Program, `{"id":"s","steps":2500,"seedXors":[1,2]}`))
	want := []string{
		"reset 1", "run 1 [0,1024)", "run 1 [1024,2048)",
		"reset 2", "run 2 [0,1024)", "run 2 [1024,2048)", "run 2 [2048,2500)",
	}
	if !reflect.DeepEqual(lp.log, want) {
		t.Errorf("hook calls %v, want %v", lp.log, want)
	}
	if lanes[0].Steps != 1500 || lanes[1].Steps != 2500 {
		t.Errorf("lanes ran %d and %d steps, want 1500 and 2500", lanes[0].Steps, lanes[1].Steps)
	}
}

// TestStopOnChunkEndEndsLane: a stop on the last step of a chunk leaves
// Run returning the chunk's end, so the runtime calls it once more; that
// call runs nothing and ends the lane at the stop.
func TestStopOnChunkEndEndsLane(t *testing.T) {
	lp := newLaneProgram()
	lp.stopAt = map[uint64]int64{1: 1024}
	lanes := laneResults(t, serveLines(t, lp.Program, `{"id":"e","steps":2500,"seedXors":[1,2]}`))
	want := []string{
		"reset 1", "run 1 [0,1024)", "run 1 [1024,2048)",
		"reset 2", "run 2 [0,1024)", "run 2 [1024,2048)", "run 2 [2048,2500)",
	}
	if !reflect.DeepEqual(lp.log, want) {
		t.Errorf("hook calls %v, want %v", lp.log, want)
	}
	if lanes[0].Steps != 1024 || lanes[1].Steps != 2500 {
		t.Errorf("lanes ran %d and %d steps, want 1024 and 2500", lanes[0].Steps, lanes[1].Steps)
	}
}

// TestBudgetLanesInOneRequest: a budget bounds every lane of a multi-lane
// request on the lane's own clock, read before each chunk. Budget-only
// lanes end on a chunk boundary after at least one chunk; with a step
// bound too, whichever is reached first ends the lane.
func TestBudgetLanesInOneRequest(t *testing.T) {
	const delay = 2 * time.Millisecond
	// A chunk takes at least delay, so a 10 ms budget admits at most 5.
	for _, c := range []struct {
		req       string
		exact     int64 // 0: ended by the budget
		wantCalls int
	}{
		{`{"id":"b","budgetMs":10,"seedXors":[1,2,3]}`, 0, 0},
		{`{"id":"sb","steps":1000000000,"budgetMs":10,"seedXors":[1,2,3]}`, 0, 0},
		{`{"id":"s","steps":3000,"budgetMs":5000,"seedXors":[1,2,3]}`, 3000, 3 * (1 + 3)},
	} {
		lp := newLaneProgram()
		lp.delay = delay
		lanes := laneResults(t, serveLines(t, lp.Program, c.req))
		for i, r := range lanes {
			switch {
			case c.exact > 0 && r.Steps != c.exact:
				t.Errorf("%s: lane %d ran %d steps, want the step bound %d", c.req, i, r.Steps, c.exact)
			case c.exact == 0 && (r.Steps < 1024 || r.Steps > 5*1024 || r.Steps%1024 != 0):
				t.Errorf("%s: lane %d ran %d steps, want 1 to 5 whole chunks", c.req, i, r.Steps)
			}
		}
		if c.wantCalls > 0 && len(lp.log) != c.wantCalls {
			t.Errorf("%s: hook calls %v", c.req, lp.log)
		}
	}
}

// TestEmptySeedXorsErrorFrame: a request without seeds runs nothing and
// answers with an error frame and no lanes.
func TestEmptySeedXorsErrorFrame(t *testing.T) {
	lp := newLaneProgram()
	lines := serveLines(t, lp.Program, `{"id":"e","steps":5}`, `{"id":"f","steps":5,"seedXors":[]}`)
	if len(lines) != 2 || len(lp.log) != 0 {
		t.Fatalf("serve wrote %q and called %v", lines, lp.log)
	}
	for i, id := range []string{"e", "f"} {
		var h struct {
			ID, Error string
			LaneCount int
		}
		if err := json.Unmarshal([]byte(lines[i]), &h); err != nil || h.ID != id ||
			!strings.Contains(h.Error, "no seedXors") || h.LaneCount != 0 {
			t.Errorf("frame %s: %+v %v", lines[i], h, err)
		}
	}
}

// TestCoverageClearedOncePerRequest: the runtime clears coverage once per
// request, before the first reset. Only the last lane of a request
// carries coverage, and it holds every lane's bits; a one-lane request
// served after it carries only its own, and the premark bits Reset sets
// survive the clear.
func TestCoverageClearedOncePerRequest(t *testing.T) {
	lp := newLaneProgram()
	lines := serveLines(t, lp.Program,
		`{"id":"b1","steps":100,"seedXors":[3,1]}`,
		`{"id":"s","steps":100,"seedXors":[5]}`,
		`{"id":"b2","steps":100,"seedXors":[2]}`,
	)
	if len(lines) != 3+2+2 {
		t.Fatalf("serve wrote %d lines:\n%s", len(lines), strings.Join(lines, "\n"))
	}
	b1, s, b2 := laneResults(t, lines[0:3]), laneResults(t, lines[3:5]), laneResults(t, lines[5:7])
	if b1[0].Coverage != nil {
		t.Errorf("lane 0 of 2 carries coverage %+v", b1[0].Coverage)
	}
	for _, c := range []struct {
		name string
		cov  *coverage.Raw
		want []byte
	}{
		{"request [3 1]", b1[1].Coverage, []byte{1, 1, 0, 1, 0, 0, 0, 0}},
		{"request [5] after it", s[0].Coverage, []byte{1, 0, 0, 0, 0, 1, 0, 0}},
		{"request [2] after that", b2[0].Coverage, []byte{1, 0, 1, 0, 0, 0, 0, 0}},
	} {
		if c.cov == nil || !bytes.Equal(c.cov.Actor, c.want) {
			t.Errorf("%s: last lane's coverage %+v, want actor bits %v", c.name, c.cov, c.want)
		}
	}
}

// TestBatchHeartbeatContract: a request heartbeats on one clock. Steps
// sum over lanes and never decrease, elapsed time runs from the
// request's start, records come no faster than the request's interval,
// and exactly one final record comes last, carrying the sum of the
// lanes' steps.
func TestBatchHeartbeatContract(t *testing.T) {
	const hbMS = 2
	lp := newLaneProgram()
	lp.delay = time.Millisecond
	lp.stopAt = map[uint64]int64{1: 2100}
	f, err := os.CreateTemp(t.TempDir(), "stderr")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	stderr := os.Stderr
	os.Stderr = f
	lines := serveLines(t, lp.Program, `{"id":"hb","steps":5000,"seedXors":[3,1,2],"heartbeatMs":2}`)
	os.Stderr = stderr
	lanes := laneResults(t, lines)
	var laneNanos int64
	for _, r := range lanes {
		laneNanos += r.ExecNanos
	}
	data, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	var beats []obs.Snapshot
	for _, line := range strings.Split(strings.TrimSuffix(string(data), "\n"), "\n") {
		s, ok := obs.ParseHeartbeat([]byte(line))
		if !ok || s.Run != "hb" {
			t.Fatalf("stderr line %q is not a heartbeat of the request", line)
		}
		beats = append(beats, s)
	}
	if len(beats) < 3 {
		t.Fatalf("%d heartbeats; the contract is not exercised", len(beats))
	}
	last := beats[len(beats)-1]
	if !last.Final || last.Steps != 5000+2100+5000 {
		t.Errorf("last heartbeat %+v, want the final one with %d steps", last, 5000+2100+5000)
	}
	if last.ElapsedNanos < laneNanos {
		t.Errorf("final heartbeat at %v, before the lanes' summed loop time %v: not the request's clock",
			time.Duration(last.ElapsedNanos), time.Duration(laneNanos))
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
