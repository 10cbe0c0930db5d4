package simrt

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// The runtime replaces encoding/json, flag, encoding/base64 and fmt with
// small readers and writers of its own. These tests hold each to the
// standard library, which only the tests import.

// validRequests decode as encoding/json decodes them.
var validRequests = []string{
	`{"id":"r1","steps":42,"seedXors":[5],"corr":"j-1"}`,
	`{"id":"r2","steps":8,"budgetMs":0,"seedXors":[1,2],"heartbeatMs":25}`,
	` { "id" : "sp" , "steps" : -3 , "seedXors" : [ 0 , 18446744073709551615 ] } `,
	"{\t\"id\":\r\n\"ws\",\"seedXors\":[]}",
	`{}`,
	`{"seedXors":null}`,
	`{"id":"a","id":"b","seedXors":[1,2],"seedXors":[3]}`,
	`{"seedXors":[1],"seedXors":[]}`,
	`{"id":"\"\\\/\b\f\n\r\tA\u00e9中🙂"}`,
	`{"id":"\u0000\u001f\u2028\uFFFD\ufffe"}`,
	"{\"id\":\"raw \xff\xc3 utf8 \xe9\"}",
	`{"\u0069d":"escaped key"}`,
	`{"steps":9223372036854775807,"budgetMs":-9223372036854775808}`,
	`{"steps":-0}`,
}

// malformedRequests are lines the reader rejects: encoding/json rejects
// them too, or accepts them but never writes them for a Request.
var malformedRequests = []string{
	`null`, `[]`, `{"id":"x",}`, `{"steps":1.5}`, `{"steps":1e3}`, `{"steps":01}`,
	`{"steps":"5"}`, `{"steps":9223372036854775808}`, `{"seedXors":[-1]}`, `{"seedXors":[1,]}`,
	`{"seedXors":[null]}`, `{"ID":"folded"}`, `{"extra":1}`, `{"id":"a"} x`, `{"id":"a`, "{\"id\":\"\x01\"}",
	`{"id":"\u12"}`, `{"id":"\q"}`, `{"id" "a"}`, `{"seedXors":[1 2]}`, `{"steps":true}`, `{"id":nul}`,
	`{"id":null}`, `{"steps":null}`, `{"id":"\ud800\udc00"}`, `{"id":"\udc00"}`, `{,}`, `{"id":"a"`,
}

// FuzzDecodeRequest: any line the reader accepts decodes to the same
// Request under encoding/json, and no line makes it panic.
func FuzzDecodeRequest(f *testing.F) {
	for _, line := range slices.Concat(validRequests, malformedRequests) {
		f.Add([]byte(line))
	}
	f.Fuzz(func(t *testing.T, line []byte) {
		var got Request
		if decodeRequest(line, &got) != nil {
			return
		}
		var want Request
		if err := json.Unmarshal(line, &want); err != nil {
			t.Fatalf("decodeRequest accepted %q, which encoding/json rejects: %v", line, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%q decoded as\n %#v\nencoding/json decodes\n %#v", line, got, want)
		}
	})
}

// TestDecodeRequestAcceptsMarshal: every request json.Marshal writes, as
// the harness does, and every valid corpus line, decodes to what
// encoding/json decodes from it: escaped ids, negative bounds, extreme
// seeds and a null seedXors.
func TestDecodeRequestAcceptsMarshal(t *testing.T) {
	reqs := []Request{
		{},
		{ID: "r1", Steps: 1000, SeedXors: []uint64{7, 8}},
		{ID: `q"uo\te` + "\n\t\x00\x1f\x7f<>&  é中🙂\xff\xc3", Corr: "j-<9>", SeedXors: []uint64{0}},
		{ID: "neg", Steps: -1, BudgetMS: math.MinInt64, HeartbeatMS: -25, SeedXors: []uint64{math.MaxUint64}},
		{ID: "max", Steps: math.MaxInt64, BudgetMS: math.MaxInt64, HeartbeatMS: math.MaxInt64, SeedXors: []uint64{}},
		{ID: "nil", Steps: 3, SeedXors: nil},
	}
	rng := rand.New(rand.NewSource(1))
	for range 200 {
		r := Request{
			ID:          randString(rng),
			Steps:       rng.Int63() - rng.Int63(),
			BudgetMS:    rng.Int63n(3) - 1,
			HeartbeatMS: rng.Int63n(100),
			Corr:        randString(rng),
		}
		for range rng.Intn(5) {
			r.SeedXors = append(r.SeedXors, rng.Uint64())
		}
		reqs = append(reqs, r)
	}
	lines := slices.Clone(validRequests)
	for _, r := range reqs {
		line, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		lines = append(lines, string(line))
	}
	for _, line := range lines {
		var got, want Request
		if err := decodeRequest([]byte(line), &got); err != nil {
			t.Errorf("decodeRequest(%s): %v", line, err)
			continue
		}
		if err := json.Unmarshal([]byte(line), &want); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s decoded as\n %#v\nencoding/json decodes\n %#v", line, got, want)
		}
	}

	// A null seedXors decodes, and the serve loop answers it with the
	// no-seeds error frame.
	lines = serveLines(t, newLaneProgram().Program, `{"id":"n","steps":5,"seedXors":null}`)
	if len(lines) != 1 || !strings.Contains(lines[0], `"id":"n","error":"request carries no seedXors"`) {
		t.Errorf("null seedXors answered %q", lines)
	}
}

// randString is a short string of runes JSON must escape or carry
// verbatim, and occasionally a byte of invalid UTF-8.
func randString(rng *rand.Rand) string {
	const pool = "aZ09 \"\\/\b\f\n\r\t\x00\x1f\x7f<>&é中🙂 �"
	runes := []rune(pool)
	var b strings.Builder
	for range rng.Intn(12) {
		if rng.Intn(20) == 0 {
			b.WriteByte(0x80 + byte(rng.Intn(0x80)))
			continue
		}
		b.WriteRune(runes[rng.Intn(len(runes))])
	}
	return b.String()
}

// TestMalformedRequestsGetErrorFrames: every line the reader rejects is
// answered with one "decoding request" error frame, and serving goes on.
func TestMalformedRequestsGetErrorFrames(t *testing.T) {
	bad := malformedRequests
	for _, line := range bad {
		if decodeRequest([]byte(line), &Request{}) == nil {
			t.Fatalf("decodeRequest accepted %q", line)
		}
	}
	lp := newLaneProgram()
	lines := serveLines(t, lp.Program, slices.Concat(bad, []string{`{"id":"ok","steps":1,"seedXors":[1]}`})...)
	if len(lines) != len(bad)+2 {
		t.Fatalf("serve wrote %d lines for %d bad requests and one good one:\n%s", len(lines), len(bad), strings.Join(lines, "\n"))
	}
	for i, line := range lines[:len(bad)] {
		var h struct{ Error string }
		if err := json.Unmarshal([]byte(line), &h); err != nil || !strings.HasPrefix(h.Error, "decoding request: ") {
			t.Errorf("request %q answered %s (%v)", bad[i], line, err)
		}
	}
	if res := laneResults(t, lines[len(bad):]); res[0].Steps != 1 {
		t.Errorf("the good request after the bad ones ran %d steps", res[0].Steps)
	}
}

// TestAppendBase64MatchesStdEncoding: the coverage bitmaps encode as
// base64.StdEncoding encodes them, padding included.
func TestAppendBase64MatchesStdEncoding(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var inputs [][]byte
	for n := range 65 {
		b := make([]byte, n)
		rng.Read(b)
		inputs = append(inputs, b)
	}
	for range 100 {
		bm := make([]byte, rng.Intn(2000))
		for i := range bm {
			bm[i] = byte(rng.Intn(2))
		}
		inputs = append(inputs, bm)
	}
	for _, in := range inputs {
		got := appendBase64([]byte("prefix"), in)
		want := "prefix" + base64.StdEncoding.EncodeToString(in)
		if string(got) != want {
			t.Errorf("appendBase64 of %d bytes %x\n got  %s\n want %s", len(in), in, got, want)
		}
	}
}

// TestDetailsMatchEngineFormat: the custom-check details are what the
// engines' fmt formats produce, for the values %g renders specially.
func TestDetailsMatchEngineFormat(t *testing.T) {
	vals := []float64{0, math.Copysign(0, -1), 1, -2.5, 0.1, 1e20, 1e21, 1e-5, 123456789, 1e-7,
		math.MaxFloat64, math.SmallestNonzeroFloat64, 2.2250738585072014e-308, math.NaN(), math.Inf(1), math.Inf(-1)}
	rng := rand.New(rand.NewSource(3))
	for range 2000 {
		vals = append(vals, math.Float64frombits(rng.Uint64()))
	}
	for i, v := range vals {
		lo, hi := vals[(i+1)%len(vals)], vals[(i+2)%len(vals)]
		if got, want := RangeDetail("rng", v, lo, hi), fmt.Sprintf("%s: value %g outside [%g, %g]", "rng", v, lo, hi); got != want {
			t.Errorf("RangeDetail = %q, want %q", got, want)
		}
		if got, want := DeltaDetail("dlt", v, lo), fmt.Sprintf("%s: jump %g exceeds %g", "dlt", v, lo); got != want {
			t.Errorf("DeltaDetail = %q, want %q", got, want)
		}
	}
}

// TestParseArgs: the forms the harness and the benchmark pass are read
// as the flag package read them; anything else is an error.
func TestParseArgs(t *testing.T) {
	for _, c := range []struct {
		args  []string
		steps int64
		serve bool
	}{
		{nil, 100, false},
		{[]string{"-serve"}, 100, true},
		{[]string{"-steps=3000"}, 3000, false},
		{[]string{"-steps", "7"}, 7, false},
		{[]string{"-steps", "-4", "-serve"}, -4, true},
		{[]string{"-serve", "-steps=0"}, 0, true},
	} {
		steps, serve, err := parseArgs(c.args, 100)
		if err != nil || steps != c.steps || serve != c.serve {
			t.Errorf("parseArgs(%q) = %d, %v, %v; want %d, %v", c.args, steps, serve, err, c.steps, c.serve)
		}
	}
	for _, args := range [][]string{
		{"-bogus"}, {"serve"}, {"-steps"}, {"-steps="}, {"-steps=x"}, {"-steps", "1.5"}, {"-stepsx=1"}, {"-serve=true"},
	} {
		if _, _, err := parseArgs(args, 100); err == nil {
			t.Errorf("parseArgs(%q) accepted", args)
		}
	}
}

// TestMainExitCodes runs Main in a child process, a link of the test
// binary beside its own params file: -steps=N prints the bare result
// document, the run parameters' step count is the default, and an
// unknown argument, a missing params file or run parameters that do not
// fit the program exit with status 2 and a message on stderr that names
// the file.
func TestMainExitCodes(t *testing.T) {
	if args, ok := os.LookupEnv("SIMRT_TEST_MAIN_ARGS"); ok {
		os.Args = append([]string{"prog"}, strings.Fields(args)...)
		testProgram().Main()
		os.Exit(0)
	}
	self, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	run := func(params *string, args string) (stdout, stderr string, code int) {
		bin := filepath.Join(t.TempDir(), "prog")
		if err := os.Link(self, bin); err != nil {
			data, err := os.ReadFile(self)
			if err == nil {
				err = os.WriteFile(bin, data, 0o755)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		if params != nil {
			if err := os.WriteFile(bin+ParamsSuffix, []byte(*params), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		cmd := exec.Command(bin, "-test.run=^TestMainExitCodes$")
		cmd.Env = append(os.Environ(), "SIMRT_TEST_MAIN_ARGS="+args)
		var out, errOut bytes.Buffer
		cmd.Stdout, cmd.Stderr = &out, &errOut
		err := cmd.Run()
		if exit, ok := err.(*exec.ExitError); ok {
			code = exit.ExitCode()
		} else if err != nil {
			t.Fatal(err)
		}
		return out.String(), errOut.String(), code
	}
	params := func(s string) *string { return &s }
	for _, args := range []string{"-steps=5", "-steps 5"} {
		if out, _, code := run(params("steps=1"), args); code != 0 || !strings.HasPrefix(out, `{"model":`) || !strings.Contains(out, `"steps":5,`) {
			t.Errorf("%s: exit %d, stdout %q", args, code, out)
		}
	}
	if out, _, code := run(params("steps=7"), ""); code != 0 || !strings.Contains(out, `"steps":7,`) {
		t.Errorf("default steps from the run parameters: exit %d, stdout %q", code, out)
	}
	if _, errOut, code := run(params("steps=1"), "-bogus"); code != 2 || !strings.Contains(errOut, `unknown argument "-bogus"`) {
		t.Errorf("-bogus: exit %d, stderr %q", code, errOut)
	}
	if out, errOut, code := run(nil, "-steps=5"); code != 2 || out != "" || !strings.Contains(errOut, "prog"+ParamsSuffix+": no such file") {
		t.Errorf("no params file: exit %d, stdout %q, stderr %q", code, out, errOut)
	}
	for _, bad := range []string{"", "steps=1\n"} {
		if out, errOut, code := run(params(bad), "-steps=5"); code != 2 || out != "" || !strings.Contains(errOut, "prog"+ParamsSuffix+": run parameters") {
			t.Errorf("params file %q: exit %d, stdout %q, stderr %q", bad, code, out, errOut)
		}
	}
	if _, errOut, code := run(params("steps=1,u=1:0:1"), "-steps=5"); code != 2 || !strings.Contains(errOut, "want 0 uniform sources") {
		t.Errorf("run parameters for another program: exit %d, stderr %q", code, errOut)
	}
}

// TestParamsRoundTrip: FormatParams and readParams agree bit for bit,
// signed zeros, infinities and NaN included, and readParams rejects
// parameters that are malformed or do not fit the program.
func TestParamsRoundTrip(t *testing.T) {
	want := []Uniform{
		{Seed: 0, Lo: -0.1, Hi: 0.2},
		{Seed: math.MaxUint64, Lo: math.Copysign(0, -1), Hi: math.Inf(1)},
		{Seed: 0x9E3779B97F4A7C15, Lo: math.Inf(-1), Hi: math.NaN()},
		{Seed: 7, Lo: 5e-324, Hi: math.MaxFloat64},
	}
	s := FormatParams(-3, want)
	p := &Program{Uniform: make([]Uniform, len(want))}
	steps, err := p.readParams(s)
	if err != nil || steps != -3 {
		t.Fatalf("readParams(%q) = %d, %v", s, steps, err)
	}
	for i, u := range p.Uniform {
		w := want[i]
		if u.Seed != w.Seed || math.Float64bits(u.Lo) != math.Float64bits(w.Lo) ||
			math.Float64bits(u.Hi) != math.Float64bits(w.Hi) && !(math.IsNaN(u.Hi) && math.IsNaN(w.Hi)) {
			t.Errorf("source %d: read %+v, wrote %+v", i, u, w)
		}
	}
	if strings.ContainsAny(s, " '\"$;&|<>()`\\") {
		t.Errorf("FormatParams(...) = %q needs quoting", s)
	}
	for _, bad := range []string{
		"", "u=1:0:1", "steps=x", "steps=1,u=1:0", "steps=1,u=1:0:1,u=1:0:1",
		"steps=1,u=-1:0:1", "steps=1,u=1:0:x", "steps=1,v=1:0:1", "steps=1,u=1:0:1,",
	} {
		p := &Program{Uniform: make([]Uniform, 1)}
		if _, err := p.readParams(bad); err == nil {
			t.Errorf("readParams(%q) accepted", bad)
		}
	}
}
