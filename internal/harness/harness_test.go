package harness_test

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"accmos/internal/actors"
	"accmos/internal/codegen"
	"accmos/internal/harness"
	"accmos/internal/model"
	"accmos/internal/obs"
	"accmos/internal/testcase"
	"accmos/internal/types"
)

func program(t *testing.T) *codegen.Program {
	t.Helper()
	m := model.NewBuilder("H").
		Add("In", "Inport", 0, 1, model.WithOutKind(types.F64), model.WithParam("Port", "1")).
		Add("G", "Gain", 1, 1, model.WithParam("Gain", "2")).
		Add("Out", "Outport", 1, 0, model.WithParam("Port", "1")).
		Chain("In", "G", "Out").
		MustBuild()
	c, err := actors.Compile(m)
	if err != nil {
		t.Fatal(err)
	}
	p, err := codegen.Generate(c, codegen.Options{
		Coverage: true, TestCases: testcase.NewRandomSet(1, 1, -1, 1),
	})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestBuildAndRun(t *testing.T) {
	p := program(t)
	bin, compileTime, err := harness.Build(context.Background(), p, t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if compileTime <= 0 {
		t.Error("compile time not recorded")
	}
	res, err := harness.RunContext(context.Background(), bin, harness.RunOptions{Steps: 123})
	if err != nil {
		t.Fatal(err)
	}
	if res.Steps != 123 || res.Engine != "AccMoS" || res.Model != "H" {
		t.Errorf("results: %+v", res)
	}
	if res.Coverage == nil || len(res.Coverage.Actor) != 3 {
		t.Errorf("coverage bitmaps: %+v", res.Coverage)
	}
}

func TestRunReusesBinary(t *testing.T) {
	p := program(t)
	bin, compileTime, err := harness.Build(context.Background(), p, t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if compileTime <= 0 {
		t.Error("no compile time")
	}
	r1, err := harness.RunContext(context.Background(), bin, harness.RunOptions{Steps: 10})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := harness.RunContext(context.Background(), bin, harness.RunOptions{Steps: 10})
	if err != nil {
		t.Fatal(err)
	}
	if r1.OutputHash != r2.OutputHash {
		t.Error("same binary, same flags, different outputs")
	}
}

func TestRunBudgetMode(t *testing.T) {
	p := program(t)
	bin, _, err := harness.Build(context.Background(), p, t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := harness.RunContext(context.Background(), bin, harness.RunOptions{Budget: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if res.Steps == 0 {
		t.Error("budget mode executed no steps")
	}
}

func TestBuildSurfacesCompilerErrors(t *testing.T) {
	p := &codegen.Program{Model: "BAD", Source: "package main\nfunc main() { undefined() }\n"}
	_, _, err := harness.Build(context.Background(), p, t.TempDir(), nil)
	if err == nil {
		t.Fatal("broken source must fail")
	}
	if !strings.Contains(err.Error(), "undefined") || !strings.Contains(err.Error(), "generated source") {
		t.Errorf("error lacks diagnostics: %v", err)
	}
}

func TestRunMissingBinary(t *testing.T) {
	if _, err := harness.RunContext(context.Background(), "/nonexistent/bin", harness.RunOptions{Steps: 1}); err == nil {
		t.Fatal("missing binary must error")
	}
}

func TestRunHeartbeatTimeline(t *testing.T) {
	p := program(t)
	bin, _, err := harness.Build(context.Background(), p, t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	var viaCallback []obs.Snapshot
	res, err := harness.RunContext(context.Background(), bin, harness.RunOptions{
		Steps:     5_000_000,
		Heartbeat: time.Millisecond,
		Progress:  func(s obs.Snapshot) { viaCallback = append(viaCallback, s) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Steps != 5_000_000 || res.Coverage == nil {
		t.Fatalf("heartbeats corrupted the results: %+v", res)
	}
	if len(res.Timeline) < 2 {
		t.Fatalf("want >=2 snapshots (ticks plus final), got %d", len(res.Timeline))
	}
	if len(viaCallback) != len(res.Timeline) {
		t.Errorf("callback saw %d snapshots, timeline has %d", len(viaCallback), len(res.Timeline))
	}
	last := res.Timeline[len(res.Timeline)-1]
	if !last.Final || last.Steps != res.Steps {
		t.Errorf("final snapshot: %+v", last)
	}
	for i, s := range res.Timeline {
		if s.Model != "H" || s.Engine != "AccMoS" {
			t.Errorf("snapshot %d misattributed: %+v", i, s)
		}
		if s.Coverage < 0 || s.Coverage > 100 {
			t.Errorf("snapshot %d coverage out of range: %v", i, s.Coverage)
		}
		if i == 0 {
			continue
		}
		prev := res.Timeline[i-1]
		if s.Steps < prev.Steps || s.Coverage < prev.Coverage || s.ElapsedNanos < prev.ElapsedNanos {
			t.Errorf("snapshot %d regressed: %+v -> %+v", i, prev, s)
		}
	}
}

func TestRunHeartbeatOffByDefault(t *testing.T) {
	p := program(t)
	bin, _, err := harness.Build(context.Background(), p, t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := harness.RunContext(context.Background(), bin, harness.RunOptions{Steps: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Timeline) != 0 {
		t.Errorf("heartbeat must be opt-in, got %d snapshots", len(res.Timeline))
	}
}

// fakeBinary writes an executable shell script standing in for a
// generated simulation binary, to exercise the harness's stderr and
// protocol handling.
func fakeBinary(t *testing.T, script string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "fake_sim")
	if err := os.WriteFile(path, []byte("#!/bin/sh\n"+script), 0o755); err != nil {
		t.Fatal(err)
	}
	return path
}

// answerFrame is the shell a fake binary runs to answer its one request
// with a one-lane response frame carrying doc (which must not hold a
// single quote).
func answerFrame(doc string) string {
	return `read line
id=$(echo "$line" | sed 's/.*"id":"\([^"]*\)".*/\1/')
printf '{"accmosRun":1,"id":"%s","laneCount":1}\n%s\n' "$id" '` + doc + `'
`
}

func TestRunDecodesResultsWithInterleavedStderr(t *testing.T) {
	bin := fakeBinary(t, `
echo 'warming up' >&2
echo '{"accmosHB":1,"model":"F","engine":"AccMoS","steps":100,"elapsedNanos":5,"stepsPerSec":1,"coverage":50,"diags":0}' >&2
echo 'midway note' >&2
echo '{"accmosHB":1,"model":"F","engine":"AccMoS","steps":200,"elapsedNanos":9,"stepsPerSec":1,"coverage":75,"diags":1,"final":true}' >&2
`+answerFrame(`{"model":"F","engine":"AccMoS","steps":200,"execNanos":9,"outputHash":1,"diagTotal":0}`))
	res, err := harness.RunContext(context.Background(), bin, harness.RunOptions{Steps: 200})
	if err != nil {
		t.Fatal(err)
	}
	if res.Model != "F" || res.Steps != 200 {
		t.Errorf("results: %+v", res)
	}
	if len(res.Timeline) != 2 {
		t.Fatalf("want 2 heartbeats in the timeline, got %+v", res.Timeline)
	}
	if res.Timeline[0].Coverage != 50 || !res.Timeline[1].Final || res.Timeline[1].Diags != 1 {
		t.Errorf("timeline misdecoded: %+v", res.Timeline)
	}
}

// hungBinary stands in for a wedged generated program: the shell spawns a
// child that sleeps far past any test deadline, so only a process-group
// kill can unblock the stderr drain.
func hungBinary(t *testing.T) string {
	t.Helper()
	return fakeBinary(t, "echo wedged >&2\nsleep 100 &\nwait\n")
}

func TestRunTimeoutKillsHungBinary(t *testing.T) {
	bin := hungBinary(t)
	start := time.Now()
	_, err := harness.RunContext(context.Background(), bin, harness.RunOptions{Steps: 1, Timeout: 250 * time.Millisecond})
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("a hung binary must surface as an error")
	}
	if !strings.Contains(err.Error(), "250ms timeout") {
		t.Errorf("error must name the deadline: %v", err)
	}
	if elapsed > 10*time.Second {
		t.Errorf("kill took %v; want within a few hundred ms of the 250ms deadline", elapsed)
	}
}

func TestRunContextCancelKillsBinary(t *testing.T) {
	bin := hungBinary(t)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(100 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := harness.RunContext(ctx, bin, harness.RunOptions{Steps: 1})
	if err == nil {
		t.Fatal("cancellation must surface as an error")
	}
	if !strings.Contains(err.Error(), "context canceled") {
		t.Errorf("error must name the cancellation: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Errorf("kill took %v after a 100ms cancel", elapsed)
	}
}

func TestRunContextAlreadyCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := harness.RunContext(ctx, "/nonexistent/bin", harness.RunOptions{Steps: 1}); err == nil {
		t.Fatal("a cancelled context must fail before starting the binary")
	}
}

func TestRunSurvivesOversizedStderrLine(t *testing.T) {
	// A diagnostic line beyond the 1 MiB scanner cap must not leave the
	// pipe undrained (which would deadlock cmd.Wait): the run still
	// completes and decodes its results.
	bin := fakeBinary(t, `
head -c 2097152 /dev/zero | tr '\0' 'x' >&2
echo >&2
`+answerFrame(`{"model":"F","engine":"AccMoS","steps":7,"execNanos":1,"outputHash":1,"diagTotal":0}`))
	res, err := harness.RunContext(context.Background(), bin, harness.RunOptions{Steps: 7})
	if err != nil {
		t.Fatalf("oversized stderr line broke a successful run: %v", err)
	}
	if res.Steps != 7 {
		t.Errorf("results corrupted: %+v", res)
	}
}

func TestRunErrorSurfacesStderrScanError(t *testing.T) {
	bin := fakeBinary(t, `
echo 'before the flood' >&2
head -c 2097152 /dev/zero | tr '\0' 'x' >&2
echo >&2
exit 1
`)
	_, err := harness.RunContext(context.Background(), bin, harness.RunOptions{Steps: 1})
	if err == nil {
		t.Fatal("exit 1 must surface as an error")
	}
	if !strings.Contains(err.Error(), "stderr scan aborted") {
		t.Errorf("error must surface the scanner failure: %v", err)
	}
}

func TestRunSubMillisecondBudgetClamped(t *testing.T) {
	// The embedded default step count is enormous: if a 500µs budget were
	// dropped (the old -budget-ms=0 bug), the binary would fall back to
	// it and this test would time out instead of finishing in ~1ms.
	m := model.NewBuilder("HB").
		Add("In", "Inport", 0, 1, model.WithOutKind(types.F64), model.WithParam("Port", "1")).
		Add("G", "Gain", 1, 1, model.WithParam("Gain", "2")).
		Add("Out", "Outport", 1, 0, model.WithParam("Port", "1")).
		Chain("In", "G", "Out").
		MustBuild()
	c, err := actors.Compile(m)
	if err != nil {
		t.Fatal(err)
	}
	p, err := codegen.Generate(c, codegen.Options{
		TestCases: testcase.NewRandomSet(1, 1, -1, 1), DefaultSteps: 1 << 40,
	})
	if err != nil {
		t.Fatal(err)
	}
	bin, _, err := harness.Build(context.Background(), p, t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := harness.RunContext(context.Background(), bin, harness.RunOptions{
		Budget:  500 * time.Microsecond,
		Timeout: 30 * time.Second, // backstop so a regression fails fast
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Steps == 0 {
		t.Error("clamped budget executed no steps")
	}
	if res.Steps == 1<<40 {
		t.Error("budget was dropped: the run used the default step count")
	}
}

func TestSharedWorkDirDistinctPrograms(t *testing.T) {
	// m.1 and m_1 sanitize to the same name; the content-hash suffix must
	// keep their sources and binaries apart in one shared WorkDir.
	src := func(steps string) string {
		return `package main
import ("bufio"; "fmt"; "os")
func main() {
	bufio.NewReader(os.Stdin).ReadString('\n')
	fmt.Println(` + "`" + `{"accmosRun":1,"id":"r1","laneCount":1}` + "`" + `)
	fmt.Println(` + "`" + `{"model":"X","engine":"AccMoS","steps":` + steps + `,"execNanos":0,"outputHash":0,"diagTotal":0}` + "`" + `)
}
`
	}
	dir := t.TempDir()
	pa := &codegen.Program{Model: "m.1", Source: src("1")}
	pb := &codegen.Program{Model: "m_1", Source: src("2")}
	binA, _, err := harness.Build(context.Background(), pa, dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	binB, _, err := harness.Build(context.Background(), pb, dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if binA == binB {
		t.Fatalf("distinct programs share the binary path %s", binA)
	}
	// Both binaries must still exist and behave as their own program —
	// i.e. the second build must not have overwritten the first.
	resA, err := harness.RunContext(context.Background(), binA, harness.RunOptions{Steps: 1})
	if err != nil {
		t.Fatal(err)
	}
	resB, err := harness.RunContext(context.Background(), binB, harness.RunOptions{Steps: 1})
	if err != nil {
		t.Fatal(err)
	}
	if resA.Steps != 1 || resB.Steps != 2 {
		t.Errorf("binaries crossed: steps %d / %d, want 1 / 2", resA.Steps, resB.Steps)
	}
}

func TestRunErrorCarriesDiagnosticTailNotHeartbeats(t *testing.T) {
	var sb strings.Builder
	for i := 1; i <= 30; i++ {
		fmt.Fprintf(&sb, "echo 'diag line %02d' >&2\n", i)
		sb.WriteString(`echo '{"accmosHB":1,"steps":1}' >&2` + "\n")
	}
	sb.WriteString("exit 1\n")
	bin := fakeBinary(t, sb.String())
	_, err := harness.RunContext(context.Background(), bin, harness.RunOptions{Steps: 1})
	if err == nil {
		t.Fatal("exit 1 must surface as an error")
	}
	msg := err.Error()
	if !strings.Contains(msg, "diag line 30") || !strings.Contains(msg, "diag line 11") {
		t.Errorf("error lacks the stderr tail: %v", msg)
	}
	if strings.Contains(msg, "diag line 10") {
		t.Errorf("error should keep only the last 20 diagnostic lines: %v", msg)
	}
	if strings.Contains(msg, "accmosHB") {
		t.Errorf("heartbeats leaked into the run error: %v", msg)
	}
}

func TestRunErrorsCarryModelAndSuiteLabel(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "no-such-binary")
	_, err := harness.RunContext(context.Background(), missing, harness.RunOptions{Model: "CSEV", Suite: 3})
	if err == nil {
		t.Fatal("running a missing binary must fail")
	}
	for _, want := range []string{"CSEV", "suite 3"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not name %q", err, want)
		}
	}

	// Without labels the error falls back to the binary path alone.
	_, err = harness.RunContext(context.Background(), missing, harness.RunOptions{})
	if err == nil || !strings.Contains(err.Error(), missing) {
		t.Fatalf("unlabeled error should carry the path: %v", err)
	}
}

func TestRunContextCanceledErrorIsLabeled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := harness.RunContext(ctx, "/nonexistent", harness.RunOptions{Model: "M7"})
	if err == nil || !strings.Contains(err.Error(), "M7") {
		t.Fatalf("pre-canceled run error should name the model: %v", err)
	}
}
