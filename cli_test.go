package accmos_test

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestCLIPipeline exercises the command-line tools the way a user would:
// materialise the benchmark models, run the AccMoS pipeline on one with
// cross-verification, lint it, and run the interpreted baseline engine.
func TestCLIPipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the CLI binaries")
	}
	dir := t.TempDir()
	build := func(name, pkg string) string {
		bin := filepath.Join(dir, name)
		out, err := exec.Command("go", "build", "-o", bin, pkg).CombinedOutput()
		if err != nil {
			t.Fatalf("building %s: %v\n%s", pkg, err, out)
		}
		return bin
	}
	accmosBin := build("accmos", "./cmd/accmos")
	modelgenBin := build("modelgen", "./cmd/modelgen")

	modelsDir := filepath.Join(dir, "models")
	out, err := exec.Command(modelgenBin, "-out", modelsDir).CombinedOutput()
	if err != nil {
		t.Fatalf("modelgen: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "SPV.xml") {
		t.Fatalf("modelgen output unexpected:\n%s", out)
	}
	entries, err := os.ReadDir(modelsDir)
	if err != nil || len(entries) < 12 {
		t.Fatalf("models dir: %v, %d entries", err, len(entries))
	}
	spv := filepath.Join(modelsDir, "SPV.xml")

	// End-to-end pipeline with interpreter cross-verification.
	out, err = exec.Command(accmosBin, "-model", spv, "-steps", "3000", "-verify", "-uncovered").CombinedOutput()
	if err != nil {
		t.Fatalf("accmos: %v\n%s", err, out)
	}
	s := string(out)
	for _, want := range []string{"engine:   AccMoS", "coverage:", "interpreter agrees", "uncovered points:"} {
		if !strings.Contains(s, want) {
			t.Errorf("accmos output missing %q:\n%s", want, s)
		}
	}

	// Static checks: the generated suite must be free of dead logic.
	out, err = exec.Command(accmosBin, "-model", spv, "-lint").CombinedOutput()
	s = string(out)
	if strings.Contains(s, "dead logic") {
		t.Errorf("benchmark model has dead logic:\n%s", s)
	}
	_ = err // non-zero exit is fine when findings exist

	// Interpreted baseline engine.
	out, err = exec.Command(accmosBin, "-model", spv, "-engine", "sse", "-steps", "1000").CombinedOutput()
	if err != nil {
		t.Fatalf("accmos -engine sse: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "steps:    1000") {
		t.Errorf("accmos -engine sse output unexpected:\n%s", out)
	}

	// JSON output mode decodes as JSON.
	out, err = exec.Command(accmosBin, "-model", spv, "-steps", "500", "-json").CombinedOutput()
	if err != nil {
		t.Fatalf("accmos -json: %v\n%s", err, out)
	}
	if !strings.HasPrefix(strings.TrimSpace(string(out)), "{") {
		t.Errorf("-json did not emit JSON:\n%s", out)
	}

	// -sweep prints each suite's own coverage, then the merged record.
	out, err = exec.Command(accmosBin, "-model", spv, "-steps", "2000", "-sweep", "4").CombinedOutput()
	if err != nil {
		t.Fatalf("accmos -sweep: %v\n%s", err, out)
	}
	s = string(out)
	if n := strings.Count(s, "  suite "); n != 4 || strings.Count(s, "mc/dc") != 5 {
		t.Errorf("-sweep 4 printed %d suite lines, want 4 with coverage plus the merged line:\n%s", n, s)
	}
	if strings.Contains(s, "(batched)") {
		t.Errorf("-sweep printed a suite without coverage:\n%s", s)
	}

	// -gen prints source that holds no run parameters, under a header
	// giving the -ldflags value that links them in. A plain go build of
	// it exits 2 naming the missing -X flag; a build with the header's
	// flags runs the header's step count and matches the interpreter.
	// The source imports accmos/internal/simrt, so it is built as a
	// package inside this module through an overlay.
	out, err = exec.Command(accmosBin, "-model", spv, "-steps", "700", "-gen").Output()
	if err != nil {
		t.Fatalf("accmos -gen: %v\n%s", err, out)
	}
	header, _, _ := strings.Cut(string(out), "\n")
	_, ldflags, ok := strings.Cut(header, "go build -ldflags='")
	ldflags, quoted := strings.CutSuffix(ldflags, "'")
	if !ok || !quoted || !strings.HasPrefix(ldflags, "-X main.runParams=steps=700,u=") || strings.Contains(string(out[len(header):]), "runParams=steps") {
		t.Fatalf("-gen header %q does not give the run parameters' -ldflags", header)
	}
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	genSrc, overlay := filepath.Join(dir, "gen.go"), filepath.Join(dir, "overlay.json")
	doc, _ := json.Marshal(map[string]map[string]string{"Replace": {filepath.Join(wd, "accmos_gen_overlay", "main.go"): genSrc}})
	if err := os.WriteFile(genSrc, out, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(overlay, doc, 0o644); err != nil {
		t.Fatal(err)
	}
	genBin := func(name string, flags ...string) string {
		bin := filepath.Join(dir, name)
		args := append([]string{"build", "-overlay", overlay, "-o", bin}, append(flags, "./accmos_gen_overlay")...)
		if out, err := exec.Command("go", args...).CombinedOutput(); err != nil {
			t.Fatalf("go %v: %v\n%s", args, err, out)
		}
		return bin
	}
	cmd := exec.Command(genBin("plain"), "-steps=5")
	var stderr strings.Builder
	cmd.Stderr = &stderr
	out, err = cmd.Output()
	if exit, ok := err.(*exec.ExitError); !ok || exit.ExitCode() != 2 || len(out) != 0 || !strings.Contains(stderr.String(), "-X main.runParams=") {
		t.Errorf("binary built without -ldflags: %v, stdout %q, stderr %q; want exit 2 naming the -X flag", err, out, stderr.String())
	}
	out, err = exec.Command(genBin("linked", "-ldflags="+ldflags)).Output()
	if err != nil {
		t.Fatalf("binary built with the header's -ldflags: %v\n%s", err, out)
	}
	var gen, ref struct {
		Steps      int64
		OutputHash uint64
	}
	refOut, err := exec.Command(accmosBin, "-model", spv, "-engine", "sse", "-steps", "700", "-json").Output()
	if err != nil {
		t.Fatalf("accmos -engine sse -json: %v\n%s", err, refOut)
	}
	if err := json.Unmarshal(out, &gen); err != nil || json.Unmarshal(refOut, &ref) != nil || gen.Steps != 700 || gen.OutputHash != ref.OutputHash {
		t.Errorf("binary built from -gen ran %d steps with hash %#x (%v), interpreter %d steps with %#x", gen.Steps, gen.OutputHash, err, ref.Steps, ref.OutputHash)
	}

	// -budget-ms: -steps bounds the run only when given explicitly, so the
	// -steps default does not cap a budgeted run.
	for _, c := range []struct {
		args []string
		ok   func(steps int64) bool
		want string
	}{
		{[]string{"-budget-ms", "300"}, func(n int64) bool { return n > 100000 }, "more than the 100000 -steps default"},
		{[]string{"-engine", "sse", "-budget-ms", "60000", "-steps", "2000"}, func(n int64) bool { return n == 2000 }, "the explicit 2000"},
	} {
		args := append([]string{"-model", spv, "-json"}, c.args...)
		out, err := exec.Command(accmosBin, args...).Output()
		if err != nil {
			t.Fatalf("accmos %v: %v\n%s", c.args, err, out)
		}
		var res struct{ Steps int64 }
		if err := json.Unmarshal(out, &res); err != nil || !c.ok(res.Steps) {
			t.Errorf("accmos %v ran %d steps (%v), want %s", c.args, res.Steps, err, c.want)
		}
	}
}

// TestCLIRemovesBuildCache: the CLI builds through the default build
// cache, whose directory under TMPDIR holds the run's source, object and
// binary. Both a run that succeeds and one that fails after its build
// (a run past its -timeout) remove it on exit.
func TestCLIRemovesBuildCache(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the CLI binary")
	}
	bin := filepath.Join(t.TempDir(), "accmos")
	if out, err := exec.Command("go", "build", "-o", bin, "./cmd/accmos").CombinedOutput(); err != nil {
		t.Fatalf("building the CLI: %v\n%s", err, out)
	}
	for _, tc := range []struct {
		name string
		args []string
		ok   bool
	}{
		{"success", nil, true},
		{"fatal", []string{"-timeout", "1ns"}, false},
	} {
		tmp := t.TempDir()
		cmd := exec.Command(bin, append([]string{"-model", "models/CSEV.xml", "-steps", "1000"}, tc.args...)...)
		cmd.Env = append(os.Environ(), "TMPDIR="+tmp)
		out, err := cmd.CombinedOutput()
		if (err == nil) != tc.ok {
			t.Fatalf("%s run: %v\n%s", tc.name, err, out)
		}
		if left, _ := filepath.Glob(filepath.Join(tmp, "accmos-cache-*")); len(left) != 0 {
			t.Errorf("%s run left %v behind", tc.name, left)
		}
	}
}
