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
