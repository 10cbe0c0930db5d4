package codegen_test

import (
	"context"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"accmos/internal/codegen"
	"accmos/internal/harness"
	"accmos/internal/testcase"
)

// The determinism hammer: a 4-way pipelined build compiled with the race
// detector must survive repeated runs with zero data-race reports and
// byte-identical results every time. The harness deliberately builds
// generated programs without -race (production binaries), so this test
// compiles the emitted source itself.
func TestPartitionedRaceHammer(t *testing.T) {
	if testing.Short() {
		t.Skip("race hammer is slow; skipped in -short mode")
	}
	c := wideComputeModel(t, 8, 6)
	set := testcase.NewRandomSet(8, 67, -25, 25)
	// Every instrumentation surface the pipelined emitter must keep
	// partition-local: coverage bitmaps, diag slots, the frame hand-off.
	seqProg, parProg := buildPair(t, c, codegen.Options{Coverage: true, Diagnose: true}, set, 4)

	dir := t.TempDir()
	const steps = 2000
	ref, err := buildAndRun(seqProg, dir, steps)
	if err != nil {
		t.Fatal(err)
	}

	src := filepath.Join(dir, "part_race.go")
	if err := os.WriteFile(src, []byte(parProg.Source), 0o644); err != nil {
		t.Fatal(err)
	}
	bin := filepath.Join(dir, "part_race")
	cmd := exec.Command("go", "build", "-race", "-o", bin, src)
	cmd.Env = append(os.Environ(), "GOFLAGS=-mod=mod")
	if out, err := cmd.CombinedOutput(); err != nil {
		if strings.Contains(string(out), "requires cgo") {
			t.Skipf("race detector unavailable here: %s", out)
		}
		t.Fatalf("go build -race: %v\n%s", err, out)
	}

	// The race runtime exits non-zero on any detected race, so a clean
	// harness.RunContext already implies no report; the repeated runs then pin
	// down scheduling-order determinism, not just memory safety.
	for run := 0; run < 5; run++ {
		res, err := harness.RunContext(context.Background(), bin, harness.RunOptions{Steps: steps})
		if err != nil {
			t.Fatalf("race run %d: %v", run, err)
		}
		assertIdenticalResults(t, ref, res)
		if t.Failed() {
			t.Fatalf("race run %d diverged from the sequential reference", run)
		}
	}
}
