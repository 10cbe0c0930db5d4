package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"testing"

	"accmos/internal/experiments"
)

// runMainEnv makes the test binary run the command's main instead of
// its tests, so a test can drive the command as a subprocess.
const runMainEnv = "EXPERIMENTS_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestRemovesBuildCache: the experiments build through the default build
// cache, whose directory under TMPDIR holds the generated sources,
// objects and binaries. A run that succeeds and one that fails after its
// build (a run past its -timeout) both remove it on exit.
func TestRemovesBuildCache(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		ok   bool
	}{
		{"success", nil, true},
		{"fatal", []string{"-timeout", "1ns"}, false},
	} {
		tmp := t.TempDir()
		cmd := exec.Command(os.Args[0], append([]string{"-run", "table2", "-models", "CSEV", "-steps", "100"}, tc.args...)...)
		cmd.Env = append(os.Environ(), runMainEnv+"=1", "TMPDIR="+tmp)
		out, err := cmd.CombinedOutput()
		if (err == nil) != tc.ok {
			t.Fatalf("%s run: %v\n%s", tc.name, err, out)
		}
		if left, _ := filepath.Glob(filepath.Join(tmp, "accmos-cache-*")); len(left) != 0 {
			t.Errorf("%s run left %v behind", tc.name, left)
		}
	}
}

// TestEveryExperimentWritesRows drives each -run value at a tiny scale
// with -metrics-json and checks that every experiment's measurements
// reach the document: an experiment that prints its table but writes no
// rows would lose its results silently.
func TestEveryExperimentWritesRows(t *testing.T) {
	for _, tc := range []struct {
		run  string
		args []string
	}{
		{"table2", []string{"-models", "CSEV", "-steps", "200"}},
		{"table3", []string{"-models", "SPV", "-budget-scale", "0.002"}},
		{"opt", []string{"-models", "OPTC", "-steps", "200"}},
		{"casestudy", []string{"-charge-rate", "2000000"}},
		{"figure1", []string{"-fig1-increment", "100000"}},
		{"ablation", []string{"-steps", "200"}},
	} {
		t.Run(tc.run, func(t *testing.T) {
			tmp := t.TempDir()
			path := filepath.Join(tmp, "metrics.json")
			cmd := exec.Command(os.Args[0], append([]string{"-run", tc.run, "-metrics-json", path}, tc.args...)...)
			cmd.Env = append(os.Environ(), runMainEnv+"=1", "TMPDIR="+tmp)
			if out, err := cmd.CombinedOutput(); err != nil {
				t.Fatalf("%v\n%s", err, out)
			}
			b, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			var doc experiments.Metrics
			if err := json.Unmarshal(b, &doc); err != nil {
				t.Fatal(err)
			}
			if len(doc.Rows) == 0 {
				t.Fatalf("-run %s wrote no rows", tc.run)
			}
			for _, r := range doc.Rows {
				if r.Experiment != tc.run {
					t.Errorf("-run %s wrote a %q row", tc.run, r.Experiment)
				}
			}
		})
	}
}
