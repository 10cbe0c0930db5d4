package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"testing"
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
