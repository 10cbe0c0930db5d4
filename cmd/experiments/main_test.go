package main

import (
	"bytes"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync/atomic"
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

// TestDaemonRejectsMetricsJSON pins that -daemon with -metrics-json is
// refused before any request reaches the daemon: the remote Table 2 rows
// are never recorded as metrics, so accepting the pair would write an
// empty document and exit 0.
func TestDaemonRejectsMetricsJSON(t *testing.T) {
	var hits atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		http.Error(w, "no request expected", http.StatusInternalServerError)
	}))
	defer ts.Close()

	out := filepath.Join(t.TempDir(), "metrics.json")
	cmd := exec.Command(os.Args[0], "-run", "table2", "-models", "CSEV", "-steps", "100",
		"-daemon", ts.URL, "-metrics-json", out)
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	err := cmd.Run()

	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 {
		t.Fatalf("want exit status 1, got %v (stderr: %s)", err, stderr.String())
	}
	for _, name := range []string{"-daemon", "-metrics-json"} {
		if !strings.Contains(stderr.String(), name) {
			t.Errorf("error message does not name %s: %s", name, stderr.String())
		}
	}
	if n := hits.Load(); n != 0 {
		t.Errorf("daemon received %d request(s) before the flags were rejected", n)
	}
	if _, err := os.Stat(out); !os.IsNotExist(err) {
		t.Errorf("metrics file written despite the rejection (stat: %v)", err)
	}
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
