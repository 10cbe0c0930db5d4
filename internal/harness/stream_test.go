package harness_test

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"accmos/internal/harness"
	"accmos/internal/obs"
	"accmos/internal/simresult"
)

// A worker's stdout is the one ordered stream of a request: its
// heartbeats, then its response frame. Stderr is diagnostics only.

// runPaths runs one request through each way the harness runs a binary:
// an ephemeral process and a pooled worker.
var runPaths = []struct {
	name string
	run  func(bin string, opts harness.RunOptions) (*simresult.Results, error)
}{
	{"ephemeral", func(bin string, opts harness.RunOptions) (*simresult.Results, error) {
		return harness.RunContext(context.Background(), bin, opts)
	}},
	{"pooled", func(bin string, opts harness.RunOptions) (*simresult.Results, error) {
		pool := harness.NewWorkerPool(1)
		defer pool.Close()
		res, _, err := pool.RunContext(context.Background(), bin, opts)
		return res, err
	}},
}

const streamDoc = `{"model":"S","engine":"AccMoS","steps":3,"execNanos":1,"outputHash":1,"diagTotal":0}`

// TestStreamHeartbeatsAheadOfFrame: heartbeats written on stdout before
// the frame all reach the timeline, in order and stamped with the run ID,
// and every Progress call has returned before the run does.
func TestStreamHeartbeatsAheadOfFrame(t *testing.T) {
	bin := fakeBinary(t, `read line
echo '{"accmosHB":1,"model":"S","steps":1,"run":"r1"}'
echo '{"accmosHB":1,"model":"S","steps":2,"run":"r1"}'
echo '{"accmosHB":1,"model":"S","steps":3,"final":true,"run":"r1"}'
id=$(echo "$line" | sed 's/.*"id":"\([^"]*\)".*/\1/')
printf '{"accmosRun":1,"id":"%s"}\n%s\n' "$id" '`+streamDoc+`'
`)
	for _, path := range runPaths {
		var returned atomic.Int64
		res, err := path.run(bin, harness.RunOptions{
			Steps: 3, Heartbeat: time.Millisecond, RunID: "job-7",
			Progress: func(obs.Snapshot) {
				time.Sleep(20 * time.Millisecond)
				returned.Add(1)
			},
		})
		if err != nil {
			t.Fatalf("%s: %v", path.name, err)
		}
		if n := returned.Load(); n != 3 {
			t.Errorf("%s: %d Progress calls had returned when the run did, want 3", path.name, n)
		}
		if len(res.Timeline) != 3 {
			t.Fatalf("%s: timeline %+v, want 3 heartbeats", path.name, res.Timeline)
		}
		for i, s := range res.Timeline {
			if s.Steps != int64(i+1) || s.Corr != "job-7" || s.Final != (i == 2) {
				t.Errorf("%s: heartbeat %d: %+v", path.name, i, s)
			}
		}
	}
}

// TestStreamNoFinalHeartbeatReturnsPromptly: with heartbeats on, a run
// whose program writes no final heartbeat returns as soon as its frame
// is read; nothing waits for a heartbeat that will not come.
func TestStreamNoFinalHeartbeatReturnsPromptly(t *testing.T) {
	bin := fakeBinary(t, answerFrame(streamDoc))
	for _, path := range runPaths {
		start := time.Now()
		res, err := path.run(bin, harness.RunOptions{Steps: 3, Heartbeat: 250 * time.Millisecond})
		elapsed := time.Since(start)
		if err != nil {
			t.Fatalf("%s: %v", path.name, err)
		}
		if len(res.Timeline) != 0 {
			t.Errorf("%s: timeline %+v, want none", path.name, res.Timeline)
		}
		if elapsed > 200*time.Millisecond {
			t.Errorf("%s: run took %v; it must not wait for a final heartbeat", path.name, elapsed)
		}
	}
}

// TestStreamStderrHeartbeatIsDiagnostic: a heartbeat-shaped line on
// stderr is a diagnostic: it lands in the stderr tail, never in the
// timeline.
func TestStreamStderrHeartbeatIsDiagnostic(t *testing.T) {
	const hb = `{"accmosHB":1,"model":"S","steps":9}`
	script := `echo '` + hb + `' >&2
` + answerFrame(streamDoc)
	res, err := harness.RunContext(context.Background(), fakeBinary(t, script), harness.RunOptions{Steps: 3, Heartbeat: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Timeline) != 0 {
		t.Errorf("a stderr line reached the timeline: %+v", res.Timeline)
	}

	_, err = harness.RunContext(context.Background(), fakeBinary(t, script+"exit 5\n"), harness.RunOptions{Steps: 3, Heartbeat: time.Millisecond})
	var re *harness.RunError
	if !errors.As(err, &re) || re.Reason != harness.ReasonExit {
		t.Fatalf("exit 5 after answering must be an exit RunError: %v", err)
	}
	if len(re.StderrTail) != 1 || re.StderrTail[0] != hb {
		t.Errorf("stderr tail %q, want the heartbeat-shaped line", re.StderrTail)
	}
	if len(re.Heartbeats) != 0 {
		t.Errorf("a stderr line reached the heartbeat tail: %+v", re.Heartbeats)
	}
	if !strings.Contains(err.Error(), hb) {
		t.Errorf("error text lacks the diagnostic: %v", err)
	}
}
