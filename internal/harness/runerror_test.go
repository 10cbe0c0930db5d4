package harness_test

import (
	"context"
	"errors"
	"strconv"
	"strings"
	"testing"
	"time"

	"accmos/internal/harness"
)

// TestRunErrorStructuredOnTimeout: a timed-out run must surface as a
// *RunError carrying the machine-readable reason, the correlation ID and
// the deadline, while Error() keeps the familiar message and errors.Is
// still sees the deadline cause.
func TestRunErrorStructuredOnTimeout(t *testing.T) {
	bin := hungBinary(t)
	_, err := harness.RunContext(context.Background(), bin, harness.RunOptions{
		Steps: 1, Timeout: 250 * time.Millisecond,
		Model: "HT", RunID: "r-timeout-test",
	})
	if err == nil {
		t.Fatal("a hung binary must surface as an error")
	}
	var re *harness.RunError
	if !errors.As(err, &re) {
		t.Fatalf("timeout error is not a *RunError: %T %v", err, err)
	}
	if re.Reason != harness.ReasonTimeout {
		t.Errorf("reason %q, want %q", re.Reason, harness.ReasonTimeout)
	}
	if re.Corr != "r-timeout-test" || re.Model != "HT" || re.Bin != bin {
		t.Errorf("identity fields: %+v", re)
	}
	if re.Timeout != 250*time.Millisecond {
		t.Errorf("timeout field %v, want 250ms", re.Timeout)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Error("errors.Is(err, DeadlineExceeded) must hold through RunError")
	}
	if !strings.Contains(err.Error(), "250ms timeout") {
		t.Errorf("message lost the legacy form: %v", err)
	}
}

// TestRunErrorStructuredOnExit: a non-zero exit carries the exit code,
// the stderr tail as structured lines, and the stamped heartbeat tail.
func TestRunErrorStructuredOnExit(t *testing.T) {
	bin := fakeBinary(t, `
echo 'boom: stack trace line' >&2
echo '{"accmosHB":1,"model":"X","engine":"AccMoS","steps":7}'
exit 3
`)
	_, err := harness.RunContext(context.Background(), bin, harness.RunOptions{Steps: 1, RunID: "r-exit-test"})
	if err == nil {
		t.Fatal("exit 3 must surface as an error")
	}
	var re *harness.RunError
	if !errors.As(err, &re) {
		t.Fatalf("exit error is not a *RunError: %T %v", err, err)
	}
	if re.Reason != harness.ReasonExit {
		t.Errorf("reason %q, want %q", re.Reason, harness.ReasonExit)
	}
	if re.ExitCode != 3 {
		t.Errorf("exit code %d, want 3", re.ExitCode)
	}
	found := false
	for _, line := range re.StderrTail {
		if strings.Contains(line, "boom: stack trace line") {
			found = true
		}
	}
	if !found {
		t.Errorf("stderr tail missing the diagnostic: %q", re.StderrTail)
	}
	if len(re.Heartbeats) != 1 || re.Heartbeats[0].Steps != 7 {
		t.Fatalf("heartbeat tail: %+v", re.Heartbeats)
	}
	if re.Heartbeats[0].Corr != "r-exit-test" {
		t.Errorf("heartbeat corr %q, want the run ID", re.Heartbeats[0].Corr)
	}
}

// TestRunErrorHeartbeatTailBounded: only the last few heartbeats ride on
// the error, however long the run was.
func TestRunErrorHeartbeatTailBounded(t *testing.T) {
	var sb strings.Builder
	for i := 1; i <= 40; i++ {
		sb.WriteString(`echo '{"accmosHB":1,"steps":` + strconv.Itoa(i) + `}'` + "\n")
	}
	sb.WriteString("exit 1\n")
	_, err := harness.RunContext(context.Background(), fakeBinary(t, sb.String()), harness.RunOptions{Steps: 1})
	var re *harness.RunError
	if !errors.As(err, &re) {
		t.Fatalf("not a RunError: %v", err)
	}
	if len(re.Heartbeats) != 8 {
		t.Fatalf("heartbeat tail has %d entries, want 8", len(re.Heartbeats))
	}
	if first, last := re.Heartbeats[0].Steps, re.Heartbeats[7].Steps; first != 33 || last != 40 {
		t.Errorf("tail spans steps %d..%d, want 33..40", first, last)
	}
}

// TestWorkerRunErrorStructuredOnTimeout: the pooled serve-mode path
// produces the same structured errors as an ephemeral run.
func TestWorkerRunErrorStructuredOnTimeout(t *testing.T) {
	bin := hungBinary(t)
	pool := harness.NewWorkerPool(1)
	defer pool.Close()
	_, _, err := pool.RunContext(context.Background(), bin, harness.RunOptions{
		Steps: 1, Timeout: 250 * time.Millisecond, RunID: "j-000009",
	})
	if err == nil {
		t.Fatal("a hung worker must surface as an error")
	}
	var re *harness.RunError
	if !errors.As(err, &re) {
		t.Fatalf("worker timeout is not a *RunError: %T %v", err, err)
	}
	if re.Reason != harness.ReasonTimeout || re.Corr != "j-000009" {
		t.Errorf("reason %q corr %q, want timeout / j-000009", re.Reason, re.Corr)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Error("errors.Is(err, DeadlineExceeded) must hold for worker timeouts")
	}
	st := pool.Stats()
	if st.Respawns != 1 {
		t.Errorf("killed worker not counted as respawn: %+v", st)
	}
}

// RunBatch sends one request per seed to one worker, so a worker that
// answers one of them wrong (a frame without its result line, more result
// lines than requests, a result that is no result document, an error
// frame, death between runs) fails the batch with a structured *RunError
// carrying the right machine-readable reason, not a hang or a result
// attributed to the wrong seed. The fake workers answer every request
// with the frame header the harness expects, built by this shell:
const frameHeader = `id=$(echo "$line" | sed 's/.*"id":"\([^"]*\)".*/\1/')
echo "{\"accmosRun\":1,\"id\":\"$id\"}"
`

// okResult is one well-formed result line.
const okResult = `echo '{"model":"X","engine":"AccMoS","steps":4,"execNanos":1,"outputHash":7,"diagTotal":0}'
`

// TestWorkerBatchTruncatedLanes: the worker answers the second request's
// header but exits before writing its result line. The read hits EOF and
// the batch must fail as a protocol error naming the missing line.
func TestWorkerBatchTruncatedLanes(t *testing.T) {
	bin := fakeBinary(t, "read line\n"+frameHeader+okResult+"read line\n"+frameHeader)
	pool := harness.NewWorkerPool(1)
	defer pool.Close()
	_, _, _, err := pool.RunBatch(context.Background(), bin,
		harness.RunOptions{Steps: 4, RunID: "b-trunc"}, []uint64{1, 2})
	if err == nil {
		t.Fatal("a truncated batch must surface as an error")
	}
	var re *harness.RunError
	if !errors.As(err, &re) {
		t.Fatalf("truncated batch is not a *RunError: %T %v", err, err)
	}
	if re.Reason != harness.ReasonProtocol {
		t.Errorf("reason %q, want %q", re.Reason, harness.ReasonProtocol)
	}
	if !strings.Contains(err.Error(), "reading the result line") {
		t.Errorf("error must name the missing result line: %v", err)
	}
	if st := pool.Stats(); st.Respawns != 1 {
		t.Errorf("a worker that truncates a batch must be retired: %+v", st)
	}
}

// TestWorkerBatchLaneCountMismatch: a worker that answers a request with
// more result lines than the one it owes leaves the surplus where the
// next request's frame belongs. That frame names no request, so the
// batch must fail as a protocol error before any surplus line is taken
// for a result.
func TestWorkerBatchLaneCountMismatch(t *testing.T) {
	bin := fakeBinary(t, "while read line; do\n"+frameHeader+okResult+okResult+"done\n")
	pool := harness.NewWorkerPool(1)
	defer pool.Close()
	_, _, _, err := pool.RunBatch(context.Background(), bin,
		harness.RunOptions{Steps: 4}, []uint64{1, 2})
	var re *harness.RunError
	if !errors.As(err, &re) || re.Reason != harness.ReasonProtocol {
		t.Fatalf("a surplus result line must be a protocol RunError: %v", err)
	}
	if !strings.Contains(err.Error(), `worker frame mismatch (marker 0, id "", want "r2")`) {
		t.Errorf("error must name the second request's mismatched frame: %v", err)
	}
}

// TestWorkerBatchBadLaneDecode: the second run's result line isn't a
// result document: a decode failure, distinct from protocol breakage.
func TestWorkerBatchBadLaneDecode(t *testing.T) {
	bin := fakeBinary(t, "read line\n"+frameHeader+okResult+"read line\n"+frameHeader+"echo 'not a result document'\n")
	pool := harness.NewWorkerPool(1)
	defer pool.Close()
	_, _, _, err := pool.RunBatch(context.Background(), bin,
		harness.RunOptions{Steps: 4}, []uint64{1, 2})
	var re *harness.RunError
	if !errors.As(err, &re) || re.Reason != harness.ReasonDecode {
		t.Fatalf("a garbage result must be a decode RunError: %v", err)
	}
	if !strings.Contains(err.Error(), "decoding the result") {
		t.Errorf("error must name the result decode: %v", err)
	}
}

// TestWorkerBatchErrorFrame: a worker can refuse a request with an error
// frame; that's a clean exchange, but the batch fails as a worker error
// and the worker is retired.
func TestWorkerBatchErrorFrame(t *testing.T) {
	bin := fakeBinary(t, `
read line
id=$(echo "$line" | sed 's/.*"id":"\([^"]*\)".*/\1/')
echo "{\"accmosRun\":1,\"id\":\"$id\",\"error\":\"lanes exploded\"}"
`)
	pool := harness.NewWorkerPool(1)
	defer pool.Close()
	_, _, _, err := pool.RunBatch(context.Background(), bin,
		harness.RunOptions{Steps: 4}, []uint64{1, 2})
	var re *harness.RunError
	if !errors.As(err, &re) || re.Reason != harness.ReasonWorker {
		t.Fatalf("an error frame must be a worker-error RunError: %v", err)
	}
	if !strings.Contains(err.Error(), "lanes exploded") {
		t.Errorf("error must carry the worker's message: %v", err)
	}
	if st := pool.Stats(); st.Respawns != 1 {
		t.Errorf("an error frame must still retire the worker: %+v", st)
	}
}

// TestWorkerBatchTimeoutBoundsEachRun: opts.Timeout bounds each run of a
// batch, not the batch: three runs of about 200 ms each pass under a
// 1.5 s timeout that their sum would not, and a run past it is killed.
func TestWorkerBatchTimeoutBoundsEachRun(t *testing.T) {
	bin := fakeBinary(t, "while read line; do\nsleep 0.2\n"+frameHeader+okResult+"done\n")
	pool := harness.NewWorkerPool(1)
	defer pool.Close()
	seeds := make([]uint64, 10)
	res, _, _, err := pool.RunBatch(context.Background(), bin, harness.RunOptions{Steps: 4, Timeout: 1500 * time.Millisecond}, seeds)
	if err != nil || len(res) != len(seeds) {
		t.Fatalf("ten 200 ms runs under a 1.5 s per-run timeout: %d results, %v", len(res), err)
	}
	_, _, _, err = pool.RunBatch(context.Background(), bin, harness.RunOptions{Steps: 4, Timeout: 50 * time.Millisecond}, []uint64{1})
	var re *harness.RunError
	if !errors.As(err, &re) || re.Reason != harness.ReasonTimeout {
		t.Fatalf("a 200 ms run under a 50 ms timeout must be a timeout RunError: %v", err)
	}
}

// TestWorkerPoolCrashReportsExit: a pooled worker that dies mid-request
// is reaped before its error is built, so the error carries the same
// verdict an ephemeral run gives: its exit code and its last words. The
// pool destroys it and counts one respawn.
func TestWorkerPoolCrashReportsExit(t *testing.T) {
	bin := fakeBinary(t, `read line
echo boom >&2
exit 3
`)
	pool := harness.NewWorkerPool(1)
	defer pool.Close()
	_, _, err := pool.RunContext(context.Background(), bin, harness.RunOptions{Steps: 1, RunID: "j-crash"})
	var re *harness.RunError
	if !errors.As(err, &re) || re.Reason != harness.ReasonExit || re.ExitCode != 3 {
		t.Fatalf("a crashed worker must be an exit RunError with code 3: %v", err)
	}
	if n := len(re.StderrTail); n == 0 || re.StderrTail[n-1] != "boom" {
		t.Errorf("stderr tail %q, want it to end in boom", re.StderrTail)
	}
	if re.Corr != "j-crash" || re.Bin != bin {
		t.Errorf("identity fields: %+v", re)
	}
	if st := pool.Stats(); st.Respawns != 1 || st.Warm != 0 {
		t.Errorf("pool stats %+v, want one respawn and no warm worker", st)
	}
}

// TestWorkerBatchDeathMidBatchCarriesStderr: a worker that crashes
// between runs must fail the batch with its exit code AND preserve its
// dying words in the structured stderr tail — the forensic trail for
// "which run killed it".
func TestWorkerBatchDeathMidBatchCarriesStderr(t *testing.T) {
	bin := fakeBinary(t, "read line\n"+frameHeader+okResult+`read line
echo 'boom: run 2 panicked' >&2
exit 2
`)
	pool := harness.NewWorkerPool(1)
	defer pool.Close()
	_, _, _, err := pool.RunBatch(context.Background(), bin,
		harness.RunOptions{Steps: 4, RunID: "b-death"}, []uint64{1, 2, 3})
	var re *harness.RunError
	if !errors.As(err, &re) || re.Reason != harness.ReasonExit || re.ExitCode != 2 {
		t.Fatalf("mid-batch death must be an exit RunError with code 2: %v", err)
	}
	if re.Corr != "b-death" {
		t.Errorf("correlation id %q, want b-death", re.Corr)
	}
	found := false
	for _, line := range re.StderrTail {
		if strings.Contains(line, "boom: run 2 panicked") {
			found = true
		}
	}
	if !found {
		t.Errorf("stderr tail missing the crash diagnostic: %q", re.StderrTail)
	}
}

// The ephemeral run path — spawn, one request, close stdin, reap — must
// turn every way a binary can misbehave into a prompt, structured
// *RunError, never a hang. (A binary that exits non-zero before
// answering is TestRunErrorStructuredOnExit.)

// TestEphemeralTruncatedFrame: a binary that writes half a frame and
// exits cleanly broke the protocol.
func TestEphemeralTruncatedFrame(t *testing.T) {
	bin := fakeBinary(t, `
read line
printf '{"accmosRun":1,"id":"r1"}\n{"model":"X"'
exit 0
`)
	start := time.Now()
	_, err := harness.RunContext(context.Background(), bin, harness.RunOptions{Steps: 1, RunID: "r-trunc"})
	var re *harness.RunError
	if !errors.As(err, &re) || re.Reason != harness.ReasonProtocol {
		t.Fatalf("a truncated frame must be a protocol RunError: %v", err)
	}
	if re.Corr != "r-trunc" || re.Bin != bin {
		t.Errorf("identity fields: %+v", re)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("took %v to report a truncated frame", elapsed)
	}
}

// TestEphemeralIgnoresRequestAndStdin: a binary that neither answers nor
// exits when its stdin closes is killed by the Timeout.
func TestEphemeralIgnoresRequestAndStdin(t *testing.T) {
	bin := fakeBinary(t, `
while :; do sleep 0.05; done
`)
	start := time.Now()
	_, err := harness.RunContext(context.Background(), bin, harness.RunOptions{Steps: 1, Timeout: 300 * time.Millisecond})
	var re *harness.RunError
	if !errors.As(err, &re) || re.Reason != harness.ReasonTimeout {
		t.Fatalf("an unresponsive binary must be a timeout RunError: %v", err)
	}
	if re.Timeout != 300*time.Millisecond || !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("timeout fields: %+v", re)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("kill took %v after a 300ms timeout", elapsed)
	}
}

// TestEphemeralExitAfterAnswer: a binary that answers and then exits
// non-zero still failed.
func TestEphemeralExitAfterAnswer(t *testing.T) {
	bin := fakeBinary(t, answerFrame(`{"model":"X","engine":"AccMoS","steps":1,"execNanos":0,"outputHash":0,"diagTotal":0}`)+`
echo 'panic after the answer' >&2
exit 4
`)
	_, err := harness.RunContext(context.Background(), bin, harness.RunOptions{Steps: 1})
	var re *harness.RunError
	if !errors.As(err, &re) || re.Reason != harness.ReasonExit || re.ExitCode != 4 {
		t.Fatalf("a non-zero exit after answering must be an exit RunError: %v", err)
	}
	if len(re.StderrTail) == 0 || re.StderrTail[len(re.StderrTail)-1] != "panic after the answer" {
		t.Errorf("stderr tail: %q", re.StderrTail)
	}
}
