package harness_test

import (
	"context"
	"errors"
	"reflect"
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

func TestWorkerPoolReuseMatchesOneShot(t *testing.T) {
	p := program(t)
	bin, _, err := harness.Build(context.Background(), p, t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	pool := harness.NewWorkerPool(1)
	defer pool.Close()

	seeds := []uint64{0, 7, 0xDEAD, 0xBEEF}
	for i, seed := range seeds {
		opts := harness.RunOptions{Steps: 500, SeedXor: seed}
		want, err := harness.RunContext(context.Background(), bin, opts)
		if err != nil {
			t.Fatal(err)
		}
		got, reused, err := pool.RunContext(context.Background(), bin, opts)
		if err != nil {
			t.Fatal(err)
		}
		if reused != (i > 0) {
			t.Errorf("run %d: reused = %v, want %v", i, reused, i > 0)
		}
		if got.OutputHash != want.OutputHash || got.Steps != want.Steps {
			t.Errorf("seed %#x: pooled run diverged: hash %d/%d steps %d/%d",
				seed, got.OutputHash, want.OutputHash, got.Steps, want.Steps)
		}
		if got.Coverage == nil || want.Coverage == nil {
			t.Fatalf("seed %#x: missing coverage bitmaps", seed)
		}
	}
	st := pool.Stats()
	if st.Spawns != 1 || st.Reuses != 3 || st.Respawns != 0 || st.Artifacts != 1 {
		t.Errorf("stats after 4 sequential runs through one worker: %+v", st)
	}
}

func TestWorkerPoolTimeoutKillsAndRespawns(t *testing.T) {
	p := program(t)
	bin, _, err := harness.Build(context.Background(), p, t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	pool := harness.NewWorkerPool(1)
	defer pool.Close()

	start := time.Now()
	_, _, err = pool.RunContext(context.Background(), bin,
		harness.RunOptions{Steps: 1 << 40, Timeout: 250 * time.Millisecond})
	if err == nil {
		t.Fatal("a run past its deadline must surface as an error")
	}
	if !strings.Contains(err.Error(), "250ms timeout") {
		t.Errorf("error must name the deadline: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Errorf("kill took %v; want within a few hundred ms of the deadline", elapsed)
	}
	if st := pool.Stats(); st.Respawns != 1 {
		t.Errorf("a killed worker must count as a respawn: %+v", st)
	}

	// The slot must respawn cleanly: the next request gets a fresh worker
	// and a correct result.
	res, reused, err := pool.RunContext(context.Background(), bin, harness.RunOptions{Steps: 100})
	if err != nil {
		t.Fatal(err)
	}
	if reused {
		t.Error("the replacement worker cannot be a reuse")
	}
	if res.Steps != 100 {
		t.Errorf("replacement worker results: %+v", res)
	}
	if st := pool.Stats(); st.Spawns != 2 {
		t.Errorf("want a second spawn after the kill: %+v", st)
	}
}

func TestWorkerPoolProtocolErrorDestroysWorker(t *testing.T) {
	// A fake worker that answers every request with a non-frame line: the
	// pool must reject the response, kill the process, and count a respawn.
	bin := fakeBinary(t, `
while read line; do
  echo 'this is not a frame'
done
`)
	pool := harness.NewWorkerPool(1)
	defer pool.Close()

	_, _, err := pool.RunContext(context.Background(), bin, harness.RunOptions{Steps: 1})
	if err == nil {
		t.Fatal("a garbage frame must surface as an error")
	}
	if !strings.Contains(err.Error(), "decoding worker frame") {
		t.Errorf("error must name the protocol failure: %v", err)
	}
	if st := pool.Stats(); st.Spawns != 1 || st.Respawns != 1 {
		t.Errorf("stats after a protocol failure: %+v", st)
	}
}

func TestWorkerPoolFrameMismatchRejected(t *testing.T) {
	// A syntactically valid frame carrying the wrong request id must be
	// rejected too — results for some other request can never be
	// attributed to this one.
	bin := fakeBinary(t, `
while read line; do
  echo '{"accmosRun":1,"id":"bogus","laneCount":1}'
  echo '{"model":"H","engine":"AccMoS","steps":1}'
done
`)
	pool := harness.NewWorkerPool(1)
	defer pool.Close()

	_, _, err := pool.RunContext(context.Background(), bin, harness.RunOptions{Steps: 1})
	if err == nil || !strings.Contains(err.Error(), "worker frame mismatch") {
		t.Fatalf("mismatched frame id must be rejected: %v", err)
	}
}

func TestWorkerPoolWorkerErrorFrame(t *testing.T) {
	// An error frame is a clean protocol exchange, but the run still fails
	// and the worker is not trusted again.
	bin := fakeBinary(t, `
read line
id=$(echo "$line" | sed 's/.*"id":"\([^"]*\)".*/\1/')
echo "{\"accmosRun\":1,\"id\":\"$id\",\"error\":\"simulated failure\"}"
`)
	pool := harness.NewWorkerPool(1)
	defer pool.Close()

	_, _, err := pool.RunContext(context.Background(), bin, harness.RunOptions{Steps: 1})
	if err == nil || !strings.Contains(err.Error(), "simulated failure") {
		t.Fatalf("worker error frame must surface: %v", err)
	}
	if st := pool.Stats(); st.Respawns != 1 {
		t.Errorf("an error frame must still retire the worker: %+v", st)
	}
}

func TestWorkerPoolClosedRejects(t *testing.T) {
	pool := harness.NewWorkerPool(2)
	pool.Close()
	_, _, err := pool.RunContext(context.Background(), "/nonexistent/bin", harness.RunOptions{Steps: 1})
	if err == nil || !strings.Contains(err.Error(), "closed") {
		t.Fatalf("a closed pool must reject requests: %v", err)
	}
	// Close is idempotent.
	pool.Close()
}

func TestWorkerPoolHeartbeatTimeline(t *testing.T) {
	p := program(t)
	bin, _, err := harness.Build(context.Background(), p, t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	pool := harness.NewWorkerPool(1)
	defer pool.Close()

	// Two back-to-back heartbeat runs through one warm worker: each must
	// get its own run-tagged timeline ending in its own final snapshot —
	// no leakage of the first run's snapshots into the second.
	for round := 0; round < 2; round++ {
		var viaCallback []obs.Snapshot
		res, _, err := pool.RunContext(context.Background(), bin, harness.RunOptions{
			Steps:     3_000_000,
			Heartbeat: time.Millisecond,
			Progress:  func(s obs.Snapshot) { viaCallback = append(viaCallback, s) },
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Steps != 3_000_000 {
			t.Fatalf("round %d: results corrupted: %+v", round, res)
		}
		if len(res.Timeline) < 2 {
			t.Fatalf("round %d: want >=2 snapshots (ticks plus final), got %d", round, len(res.Timeline))
		}
		last := res.Timeline[len(res.Timeline)-1]
		if !last.Final || last.Steps != res.Steps {
			t.Errorf("round %d: final snapshot: %+v", round, last)
		}
		runID := res.Timeline[0].Run
		if runID == "" {
			t.Fatalf("round %d: pooled snapshots must carry the request id", round)
		}
		for i, s := range res.Timeline {
			if s.Run != runID {
				t.Errorf("round %d: snapshot %d tagged %q, want %q (cross-run leakage)", round, i, s.Run, runID)
			}
		}
		if len(viaCallback) != len(res.Timeline) {
			t.Errorf("round %d: callback saw %d snapshots, timeline has %d", round, len(viaCallback), len(res.Timeline))
		}
	}
	if st := pool.Stats(); st.Spawns != 1 || st.Reuses != 1 {
		t.Errorf("both rounds should share one worker: %+v", st)
	}
}

func TestWorkerPoolConcurrentRuns(t *testing.T) {
	p := program(t)
	bin, _, err := harness.Build(context.Background(), p, t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	pool := harness.NewWorkerPool(2)
	defer pool.Close()

	// Baseline hashes per seed from ephemeral runs.
	want := map[uint64]uint64{}
	seeds := []uint64{1, 2, 3, 4, 5, 6, 7, 8}
	for _, seed := range seeds {
		res, err := harness.RunContext(context.Background(), bin, harness.RunOptions{Steps: 300, SeedXor: seed})
		if err != nil {
			t.Fatal(err)
		}
		want[seed] = res.OutputHash
	}

	type outcome struct {
		seed uint64
		hash uint64
		err  error
	}
	ch := make(chan outcome, len(seeds))
	for _, seed := range seeds {
		go func(seed uint64) {
			res, _, err := pool.RunContext(context.Background(), bin, harness.RunOptions{Steps: 300, SeedXor: seed})
			if err != nil {
				ch <- outcome{seed: seed, err: err}
				return
			}
			ch <- outcome{seed: seed, hash: res.OutputHash}
		}(seed)
	}
	for range seeds {
		o := <-ch
		if o.err != nil {
			t.Fatal(o.err)
		}
		if o.hash != want[o.seed] {
			t.Errorf("seed %d: concurrent pooled run diverged", o.seed)
		}
	}
	st := pool.Stats()
	if st.Spawns > 2 {
		t.Errorf("pool of 2 spawned %d workers", st.Spawns)
	}
	if st.Spawns+st.Reuses != int64(len(seeds)) {
		t.Errorf("spawns+reuses should account for every run: %+v", st)
	}
}

func TestWorkerPoolBudgetMode(t *testing.T) {
	// A sub-millisecond budget must clamp to 1ms rather than fall back to
	// the embedded default step count (same contract as an ephemeral run).
	m := model.NewBuilder("WB").
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
	pool := harness.NewWorkerPool(1)
	defer pool.Close()
	res, _, err := pool.RunContext(context.Background(), bin, harness.RunOptions{
		Budget: 500 * time.Microsecond, Timeout: 30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Steps == 0 || res.Steps == 1<<40 {
		t.Errorf("budget handling broken in serve mode: steps = %d", res.Steps)
	}
}

func TestBuildContextPreCanceled(t *testing.T) {
	p := program(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := harness.Build(ctx, p, t.TempDir(), nil)
	if err == nil {
		t.Fatal("a canceled context must abort the build")
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("error should wrap the context error: %v", err)
	}
	if !strings.Contains(err.Error(), "H") {
		t.Errorf("error should name the model: %v", err)
	}
}

func TestBuildContextDeadlineAbortsInFlightCompile(t *testing.T) {
	p := program(t)
	ctx, cancel := context.WithTimeout(context.Background(), 25*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, _, err := harness.Build(ctx, p, t.TempDir(), nil)
	elapsed := time.Since(start)
	if err == nil {
		// The compiler beat the deadline on this machine; the pre-canceled
		// test above still covers the abort path.
		t.Skip("compile finished before the 25ms deadline")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("error should wrap the deadline: %v", err)
	}
	if elapsed > 10*time.Second {
		t.Errorf("abort took %v after a 25ms deadline", elapsed)
	}
}

func TestRunDecodeErrorReportsByteOffset(t *testing.T) {
	bin := fakeBinary(t, answerFrame(`[1,2,3]`))
	_, err := harness.RunContext(context.Background(), bin, harness.RunOptions{Steps: 1})
	if err == nil {
		t.Fatal("a non-object result document must fail to decode")
	}
	if !strings.Contains(err.Error(), "decoding results at byte offset") {
		t.Errorf("decode failure must report the byte offset: %v", err)
	}
}

// TestWorkerBatchCoverageOnLastLane: the program puts a request's
// OR-merged coverage on its last lane. RunBatch moves it off that lane
// and returns it as the request's coverage, equal to the OR-merge of the
// same seeds run one request each; RunContext leaves a run's own
// coverage on its result.
func TestWorkerBatchCoverageOnLastLane(t *testing.T) {
	p := program(t)
	bin, _, err := harness.Build(context.Background(), p, t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	pool := harness.NewWorkerPool(1)
	defer pool.Close()
	seeds := []uint64{1, 2, 3}
	merged := p.Layout.NewRaw()
	for _, seed := range seeds {
		res, _, err := pool.RunContext(context.Background(), bin, harness.RunOptions{Steps: 5, SeedXor: seed})
		if err != nil {
			t.Fatal(err)
		}
		if res.Coverage == nil {
			t.Fatalf("seed %d: a single run lost its coverage", seed)
		}
		if err := merged.Merge(res.Coverage); err != nil {
			t.Fatal(err)
		}
	}
	lanes, cov, _, err := pool.RunBatch(context.Background(), bin, harness.RunOptions{Steps: 5}, seeds)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range lanes {
		if r.Coverage != nil || r.Steps != 5 {
			t.Errorf("lane %d: steps %d, coverage %+v; want 5 steps and no coverage", i, r.Steps, r.Coverage)
		}
	}
	if cov == nil || !reflect.DeepEqual(*cov, *merged) {
		t.Errorf("request coverage %+v, want the per-run OR-merge %+v", cov, merged)
	}
}

// TestWorkerBatchBudget: a budget bounds each lane of a multi-lane
// request like a single run, read between chunks of 1024 steps; a
// budget-only lane never falls back to the program's default step count.
func TestWorkerBatchBudget(t *testing.T) {
	p := program(t)
	bin, _, err := harness.Build(context.Background(), p, t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	pool := harness.NewWorkerPool(1)
	defer pool.Close()
	lanes, _, _, err := pool.RunBatch(context.Background(), bin,
		harness.RunOptions{Budget: 5 * time.Millisecond, Timeout: 30 * time.Second}, []uint64{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range lanes {
		if r.Steps < 1024 || r.Steps%1024 != 0 {
			t.Errorf("budget-only lane %d ran %d steps, want whole chunks of 1024", i, r.Steps)
		}
	}
	lanes, _, _, err = pool.RunBatch(context.Background(), bin,
		harness.RunOptions{Steps: 700, Budget: time.Minute}, []uint64{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range lanes {
		if r.Steps != 700 {
			t.Errorf("lane %d under steps and a long budget ran %d steps, want 700", i, r.Steps)
		}
	}
}
