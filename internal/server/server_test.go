package server_test

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	accmos "accmos"
	"accmos/internal/lint"
	"accmos/internal/model"
	"accmos/internal/obs"
	"accmos/internal/server"
	"accmos/internal/slx"
	"accmos/internal/types"
)

// slxDoc serializes a tiny Inport -> Gain -> Outport model to the SLX
// wire form a client would submit. gain varies the document (and so the
// build-cache key) between tests.
func slxDoc(t *testing.T, name, gain string) string {
	t.Helper()
	m := model.NewBuilder(name).
		Add("In", "Inport", 0, 1, model.WithOutKind(types.F64), model.WithParam("Port", "1")).
		Add("G", "Gain", 1, 1, model.WithParam("Gain", gain)).
		Add("Out", "Outport", 1, 0, model.WithParam("Port", "1")).
		Chain("In", "G", "Out").
		MustBuild()
	var buf bytes.Buffer
	if err := slx.Encode(&buf, m); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// newTestServer starts a server (draining it at cleanup) plus an httptest
// front end.
func newTestServer(t *testing.T, cfg server.Config) (*server.Server, *httptest.Server) {
	t.Helper()
	srv := server.New(cfg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Drain(ctx)
	})
	return srv, ts
}

func submit(t *testing.T, ts *httptest.Server, req server.SubmitRequest) (*http.Response, []byte) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	payload, _ := io.ReadAll(resp.Body)
	return resp, payload
}

func submitOK(t *testing.T, ts *httptest.Server, req server.SubmitRequest) string {
	t.Helper()
	resp, payload := submit(t, ts, req)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %s: %s", resp.Status, payload)
	}
	var ack server.SubmitResponse
	if err := json.Unmarshal(payload, &ack); err != nil {
		t.Fatal(err)
	}
	return ack.ID
}

// submitRaw submits a body that need not fit SubmitRequest, as an older
// or newer client might send it, and returns the accepted job's ID.
func submitRaw(t *testing.T, ts *httptest.Server, body map[string]any) string {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	payload, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %s: %s", resp.Status, payload)
	}
	var ack server.SubmitResponse
	if err := json.Unmarshal(payload, &ack); err != nil {
		t.Fatal(err)
	}
	return ack.ID
}

func getJob(t *testing.T, ts *httptest.Server, id string) server.JobView {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	payload, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("get %s: %s: %s", id, resp.Status, payload)
	}
	var v server.JobView
	if err := json.Unmarshal(payload, &v); err != nil {
		t.Fatal(err)
	}
	return v
}

func waitJob(t *testing.T, ts *httptest.Server, id string) server.JobView {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		v := getJob(t, ts, id)
		if v.State.Terminal() {
			return v
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s", id, v.State)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func waitState(t *testing.T, ts *httptest.Server, id string, want server.JobState) server.JobView {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		v := getJob(t, ts, id)
		if v.State == want {
			return v
		}
		if v.State.Terminal() || time.Now().After(deadline) {
			t.Fatalf("job %s is %s, want %s", id, v.State, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// cancelJob sends DELETE /v1/jobs/{id} and returns the job's view.
func cancelJob(t *testing.T, ts *httptest.Server, id string) server.JobView {
	t.Helper()
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+id, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel %s: %s", id, resp.Status)
	}
	var v server.JobView
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v
}

// compilingJob submits, to a server building into dir, a chain of 6,000
// gains at O0, whose compile takes about a second on a 2-vCPU host, and
// returns its ID once the program's source is in dir: the compiler runs.
func compilingJob(t *testing.T, ts *httptest.Server, dir string) string {
	t.Helper()
	b := model.NewBuilder("CHAIN").
		Add("In", "Inport", 0, 1, model.WithOutKind(types.F64), model.WithParam("Port", "1"))
	prev := "In"
	for i := 0; i < 6000; i++ {
		g := fmt.Sprintf("G%d", i)
		b.Add(g, "Gain", 1, 1, model.WithParam("Gain", fmt.Sprintf("1.%d", i+1))).Wire(prev, g, 0)
		prev = g
	}
	var doc bytes.Buffer
	if err := slx.Encode(&doc, b.Add("Out", "Outport", 1, 0, model.WithParam("Port", "1")).Wire(prev, "Out", 0).MustBuild()); err != nil {
		t.Fatal(err)
	}
	o0 := 0
	id := submitOK(t, ts, server.SubmitRequest{Model: doc.String(), Steps: 50, OptLevel: &o0})
	for deadline := time.Now().Add(60 * time.Second); ; time.Sleep(time.Millisecond) {
		if src, _ := filepath.Glob(filepath.Join(dir, "*.go")); len(src) > 0 {
			return id
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s never started compiling: %+v", id, getJob(t, ts, id))
		}
	}
}

// assertNothingBuilt checks that a cancelled compile left no object or
// binary in the cache directory: the compiler was killed, not awaited.
func assertNothingBuilt(t *testing.T, cache *accmos.BuildCache) {
	t.Helper()
	if left, _ := os.ReadDir(cache.Dir()); len(left) != 0 || cache.Stats().Entries != 0 {
		t.Errorf("the cancelled compile published %d entries and left %v", cache.Stats().Entries, left)
	}
}

// getMetrics scrapes /metrics and returns its samples keyed by series.
func getMetrics(t *testing.T, ts *httptest.Server) map[string]float64 {
	t.Helper()
	_, body := scrape(t, ts, "", "")
	return promValues(t, body)
}

// jobsSeries names the accmosd_jobs_total series of one lifecycle state.
func jobsSeries(state string) string { return fmt.Sprintf("accmosd_jobs_total{state=%q}", state) }

// blockingRunner returns a stub runner that holds every job until release
// is closed (honouring job cancellation), recording execution order.
func blockingRunner() (server.Runner, func(), *[]string, *sync.Mutex) {
	release := make(chan struct{})
	var (
		once  sync.Once
		mu    sync.Mutex
		order []string
	)
	runner := func(ctx context.Context, spec server.JobSpec, tr *accmos.Tracer, progress func(obs.Snapshot)) (*server.Outcome, error) {
		mu.Lock()
		order = append(order, spec.Model.Name)
		mu.Unlock()
		select {
		case <-release:
			return &server.Outcome{}, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	return runner, func() { once.Do(func() { close(release) }) }, &order, &mu
}

// TestSubmitPollCacheHit is the acceptance path: the same model submitted
// twice through the REAL pipeline produces exactly one compile — the
// second job reports a cache hit, its compile phase collapses, and the
// daemon's /metrics hit counter moves.
func TestSubmitPollCacheHit(t *testing.T) {
	cache := accmos.NewBuildCache(t.TempDir())
	defer cache.Remove()
	_, ts := newTestServer(t, server.Config{Workers: 1, Cache: cache})

	req := server.SubmitRequest{Model: slxDoc(t, "CHT", "2"), Steps: 50, Coverage: true}
	cold := waitJob(t, ts, submitOK(t, ts, req))
	if cold.State != server.JobDone {
		t.Fatalf("cold job: %s (%s)", cold.State, cold.Error)
	}
	if cold.CacheHit {
		t.Error("first submission cannot be a cache hit")
	}
	if cold.Result == nil || cold.Result.Steps != 50 {
		t.Fatalf("cold job result: %+v", cold.Result)
	}
	if cold.Coverage == nil {
		t.Error("coverage requested but absent")
	}
	coldCompile := cold.Phases["compile"]
	if coldCompile <= 0 {
		t.Fatalf("cold job recorded no compile phase: %v", cold.Phases)
	}

	warm := waitJob(t, ts, submitOK(t, ts, req))
	if warm.State != server.JobDone {
		t.Fatalf("warm job: %s (%s)", warm.State, warm.Error)
	}
	if !warm.CacheHit {
		t.Error("identical second submission missed the cache")
	}
	if warmCompile := warm.Phases["compile"]; warmCompile >= coldCompile/2 {
		t.Errorf("warm compile phase %dns not amortized (cold %dns)", warmCompile, coldCompile)
	}

	mv := getMetrics(t, ts)
	if hits, misses := mv["accmosd_cache_hits_total"], mv["accmosd_cache_misses_total"]; hits < 1 || misses < 1 {
		t.Errorf("cache counters: %v hits, %v misses, want >=1 of each", hits, misses)
	}
	if got := mv[jobsSeries("done")]; got != 2 {
		t.Errorf("done jobs %v, want 2", got)
	}
	if _, ok := mv[`accmosd_phase_seconds_count{phase="compile"}`]; !ok {
		t.Errorf("metrics missing compile phase histogram: %v", mv)
	}

	// An older client may still send fields the daemon no longer reads
	// ("partitions", "tenant"): the submission is admitted and computes
	// the same result as the same job without them.
	old := waitJob(t, ts, submitRaw(t, ts, map[string]any{
		"model": req.Model, "steps": req.Steps, "coverage": req.Coverage,
		"partitions": 2, "tenant": "acme",
	}))
	if old.State != server.JobDone || old.Result == nil {
		t.Fatalf("legacy job: %s (%s)", old.State, old.Error)
	}
	if old.Result.OutputHash != cold.Result.OutputHash {
		t.Errorf("legacy job hash %d, want %d", old.Result.OutputHash, cold.Result.OutputHash)
	}
}

// TestSeedOnlyJobRelinks: a job that differs from a built one only in its
// seed is a cache miss whose model binary is resident, so it neither
// compiles nor links: its phases hold no compile.gc or compile.link, and
// /metrics counts one miss and one relink. It runs its own seed.
func TestSeedOnlyJobRelinks(t *testing.T) {
	cache := accmos.NewBuildCache(t.TempDir())
	defer cache.Remove()
	_, ts := newTestServer(t, server.Config{Workers: 1, Cache: cache})

	req := server.SubmitRequest{Model: slxDoc(t, "REL", "2"), Steps: 50, Coverage: true, Seed: 1}
	first := waitJob(t, ts, submitOK(t, ts, req))
	before := getMetrics(t, ts)
	req.Seed = 2
	second := waitJob(t, ts, submitOK(t, ts, req))
	if first.State != server.JobDone || second.State != server.JobDone {
		t.Fatalf("jobs: %s (%s), %s (%s)", first.State, first.Error, second.State, second.Error)
	}
	if second.CacheHit {
		t.Error("a job with a new seed reported a cache hit")
	}
	if first.Result.OutputHash == second.Result.OutputHash {
		t.Error("seeds 1 and 2 produced the same output hash")
	}
	if _, ok := first.Phases["compile.link"]; !ok {
		t.Errorf("the first job recorded no compile.link phase: %v", first.Phases)
	}
	for _, phase := range []string{"compile.gc", "compile.link"} {
		if _, ok := second.Phases[phase]; ok {
			t.Errorf("the fresh-seed job recorded a %s phase: %v", phase, second.Phases)
		}
	}
	after := getMetrics(t, ts)
	const misses, relinks = "accmosd_cache_misses_total", "accmosd_cache_relinks_total"
	if after[misses]-before[misses] != 1 || after[relinks]-before[relinks] != 1 || before[relinks] != 0 {
		t.Errorf("cache misses %v -> %v, relinks %v -> %v: want the second job to count one miss and one relink",
			before[misses], after[misses], before[relinks], after[relinks])
	}
	_, body := scrape(t, ts, "", "")
	if !strings.Contains(string(body), "\naccmosd_cache_relinks_total 1\n") {
		t.Errorf("exposition lacks accmosd_cache_relinks_total 1:\n%s", body)
	}
}

// TestSeedlessRangeApplies: a submission that sets lo/hi but no seed runs
// the facade's default seed 1 on the given range, not the default
// [-1, 1] stimulus, while a submission that sets none of the three still
// runs the facade's default stimulus.
func TestSeedlessRangeApplies(t *testing.T) {
	cache := accmos.NewBuildCache(t.TempDir())
	defer cache.Remove()
	_, ts := newTestServer(t, server.Config{Workers: 1, Cache: cache})

	run := func(req server.SubmitRequest) server.JobView {
		t.Helper()
		req.Model, req.Steps = slxDoc(t, "RNG", "2"), 200
		v := waitJob(t, ts, submitOK(t, ts, req))
		if v.State != server.JobDone || v.Result == nil {
			t.Fatalf("job seed %d lo %v hi %v: %s (%s)", req.Seed, req.Lo, req.Hi, v.State, v.Error)
		}
		return v
	}
	bare := run(server.SubmitRequest{})
	seeded := run(server.SubmitRequest{Seed: 1})
	ranged := run(server.SubmitRequest{Lo: -50, Hi: 50})
	seededRanged := run(server.SubmitRequest{Seed: 1, Lo: -50, Hi: 50})
	if seeded.Result.OutputHash != bare.Result.OutputHash {
		t.Errorf("seed 1 output %d differs from the default stimulus's %d", seeded.Result.OutputHash, bare.Result.OutputHash)
	}
	if ranged.ArtifactHash == bare.ArtifactHash || ranged.Result.OutputHash == bare.Result.OutputHash {
		t.Errorf("lo/hi without a seed ran the default stimulus (artifact %s)", ranged.ArtifactHash)
	}
	if ranged.ArtifactHash != seededRanged.ArtifactHash || ranged.Result.OutputHash != seededRanged.Result.OutputHash {
		t.Errorf("seedless range %s/%d, want seed 1's %s/%d", ranged.ArtifactHash, ranged.Result.OutputHash,
			seededRanged.ArtifactHash, seededRanged.Result.OutputHash)
	}
}

// TestSweepJobIgnoresLegacyBatchField: a sweep job runs every suite as
// its own request. An older client may still send "batch" (true or
// false); the job succeeds exactly as the same job without it, and no
// job view carries a "batched" flag.
func TestSweepJobIgnoresLegacyBatchField(t *testing.T) {
	_, ts := newTestServer(t, server.Config{Workers: 1})
	doc := slxDoc(t, "SWB", "3")
	var first server.JobView
	for _, batch := range []any{nil, false, true} {
		body := map[string]any{"model": doc, "steps": 200, "seed": 5, "sweepSeeds": []uint64{1, 2, 3}}
		if batch != nil {
			body["batch"] = batch
		}
		id := submitRaw(t, ts, body)
		v := waitJob(t, ts, id)
		if v.State != server.JobDone || v.SweepRuns != 3 || v.MergedCoverage == nil {
			t.Fatalf("batch=%v: %s (%s), %d runs, merged %v", batch, v.State, v.Error, v.SweepRuns, v.MergedCoverage)
		}
		if batch == nil {
			first = v
		} else if *v.MergedCoverage != *first.MergedCoverage || v.ArtifactHash != first.ArtifactHash {
			t.Errorf("batch=%v: merged %+v on %s, want %+v on %s",
				batch, *v.MergedCoverage, v.ArtifactHash, *first.MergedCoverage, first.ArtifactHash)
		}
		resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		payload, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if bytes.Contains(payload, []byte(`"batched"`)) {
			t.Errorf("batch=%v: job view carries a batched flag: %s", batch, payload)
		}
	}
}

func TestQueueFullReturns429WithRetryAfter(t *testing.T) {
	runner, release, _, _ := blockingRunner()
	defer release()
	_, ts := newTestServer(t, server.Config{
		Workers: 1, QueueDepth: 2, RetryAfter: 3 * time.Second, Runner: runner,
	})

	doc := slxDoc(t, "QF", "2")
	first := submitOK(t, ts, server.SubmitRequest{Model: doc})
	waitState(t, ts, first, server.JobRunning) // occupies the only worker
	q1 := submitOK(t, ts, server.SubmitRequest{Model: doc})
	q2 := submitOK(t, ts, server.SubmitRequest{Model: doc})

	resp, payload := submit(t, ts, server.SubmitRequest{Model: doc})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated queue: %s: %s", resp.Status, payload)
	}
	if got := resp.Header.Get("Retry-After"); got != "3" {
		t.Errorf("Retry-After header %q, want %q", got, "3")
	}
	var er server.ErrorResponse
	if err := json.Unmarshal(payload, &er); err != nil {
		t.Fatal(err)
	}
	if er.RetryAfterSec != 3 || !strings.Contains(er.Error, "queue is full") {
		t.Errorf("429 body: %+v", er)
	}

	release()
	for _, id := range []string{first, q1, q2} {
		if v := waitJob(t, ts, id); v.State != server.JobDone {
			t.Errorf("job %s after release: %s (%s)", id, v.State, v.Error)
		}
	}
	if got := getMetrics(t, ts)[jobsSeries("rejected")]; got != 1 {
		t.Errorf("rejected counter %v, want 1", got)
	}
}

func TestPriorityOrdersQueuedJobs(t *testing.T) {
	runner, release, order, mu := blockingRunner()
	defer release()
	_, ts := newTestServer(t, server.Config{Workers: 1, Runner: runner})

	blocker := submitOK(t, ts, server.SubmitRequest{Model: slxDoc(t, "BLK", "2")})
	waitState(t, ts, blocker, server.JobRunning)
	low := submitOK(t, ts, server.SubmitRequest{Model: slxDoc(t, "LOW", "2"), Priority: 0})
	high := submitOK(t, ts, server.SubmitRequest{Model: slxDoc(t, "HIGH", "2"), Priority: 5})

	release()
	waitJob(t, ts, low)
	waitJob(t, ts, high)

	mu.Lock()
	got := append([]string(nil), *order...)
	mu.Unlock()
	want := []string{"BLK", "HIGH", "LOW"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("execution order %v, want %v", got, want)
	}
}

func TestCancelQueuedAndRunningJobs(t *testing.T) {
	runner, release, _, _ := blockingRunner()
	defer release()
	_, ts := newTestServer(t, server.Config{Workers: 1, Runner: runner})

	doc := slxDoc(t, "CAN", "2")
	running := submitOK(t, ts, server.SubmitRequest{Model: doc})
	waitState(t, ts, running, server.JobRunning)
	queued := submitOK(t, ts, server.SubmitRequest{Model: doc})

	if v := cancelJob(t, ts, queued); v.State != server.JobCanceled {
		t.Errorf("queued job after DELETE: %s, want canceled immediately", v.State)
	}
	cancelJob(t, ts, running) // running: cancellation is asynchronous
	if v := waitJob(t, ts, running); v.State != server.JobCanceled {
		t.Errorf("running job after DELETE: %s (%s)", v.State, v.Error)
	}
	if got := getMetrics(t, ts)[jobsSeries("canceled")]; got != 2 {
		t.Errorf("canceled counter %v, want 2", got)
	}
}

func TestEventsStreamNDJSON(t *testing.T) {
	runner := func(ctx context.Context, spec server.JobSpec, tr *accmos.Tracer, progress func(obs.Snapshot)) (*server.Outcome, error) {
		for i := int64(1); i <= 3; i++ {
			progress(obs.Snapshot{Model: spec.Model.Name, Steps: i * 10})
		}
		return &server.Outcome{}, nil
	}
	_, ts := newTestServer(t, server.Config{Workers: 1, Runner: runner})

	id := submitOK(t, ts, server.SubmitRequest{Model: slxDoc(t, "EV", "2")})
	waitJob(t, ts, id)

	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("content type %q", ct)
	}

	var (
		beats []obs.Snapshot
		final *server.JobView
	)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Bytes()
		if s, ok := obs.ParseHeartbeat(line); ok {
			beats = append(beats, s)
			continue
		}
		var rec struct {
			Job *server.JobView `json:"accmosJob"`
		}
		if err := json.Unmarshal(line, &rec); err != nil || rec.Job == nil {
			t.Fatalf("unparseable NDJSON line: %s (%v)", line, err)
		}
		final = rec.Job
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(beats) != 3 {
		t.Errorf("got %d heartbeats, want 3 (replayed)", len(beats))
	}
	for i, b := range beats {
		if want := int64(i+1) * 10; b.Steps != want {
			t.Errorf("heartbeat %d: steps %d, want %d", i, b.Steps, want)
		}
	}
	if final == nil {
		t.Fatal("stream ended without a final accmosJob record")
	}
	if final.ID != id || final.State != server.JobDone {
		t.Errorf("final record: %+v", final)
	}
}

func TestDrainCompletesInFlightAndRefusesNew(t *testing.T) {
	runner, release, _, _ := blockingRunner()
	defer release()
	srv, ts := newTestServer(t, server.Config{Workers: 1, Runner: runner})

	doc := slxDoc(t, "DR", "2")
	running := submitOK(t, ts, server.SubmitRequest{Model: doc})
	waitState(t, ts, running, server.JobRunning)
	queued := submitOK(t, ts, server.SubmitRequest{Model: doc})

	drained := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		drained <- srv.Drain(ctx)
	}()

	// The drain flag flips under the server mutex; poll until visible.
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusServiceUnavailable {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("healthz never reported draining")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if resp, payload := submit(t, ts, server.SubmitRequest{Model: doc}); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submission during drain: %s: %s", resp.Status, payload)
	}

	release()
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
	// Admitted work finished rather than being dropped.
	if v := getJob(t, ts, running); v.State != server.JobDone {
		t.Errorf("running job after drain: %s (%s)", v.State, v.Error)
	}
	if v := getJob(t, ts, queued); v.State != server.JobDone {
		t.Errorf("queued job after drain: %s (%s)", v.State, v.Error)
	}
}

func TestDrainDeadlineCancelsStragglers(t *testing.T) {
	runner, release, _, _ := blockingRunner()
	defer release() // never released before the deadline
	srv, ts := newTestServer(t, server.Config{Workers: 1, Runner: runner})

	id := submitOK(t, ts, server.SubmitRequest{Model: slxDoc(t, "STUCK", "2")})
	waitState(t, ts, id, server.JobRunning)

	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	if err := srv.Drain(ctx); err != context.DeadlineExceeded {
		t.Fatalf("drain past deadline: %v, want DeadlineExceeded", err)
	}
	if v := getJob(t, ts, id); v.State != server.JobCanceled {
		t.Errorf("straggler after bounded drain: %s", v.State)
	}
}

// TestCancelCompilingJob: a DELETE of a job whose program is compiling
// through the real pipeline ends it canceled promptly, because the
// compiler is killed rather than awaited.
func TestCancelCompilingJob(t *testing.T) {
	dir := t.TempDir()
	cache := accmos.NewBuildCache(dir)
	_, ts := newTestServer(t, server.Config{Workers: 1, Cache: cache})
	id := compilingJob(t, ts, dir)
	start := time.Now()
	cancelJob(t, ts, id)
	v := waitJob(t, ts, id)
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("the job ended %v after the DELETE", elapsed)
	}
	if v.State != server.JobCanceled {
		t.Errorf("compiling job after DELETE: %s (%s), want canceled", v.State, v.Error)
	}
	assertNothingBuilt(t, cache)
}

// TestDrainDeadlineStopsCompile: Drain with an expired context returns
// promptly while a job's program compiles through the real pipeline: the
// job is canceled and its compiler killed.
func TestDrainDeadlineStopsCompile(t *testing.T) {
	dir := t.TempDir()
	cache := accmos.NewBuildCache(dir)
	srv, ts := newTestServer(t, server.Config{Workers: 1, Cache: cache})
	id := compilingJob(t, ts, dir)
	ctx, cancel := context.WithDeadline(context.Background(), time.Now())
	defer cancel()
	start := time.Now()
	if err := srv.Drain(ctx); err != context.DeadlineExceeded {
		t.Fatalf("drain past its deadline: %v, want DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("drain returned %v after an expired deadline", elapsed)
	}
	if v := getJob(t, ts, id); v.State != server.JobCanceled {
		t.Errorf("compiling job after a bounded drain: %s (%s), want canceled", v.State, v.Error)
	}
	assertNothingBuilt(t, cache)
}

// TestDrainRemovesPrivateCacheOnly: Drain deletes the directory of the
// daemon's own build cache, and leaves a cache the caller passed in
// Config.Cache as it was.
func TestDrainRemovesPrivateCacheOnly(t *testing.T) {
	own := accmos.NewBuildCache("")
	for _, cfg := range []server.Config{{Workers: 1}, {Workers: 1, Cache: own}} {
		srv, ts := newTestServer(t, cfg)
		id := submitOK(t, ts, server.SubmitRequest{Model: slxDoc(t, "OWN", "5")})
		if v := waitJob(t, ts, id); v.State != server.JobDone {
			t.Fatalf("job: %s (%s)", v.State, v.Error)
		}
		dir := srv.Cache().Dir()
		if err := srv.Drain(context.Background()); err != nil {
			t.Fatal(err)
		}
		_, err := os.Stat(dir)
		if private := cfg.Cache == nil; private != os.IsNotExist(err) {
			t.Errorf("private cache %v: after Drain, stat of its directory %s: %v", private, dir, err)
		}
	}
	own.Remove()
}

func TestSubmitValidation(t *testing.T) {
	_, ts := newTestServer(t, server.Config{Workers: 1})

	expect := func(status int, body []byte, wantCode int, wantSub string) {
		t.Helper()
		if status != wantCode {
			t.Errorf("status %d, want %d (%s)", status, wantCode, body)
		}
		if !strings.Contains(string(body), wantSub) {
			t.Errorf("body %s does not mention %q", body, wantSub)
		}
	}

	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	payload, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	expect(resp.StatusCode, payload, http.StatusBadRequest, "decoding request")

	r2, p2 := submit(t, ts, server.SubmitRequest{})
	expect(r2.StatusCode, p2, http.StatusBadRequest, "no model document")

	r3, p3 := submit(t, ts, server.SubmitRequest{Model: "<bogus"})
	expect(r3.StatusCode, p3, http.StatusBadRequest, "parsing model")

	// Unknown job ids.
	r4, err := http.Get(ts.URL + "/v1/jobs/j-999999")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, r4.Body)
	r4.Body.Close()
	if r4.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job GET: %d", r4.StatusCode)
	}
}

// TestArtifactUploadIsNotAccepted: the daemon has no route that installs
// client-supplied bytes into its build cache. A script PUT under the
// content hash of a real job's program must be refused, and a later
// submission of that model must compile and run its own binary.
func TestArtifactUploadIsNotAccepted(t *testing.T) {
	_, tsA := newTestServer(t, server.Config{Workers: 1})
	_, tsB := newTestServer(t, server.Config{Workers: 1})

	req := server.SubmitRequest{Model: slxDoc(t, "PLANT", "3"), Steps: 50}
	ref := waitJob(t, tsA, submitOK(t, tsA, req))
	if ref.State != server.JobDone || ref.ArtifactHash == "" {
		t.Fatalf("reference job: %s (%s), artifact %q", ref.State, ref.Error, ref.ArtifactHash)
	}

	marker := filepath.Join(t.TempDir(), "planted-ran")
	script := []byte("#!/bin/sh\ntouch " + marker + "\n")
	sum := sha256.Sum256(script)
	put, err := http.NewRequest(http.MethodPut, tsB.URL+"/v1/artifacts/"+ref.ArtifactHash, bytes.NewReader(script))
	if err != nil {
		t.Fatal(err)
	}
	put.Header.Set("X-Accmos-Digest", hex.EncodeToString(sum[:]))
	resp, err := http.DefaultClient.Do(put)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound && resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("artifact upload: got %s, want 404 or 405", resp.Status)
	}

	view := waitJob(t, tsB, submitOK(t, tsB, req))
	if view.State != server.JobDone {
		t.Fatalf("job after upload attempt: %s (%s)", view.State, view.Error)
	}
	if view.CacheHit {
		t.Error("job after upload attempt reported a cache hit; it must compile locally")
	}
	if view.Result == nil || ref.Result == nil || view.Result.OutputHash != ref.Result.OutputHash {
		t.Errorf("result diverged from the reference: %+v vs %+v", view.Result, ref.Result)
	}
	if _, err := os.Stat(marker); err == nil {
		t.Error("the uploaded script ran")
	}
}

// TestHealthzReadinessDetail pins the /healthz readiness contract
// external load balancers route on: queue depth, running count, capacity
// and the draining flag.
func TestHealthzReadinessDetail(t *testing.T) {
	runner, release, _, _ := blockingRunner()
	srv, ts := newTestServer(t, server.Config{Workers: 1, QueueDepth: 7, Runner: runner})
	defer release()

	id := submitOK(t, ts, server.SubmitRequest{Model: slxDoc(t, "HZ", "2")})
	waitState(t, ts, id, server.JobRunning)
	// A second job sits queued behind the blocked worker.
	submitOK(t, ts, server.SubmitRequest{Model: slxDoc(t, "HZ2", "4")})

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var hv server.HealthView
	if err := json.NewDecoder(resp.Body).Decode(&hv); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %s", resp.Status)
	}
	if hv.Status != "ok" || hv.Draining {
		t.Errorf("health status: %+v", hv)
	}
	if hv.Running != 1 || hv.QueueDepth != 1 {
		t.Errorf("running/queued: %+v, want 1/1", hv)
	}
	if hv.Workers != 1 || hv.QueueCap != 7 {
		t.Errorf("capacity: %+v, want workers 1 / queueCap 7", hv)
	}
	if hv.UptimeNanos <= 0 {
		t.Errorf("uptime missing: %+v", hv)
	}
	if got := srv.Health(); got.Workers != 1 || got.QueueCap != 7 {
		t.Errorf("Server.Health(): %+v", got)
	}
	release()
}

// TestSubmitLintRejection proves a model lint marks unsafe never reaches
// codegen: the daemon answers 400 with the blocking findings.
func TestSubmitLintRejection(t *testing.T) {
	_, ts := newTestServer(t, server.Config{Workers: 1})

	m := model.NewBuilder("WIDE").
		Add("In", "Inport", 0, 1, model.WithOutKind(types.F64), model.WithParam("Port", "1")).
		Add("G", "Gain", 1, 1, model.WithParam("Gain", "2"), model.WithOutWidth(lint.MaxSignalWidth+1)).
		Add("Out", "Outport", 1, 0, model.WithParam("Port", "1")).
		Chain("In", "G", "Out").
		MustBuild()
	var buf bytes.Buffer
	if err := slx.Encode(&buf, m); err != nil {
		t.Fatal(err)
	}

	resp, payload := submit(t, ts, server.SubmitRequest{Model: buf.String()})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("lint-blocked model: %s: %s", resp.Status, payload)
	}
	var er server.ErrorResponse
	if err := json.Unmarshal(payload, &er); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(er.Error, "failed lint") {
		t.Errorf("error %q does not mention lint", er.Error)
	}
	if len(er.Lint) == 0 {
		t.Fatal("rejection carries no lint findings")
	}
	for _, l := range er.Lint {
		if l.Severity != string(lint.Error) {
			t.Errorf("blocking finding with severity %q: %+v", l.Severity, l)
		}
		if !strings.Contains(l.Message, "exceeds the supported maximum") {
			t.Errorf("unexpected blocking finding: %+v", l)
		}
	}
}

// TestSubmitNegativeBoundsRejected: a negative steps, budgetMs or
// timeoutMs is refused at admission with a 400, before it becomes a job.
func TestSubmitNegativeBoundsRejected(t *testing.T) {
	_, ts := newTestServer(t, server.Config{Workers: 1})
	doc := slxDoc(t, "NEG", "2")
	for _, req := range []server.SubmitRequest{
		{Model: doc, Steps: -5},
		{Model: doc, BudgetMS: -1},
		{Model: doc, TimeoutMS: -100},
	} {
		resp, payload := submit(t, ts, req)
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(payload), "negative run bound") {
			t.Errorf("steps %d budgetMs %d timeoutMs %d: %s: %s",
				req.Steps, req.BudgetMS, req.TimeoutMS, resp.Status, payload)
		}
	}
	if got := getMetrics(t, ts)[jobsSeries("submitted")]; got != 0 {
		t.Errorf("a rejected submission became a job: %v submitted", got)
	}
}

// TestSubmitInvertedStimulusRangeRejected: a stimulus range whose hi is
// below its lo could only fail in the queue, when the source is
// generated, so admission refuses it with a 400 naming both bounds and
// SpecFromRequest returns an AdmissionError. An empty range (lo = hi) is
// a constant stimulus and stays valid.
func TestSubmitInvertedStimulusRangeRejected(t *testing.T) {
	_, ts := newTestServer(t, server.Config{Workers: 1})
	doc := slxDoc(t, "INV", "2")
	for _, req := range []server.SubmitRequest{
		{Model: doc, Lo: 5, Hi: 1},
		{Model: doc, Lo: 0, Hi: -1},
		{Model: doc, Seed: 3, Lo: 2.5, Hi: -2.5},
	} {
		resp, payload := submit(t, ts, req)
		want := fmt.Sprintf("(lo %g, hi %g)", req.Lo, req.Hi)
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(payload), want) {
			t.Errorf("lo %g hi %g: %s: %s, want a 400 naming %s", req.Lo, req.Hi, resp.Status, payload, want)
		}
		_, _, err := server.SpecFromRequest(accmos.NewBuildCache(t.TempDir()), req, accmos.OptO1, 0)
		var ae *server.AdmissionError
		if !errors.As(err, &ae) {
			t.Errorf("lo %g hi %g: SpecFromRequest returned %v, want an AdmissionError", req.Lo, req.Hi, err)
		}
	}
	if got := getMetrics(t, ts)[jobsSeries("submitted")]; got != 0 {
		t.Errorf("a rejected submission became a job: %v submitted", got)
	}
	if _, _, err := server.SpecFromRequest(accmos.NewBuildCache(t.TempDir()), server.SubmitRequest{Model: doc, Lo: 1, Hi: 1}, accmos.OptO1, 0); err != nil {
		t.Errorf("an empty range lo = hi: %v", err)
	}
}

// TestFailedJobReportsError drives a stub runner failure through the job
// record.
func TestFailedJobReportsError(t *testing.T) {
	runner := func(ctx context.Context, spec server.JobSpec, tr *accmos.Tracer, progress func(obs.Snapshot)) (*server.Outcome, error) {
		return nil, fmt.Errorf("simulated backend failure")
	}
	_, ts := newTestServer(t, server.Config{Workers: 1, Runner: runner})

	v := waitJob(t, ts, submitOK(t, ts, server.SubmitRequest{Model: slxDoc(t, "FAIL", "2")}))
	if v.State != server.JobFailed {
		t.Fatalf("state %s, want failed", v.State)
	}
	if !strings.Contains(v.Error, "simulated backend failure") {
		t.Errorf("job error %q", v.Error)
	}
	if got := getMetrics(t, ts)[jobsSeries("failed")]; got != 1 {
		t.Errorf("failed counter %v, want 1", got)
	}
}
