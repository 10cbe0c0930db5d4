package server_test

import (
	"bytes"
	"context"
	"net/http"
	"reflect"
	"sync"
	"testing"

	accmos "accmos"
	"accmos/internal/lint"
	"accmos/internal/model"
	"accmos/internal/obs"
	"accmos/internal/server"
	"accmos/internal/slx"
	"accmos/internal/types"
)

// instantRunner completes every job at once, recording the model each
// job was handed.
func instantRunner() (server.Runner, func() []*accmos.Model) {
	var (
		mu     sync.Mutex
		models []*accmos.Model
	)
	runner := func(ctx context.Context, spec server.JobSpec, tr *accmos.Tracer, progress func(obs.Snapshot)) (*server.Outcome, error) {
		mu.Lock()
		models = append(models, spec.Model)
		mu.Unlock()
		return &server.Outcome{}, nil
	}
	return runner, func() []*accmos.Model {
		mu.Lock()
		defer mu.Unlock()
		return append([]*accmos.Model(nil), models...)
	}
}

// A repeat submission of one document is admitted from the memo: the
// document is parsed once, both jobs carry identical lint lines, and
// both run the same model.
func TestAdmissionMemoParsesOnce(t *testing.T) {
	runner, models := instantRunner()
	srv, ts := newTestServer(t, server.Config{Workers: 1, Runner: runner})
	// A zero gain is an advisory lint finding, so the jobs carry lint lines.
	req := server.SubmitRequest{Model: slxDoc(t, "MEMO", "0")}
	a := waitJob(t, ts, submitOK(t, ts, req))
	b := waitJob(t, ts, submitOK(t, ts, req))
	if st := srv.Cache().Stats(); st.AdmitMisses != 1 || st.AdmitHits != 1 {
		t.Fatalf("admission memo stats %+v, want 1 miss and 1 hit", st)
	}
	if len(a.Lint) == 0 || !reflect.DeepEqual(a.Lint, b.Lint) {
		t.Fatalf("lint lines differ between submissions: %+v vs %+v", a.Lint, b.Lint)
	}
	if ms := models(); len(ms) != 2 || ms[0] != ms[1] {
		t.Fatal("repeat submission was handed a different model")
	}
	mv := getMetrics(t, ts)
	if hits, misses := mv["accmosd_admission_memo_hits_total"], mv["accmosd_admission_memo_misses_total"]; hits != 1 || misses != 1 {
		t.Errorf("/metrics admission memo: %v hits, %v misses, want 1 of each", hits, misses)
	}
}

// A rejected document is rejected the same way from the memo.
func TestAdmissionMemoRepeatsRejections(t *testing.T) {
	runner, _ := instantRunner()
	srv, ts := newTestServer(t, server.Config{Workers: 1, Runner: runner})
	wide := model.NewBuilder("WIDE").
		Add("In", "Inport", 0, 1, model.WithOutKind(types.F64), model.WithParam("Port", "1")).
		Add("G", "Gain", 1, 1, model.WithParam("Gain", "2"), model.WithOutWidth(lint.MaxSignalWidth+1)).
		Add("Out", "Outport", 1, 0, model.WithParam("Port", "1")).
		Chain("In", "G", "Out").
		MustBuild()
	var buf bytes.Buffer
	if err := slx.Encode(&buf, wide); err != nil {
		t.Fatal(err)
	}
	for _, doc := range []string{"<model name=", buf.String()} {
		r1, p1 := submit(t, ts, server.SubmitRequest{Model: doc})
		r2, p2 := submit(t, ts, server.SubmitRequest{Model: doc})
		if r1.StatusCode != http.StatusBadRequest || r2.StatusCode != http.StatusBadRequest || !bytes.Equal(p1, p2) {
			t.Fatalf("repeat rejection differs: %s %s / %s %s", r1.Status, p1, r2.Status, p2)
		}
	}
	if st := srv.Cache().Stats(); st.AdmitMisses != 2 || st.AdmitHits != 2 {
		t.Fatalf("admission memo stats %+v, want 2 misses and 2 hits", st)
	}
}

// Concurrent submissions of one document share one read-only model all
// the way through the real pipeline (run under -race in CI).
func TestAdmissionMemoConcurrentSharesModel(t *testing.T) {
	cache := accmos.NewBuildCache(t.TempDir())
	defer cache.Remove()
	pipeline := server.PipelineRunner(cache, nil)
	var (
		mu     sync.Mutex
		models = map[*accmos.Model]bool{}
	)
	runner := func(ctx context.Context, spec server.JobSpec, tr *accmos.Tracer, progress func(obs.Snapshot)) (*server.Outcome, error) {
		mu.Lock()
		models[spec.Model] = true
		mu.Unlock()
		return pipeline(ctx, spec, tr, progress)
	}
	_, ts := newTestServer(t, server.Config{Workers: 2, Cache: cache, Runner: runner})
	req := server.SubmitRequest{Model: slxDoc(t, "SHARE", "3"), Steps: 100, Coverage: true}
	ids := make([]string, 4)
	var wg sync.WaitGroup
	for i := range ids {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ids[i] = submitOK(t, ts, req)
		}(i)
	}
	wg.Wait()
	var hash uint64
	for i, id := range ids {
		v := waitJob(t, ts, id)
		if v.State != server.JobDone || v.Result == nil {
			t.Fatalf("job %s: %s (%s)", id, v.State, v.Error)
		}
		if i > 0 && v.Result.OutputHash != hash {
			t.Errorf("job %s output hash %d, want %d", id, v.Result.OutputHash, hash)
		}
		hash = v.Result.OutputHash
	}
	if len(models) != 1 {
		t.Errorf("4 submissions of one document ran %d models", len(models))
	}
	if st := cache.Stats(); st.AdmitMisses != 1 || st.AdmitHits != 3 || st.Misses != 1 {
		t.Errorf("cache stats %+v, want 1 admission miss, 3 hits, 1 compile", st)
	}
}

// The admission memo holds at most CacheEntries verdicts.
func TestAdmissionMemoEvictsAtCacheEntries(t *testing.T) {
	runner, _ := instantRunner()
	srv, ts := newTestServer(t, server.Config{Workers: 1, CacheEntries: 2, Runner: runner})
	for _, gain := range []string{"1", "2", "3", "1"} {
		waitJob(t, ts, submitOK(t, ts, server.SubmitRequest{Model: slxDoc(t, "EVICT", gain)}))
	}
	// The third document evicted the first, so its resubmission misses.
	if st := srv.Cache().Stats(); st.AdmitMisses != 4 || st.AdmitHits != 0 {
		t.Fatalf("admission memo stats %+v, want 4 misses", st)
	}
	waitJob(t, ts, submitOK(t, ts, server.SubmitRequest{Model: slxDoc(t, "EVICT", "3")}))
	if st := srv.Cache().Stats(); st.AdmitHits != 1 {
		t.Fatalf("admission memo stats %+v, want the recent document to hit", st)
	}
}

// Evicting a binary leaves the admission verdict of its document to the
// admission memo's own bound: three seed-only jobs of one document under
// CacheEntries 2 evict the first job's binary, and a fourth submission
// of the document is still admitted from the memo.
func TestBinaryEvictionKeepsAdmissionVerdict(t *testing.T) {
	srv, ts := newTestServer(t, server.Config{Workers: 1, CacheEntries: 2})
	doc := slxDoc(t, "KEEP", "3")
	for seed := uint64(1); seed <= 4; seed++ {
		v := waitJob(t, ts, submitOK(t, ts, server.SubmitRequest{Model: doc, Steps: 100, Seed: seed}))
		if v.State != server.JobDone {
			t.Fatalf("seed %d: %s (%s)", seed, v.State, v.Error)
		}
		if seed == 3 {
			if st := srv.Cache().Stats(); st.Evictions == 0 {
				t.Fatalf("three binaries under a limit of two evicted none: %+v", st)
			}
		}
	}
	if st := srv.Cache().Stats(); st.AdmitMisses != 1 || st.AdmitHits != 3 {
		t.Errorf("admission memo stats %+v, want 1 miss and 3 hits", st)
	}
}

// A full queue refuses a submission before admission: the 429 costs no
// parse, so the admission memo records no miss.
func TestQueueFullShedsBeforeAdmission(t *testing.T) {
	runner, release, _, _ := blockingRunner()
	defer release()
	srv, ts := newTestServer(t, server.Config{Workers: 1, QueueDepth: 1, Runner: runner})
	first := submitOK(t, ts, server.SubmitRequest{Model: slxDoc(t, "SHED", "1")})
	waitState(t, ts, first, server.JobRunning)
	submitOK(t, ts, server.SubmitRequest{Model: slxDoc(t, "SHED", "2")})
	before := srv.Cache().Stats()

	resp, payload := submit(t, ts, server.SubmitRequest{Model: slxDoc(t, "SHED", "3")})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated queue: %s: %s", resp.Status, payload)
	}
	if after := srv.Cache().Stats(); after.AdmitMisses != before.AdmitMisses || after.AdmitHits != before.AdmitHits {
		t.Errorf("refused submission reached admission: stats %+v -> %+v", before, after)
	}
	release()
}
