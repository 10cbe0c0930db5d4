package server_test

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	accmos "accmos"
	"accmos/internal/obs"
	"accmos/internal/server"
)

// scrape fetches /metrics with an explicit query string and Accept
// header, returning the response and its body.
func scrape(t *testing.T, ts *httptest.Server, query, accept string) (*http.Response, string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, ts.URL+"/metrics"+query, nil)
	if err != nil {
		t.Fatal(err)
	}
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("scrape %q: %s: %s", query, resp.Status, body)
	}
	return resp, string(body)
}

// promSkeleton reduces a Prometheus exposition to its # HELP / # TYPE
// lines — the stable family skeleton, independent of sample values.
func promSkeleton(exposition string) string {
	var sb strings.Builder
	for _, line := range strings.Split(exposition, "\n") {
		if strings.HasPrefix(line, "# ") {
			sb.WriteString(line)
			sb.WriteString("\n")
		}
	}
	return sb.String()
}

// promValues parses sample lines ("name{labels} value") into a map keyed
// by the full series name including its label block.
func promValues(t *testing.T, exposition string) map[string]float64 {
	t.Helper()
	vals := make(map[string]float64)
	for _, line := range strings.Split(exposition, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		idx := strings.LastIndexByte(line, ' ')
		if idx < 0 {
			t.Fatalf("malformed sample line %q", line)
		}
		v, err := strconv.ParseFloat(line[idx+1:], 64)
		if err != nil {
			t.Fatalf("malformed sample value in %q: %v", line, err)
		}
		vals[line[:idx]] = v
	}
	return vals
}

// TestMetricsPrometheusGoldenSkeleton pins the exposition's family
// skeleton (every # HELP / # TYPE line, in registration order) against
// testdata/metrics.prom.golden. Run with UPDATE_GOLDEN=1 to regenerate
// after intentionally adding or renaming a metric.
func TestMetricsPrometheusGoldenSkeleton(t *testing.T) {
	_, ts := newTestServer(t, server.Config{Workers: 1})
	resp, body := scrape(t, ts, "", "")
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("content type %q, want text/plain; version=0.0.4", ct)
	}
	got := promSkeleton(body)
	golden := filepath.Join("testdata", "metrics.prom.golden")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("regenerated %s", golden)
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden (run with UPDATE_GOLDEN=1 to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("exposition skeleton drifted from %s\n--- got ---\n%s--- want ---\n%s", golden, got, want)
	}
}

// TestMetricsExpositionWellFormed checks structural invariants of the
// Prometheus text: every sample belongs to an announced family, every
// histogram ends with +Inf == _count, and counters never carry a
// negative value.
func TestMetricsExpositionWellFormed(t *testing.T) {
	runner, release, _, _ := blockingRunner()
	_ = release
	release()
	_, ts := newTestServer(t, server.Config{Workers: 1, Runner: runner})
	id := submitOK(t, ts, server.SubmitRequest{Model: slxDoc(t, "WF", "2.0")})
	waitJob(t, ts, id)

	_, body := scrape(t, ts, "", "")
	announced := make(map[string]bool)
	for _, line := range strings.Split(body, "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			announced[strings.Fields(line)[2]] = true
		}
	}
	vals := promValues(t, body)
	for series, v := range vals {
		name := series
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		base := strings.TrimSuffix(strings.TrimSuffix(strings.TrimSuffix(name, "_bucket"), "_sum"), "_count")
		if !announced[name] && !announced[base] {
			t.Errorf("sample %q has no # TYPE header", series)
		}
		if strings.HasSuffix(name, "_total") && v < 0 {
			t.Errorf("counter %q is negative: %v", series, v)
		}
	}
	// Histogram consistency: +Inf bucket must equal the series count.
	// accmosd_phase_seconds_bucket{phase="x",le="+Inf"} must match
	// accmosd_phase_seconds_count{phase="x"}.
	for series, v := range vals {
		if !strings.Contains(series, `le="+Inf"`) {
			continue
		}
		name := series[:strings.IndexByte(series, '{')]
		labels := series[strings.IndexByte(series, '{')+1 : len(series)-1]
		var kept []string
		for _, l := range strings.Split(labels, ",") {
			if !strings.HasPrefix(l, `le=`) {
				kept = append(kept, l)
			}
		}
		countName := strings.Replace(name, "_bucket", "_count", 1)
		if len(kept) > 0 {
			countName += "{" + strings.Join(kept, ",") + "}"
		}
		if cv, ok := vals[countName]; !ok || cv != v {
			t.Errorf("+Inf bucket %v != count %v for %s", v, cv, countName)
		}
	}
}

// TestMetricsIgnoresFormatAndAccept: /metrics has one format. Whatever
// the query string or Accept header asks for, including JSON, the
// response is the Prometheus text exposition 0.0.4.
func TestMetricsIgnoresFormatAndAccept(t *testing.T) {
	_, ts := newTestServer(t, server.Config{Workers: 1})
	cases := []struct{ query, accept string }{
		{"", ""},
		{"", "*/*"},
		{"", "application/json"},
		{"?format=json", "text/plain"},
		{"?format=prom", ""},
		{"?format=prometheus", "application/json"},
		{"", "text/plain"},
		{"", "application/openmetrics-text;version=1.0.0,text/plain;q=0.5"},
	}
	for _, tc := range cases {
		resp, body := scrape(t, ts, tc.query, tc.accept)
		if ct := resp.Header.Get("Content-Type"); ct != "text/plain; version=0.0.4; charset=utf-8" {
			t.Errorf("query=%q accept=%q: content type %q", tc.query, tc.accept, ct)
		}
		if !strings.Contains(body, "# TYPE accmosd_jobs_total counter") {
			t.Errorf("query=%q accept=%q: body missing jobs family", tc.query, tc.accept)
		}
	}
}

// TestMetricsChurnMonotonic hammers the daemon with submissions and
// cancellations from several goroutines while other goroutines scrape
// /metrics, then asserts that every accmosd_jobs_total series only ever
// moved up and that the quiescent counters add up. Run under -race this
// also proves the registry is data-race free against live traffic.
func TestMetricsChurnMonotonic(t *testing.T) {
	runner := func(ctx context.Context, spec server.JobSpec, tr *accmos.Tracer, progress func(obs.Snapshot)) (*server.Outcome, error) {
		progress(obs.Snapshot{Steps: 1})
		select {
		case <-time.After(time.Millisecond):
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		if strings.HasSuffix(spec.Model.Name, "F") {
			return nil, fmt.Errorf("induced failure")
		}
		return &server.Outcome{}, nil
	}
	_, ts := newTestServer(t, server.Config{Workers: 4, QueueDepth: 256, Runner: runner})

	const (
		submitters = 4
		perWorker  = 25
	)
	var wg sync.WaitGroup
	ids := make(chan string, submitters*perWorker)
	for g := 0; g < submitters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				suffix := "OK"
				if i%5 == 0 {
					suffix = "F"
				}
				name := fmt.Sprintf("M%d_%d%s", g, i, suffix)
				resp, payload := submit(t, ts, server.SubmitRequest{Model: slxDoc(t, name, "1.0")})
				if resp.StatusCode != http.StatusAccepted {
					continue // queue-full rejections are legitimate churn
				}
				var ack server.SubmitResponse
				if err := json.Unmarshal(payload, &ack); err == nil {
					ids <- ack.ID
					if i%7 == 0 {
						req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+ack.ID, nil)
						if r, err := http.DefaultClient.Do(req); err == nil {
							r.Body.Close()
						}
					}
				}
			}
		}(g)
	}

	// Scrapers run until the submitters finish, checking monotonicity of
	// every accmosd_jobs_total series across successive prom scrapes.
	stop := make(chan struct{})
	var scrWG sync.WaitGroup
	for s := 0; s < 2; s++ {
		scrWG.Add(1)
		go func() {
			defer scrWG.Done()
			prev := make(map[string]float64)
			for {
				select {
				case <-stop:
					return
				default:
				}
				_, body := scrape(t, ts, "", "")
				vals := promValues(t, body)
				for series, v := range vals {
					if !strings.HasPrefix(series, "accmosd_jobs_total") {
						continue
					}
					if p, ok := prev[series]; ok && v < p {
						t.Errorf("counter %s went backwards: %v -> %v", series, p, v)
					}
					prev[series] = v
				}
			}
		}()
	}

	wg.Wait()
	close(ids)
	for id := range ids {
		waitJob(t, ts, id)
	}
	close(stop)
	scrWG.Wait()

	// Quiescent now: every admitted job reached exactly one terminal state.
	vals := getMetrics(t, ts)
	done, failed, canceled := vals[jobsSeries("done")], vals[jobsSeries("failed")], vals[jobsSeries("canceled")]
	if done == 0 || failed == 0 {
		t.Errorf("churn produced no terminal jobs: done %v, failed %v", done, failed)
	}
	if submitted := vals[jobsSeries("submitted")]; done+failed+canceled != submitted {
		t.Errorf("done %v + failed %v + canceled %v != submitted %v", done, failed, canceled, submitted)
	}
	if got := vals["accmosd_queue_depth"]; got != 0 {
		t.Errorf("queue depth %v after quiescence", got)
	}
}

// getDebug fetches a job's debug bundle, asserting the expected status.
func getDebug(t *testing.T, ts *httptest.Server, id string, wantStatus int) *server.DebugBundle {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/debug")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	payload, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != wantStatus {
		t.Fatalf("debug %s: %s (want %d): %s", id, resp.Status, wantStatus, payload)
	}
	if wantStatus != http.StatusOK {
		return nil
	}
	var b server.DebugBundle
	if err := json.Unmarshal(payload, &b); err != nil {
		t.Fatal(err)
	}
	return &b
}

// TestFailedJobDebugBundle: a stub runner fails with a structured
// RunError; the captured bundle carries the error's forensics and the
// job's correlation ID on every layer (bundle, heartbeats, trace), and
// successful jobs have no bundle.
func TestFailedJobDebugBundle(t *testing.T) {
	runner := func(ctx context.Context, spec server.JobSpec, tr *accmos.Tracer, progress func(obs.Snapshot)) (*server.Outcome, error) {
		defer tr.Start("simulate").End()
		progress(obs.Snapshot{Steps: 10})
		progress(obs.Snapshot{Steps: 20})
		if spec.Model.Name == "DBGF" {
			return nil, &accmos.RunError{
				Model:      spec.Model.Name,
				Bin:        "/fake/bin/DBGF",
				Corr:       spec.Options.RunID,
				Reason:     accmos.ReasonExit,
				ExitCode:   7,
				StderrTail: []string{"panic: numerical instability"},
			}
		}
		return &server.Outcome{}, nil
	}
	_, ts := newTestServer(t, server.Config{Workers: 1, Runner: runner})

	failID := submitOK(t, ts, server.SubmitRequest{Model: slxDoc(t, "DBGF", "1.0")})
	if v := waitJob(t, ts, failID); v.State != server.JobFailed {
		t.Fatalf("state %s, want failed", v.State)
	}
	b := getDebug(t, ts, failID, http.StatusOK)
	if b.ID != failID || b.Corr != failID {
		t.Errorf("bundle id/corr %q/%q, want both %q", b.ID, b.Corr, failID)
	}
	if b.Reason != accmos.ReasonExit || b.ExitCode != 7 {
		t.Errorf("reason %q exit %d, want exit/7", b.Reason, b.ExitCode)
	}
	if b.Bin != "/fake/bin/DBGF" {
		t.Errorf("bin %q", b.Bin)
	}
	if len(b.StderrTail) != 1 || !strings.Contains(b.StderrTail[0], "numerical instability") {
		t.Errorf("stderr tail %q", b.StderrTail)
	}
	if len(b.Heartbeats) == 0 {
		t.Fatal("bundle has no heartbeats")
	}
	for i, hb := range b.Heartbeats {
		if hb.Corr != failID {
			t.Errorf("heartbeat %d corr %q, want %q", i, hb.Corr, failID)
		}
	}
	if b.Trace == nil || b.Trace.Corr != failID {
		t.Errorf("trace corr: %+v", b.Trace)
	}
	if _, ok := b.Phases["simulate"]; !ok {
		t.Errorf("phases missing the simulate span: %v", b.Phases)
	}
	if b.State != server.JobFailed || b.Error == "" {
		t.Errorf("bundle state/error: %q / %q", b.State, b.Error)
	}

	okID := submitOK(t, ts, server.SubmitRequest{Model: slxDoc(t, "DBGOK", "1.0")})
	if v := waitJob(t, ts, okID); v.State != server.JobDone {
		t.Fatalf("state %s, want done", v.State)
	}
	getDebug(t, ts, okID, http.StatusNotFound)
	getDebug(t, ts, "j-999999", http.StatusNotFound)
}

// TestDebugBundleStatsKeys pins the JSON keys of a debug bundle's cache
// and workerPool sections, which scripts read by name, and that hitRate
// is hits / (hits + misses): two identical jobs (a miss, then a hit)
// run the real pipeline before a stub failure captures the bundle.
func TestDebugBundleStatsKeys(t *testing.T) {
	cache := accmos.NewBuildCache(t.TempDir())
	defer cache.Remove()
	pipeline := server.PipelineRunner(cache, nil)
	runner := func(ctx context.Context, spec server.JobSpec, tr *accmos.Tracer, progress func(obs.Snapshot)) (*server.Outcome, error) {
		if spec.Model.Name == "KEYF" {
			return nil, fmt.Errorf("stub failure")
		}
		return pipeline(ctx, spec, tr, progress)
	}
	_, ts := newTestServer(t, server.Config{Workers: 1, Cache: cache, Runner: runner})
	for range 2 {
		id := submitOK(t, ts, server.SubmitRequest{Model: slxDoc(t, "KEYS", "2"), Steps: 100})
		if v := waitJob(t, ts, id); v.State != server.JobDone {
			t.Fatalf("job %s: %s (%s)", id, v.State, v.Error)
		}
	}
	id := submitOK(t, ts, server.SubmitRequest{Model: slxDoc(t, "KEYF", "2")})
	if v := waitJob(t, ts, id); v.State != server.JobFailed {
		t.Fatalf("state %s, want failed", v.State)
	}
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/debug")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var bundle struct {
		Cache      map[string]float64 `json:"cache"`
		WorkerPool map[string]float64 `json:"workerPool"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&bundle); err != nil {
		t.Fatal(err)
	}
	for _, sec := range []struct {
		name string
		got  map[string]float64
		want []string
	}{
		{"cache", bundle.Cache, []string{"entries", "limit", "hits", "misses", "relinks", "evictions",
			"hitRate", "frontHits", "frontMisses", "admitHits", "admitMisses"}},
		{"workerPool", bundle.WorkerPool, []string{"perArtifact", "spawns", "reuses", "respawns", "artifacts", "warm"}},
	} {
		var keys []string
		for k := range sec.got {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		slices.Sort(sec.want)
		if !slices.Equal(keys, sec.want) {
			t.Errorf("%s keys %v, want %v", sec.name, keys, sec.want)
		}
	}
	c := bundle.Cache
	if c["hits"] != 1 || c["misses"] != 1 || c["hitRate"] != c["hits"]/(c["hits"]+c["misses"]) {
		t.Errorf("cache section %v: want 1 hit, 1 miss and hitRate = hits/(hits+misses)", c)
	}
}

// TestCanceledJobDebugBundle: canceling a running job also captures a
// bundle, classified "canceled".
func TestCanceledJobDebugBundle(t *testing.T) {
	runner, release, _, _ := blockingRunner()
	defer release()
	_, ts := newTestServer(t, server.Config{Workers: 1, Runner: runner})
	id := submitOK(t, ts, server.SubmitRequest{Model: slxDoc(t, "CNCL", "1.0")})
	waitState(t, ts, id, server.JobRunning)
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+id, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if v := waitJob(t, ts, id); v.State != server.JobCanceled {
		t.Fatalf("state %s, want canceled", v.State)
	}
	b := getDebug(t, ts, id, http.StatusOK)
	if b.Reason != "canceled" || b.Corr != id {
		t.Errorf("bundle reason %q corr %q", b.Reason, b.Corr)
	}
}

// TestRealPipelineTimeoutForensics drives the REAL pipeline into a
// wall-clock timeout (an effectively unbounded simulation with a tight
// deadline and fast heartbeats) and checks the complete forensic chain:
// the job fails with reason "timeout", and the bundle, its heartbeats
// and its trace all carry the job's correlation ID.
func TestRealPipelineTimeoutForensics(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles a real program")
	}
	cache := accmos.NewBuildCache(t.TempDir())
	defer cache.Remove()
	_, ts := newTestServer(t, server.Config{Workers: 1, Cache: cache})

	id := submitOK(t, ts, server.SubmitRequest{
		Model:       slxDoc(t, "TMO", "3.0"),
		Steps:       1 << 40,
		TimeoutMS:   1500,
		HeartbeatMS: 25,
	})
	v := waitJob(t, ts, id)
	if v.State != server.JobFailed {
		t.Fatalf("state %s (err %q), want failed", v.State, v.Error)
	}
	if !strings.Contains(v.Error, "timeout") {
		t.Errorf("job error %q does not mention the timeout", v.Error)
	}

	b := getDebug(t, ts, id, http.StatusOK)
	if b.Reason != accmos.ReasonTimeout {
		t.Errorf("bundle reason %q, want timeout", b.Reason)
	}
	if b.Corr != id {
		t.Errorf("bundle corr %q, want %q", b.Corr, id)
	}
	if b.TimeoutMS != 1500 {
		t.Errorf("bundle timeoutMs %d, want 1500", b.TimeoutMS)
	}
	if b.Bin == "" {
		t.Error("bundle has no binary path")
	}
	if len(b.Heartbeats) == 0 {
		t.Fatal("no heartbeats captured before the kill")
	}
	for i, hb := range b.Heartbeats {
		if hb.Corr != id {
			t.Errorf("heartbeat %d corr %q, want %q", i, hb.Corr, id)
		}
	}
	if b.Trace == nil || b.Trace.Corr != id {
		t.Fatalf("trace missing or uncorrelated: %+v", b.Trace)
	}
	// The failure must also be visible in /metrics.
	if got := getMetrics(t, ts)[jobsSeries("failed")]; got != 1 {
		t.Errorf("failed count %v, want 1", got)
	}
}
