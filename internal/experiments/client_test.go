package experiments

import (
	"context"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	accmos "accmos"
	"accmos/internal/server"
)

// newDaemon serves an in-process accmosd with its own empty build cache.
func newDaemon(t *testing.T) *httptest.Server {
	t.Helper()
	srv := server.New(server.Config{Workers: 1, Cache: accmos.NewBuildCache(t.TempDir())})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Drain(ctx)
	})
	return ts
}

// TestRemoteTable2AmortizesCompile drives one Table 2 model through the
// daemon twice: the cold submission compiles, and the warm one is served
// by the daemon's build cache at a small fraction of the compile cost.
func TestRemoteTable2AmortizesCompile(t *testing.T) {
	ts := newDaemon(t)
	rows, err := RemoteTable2(context.Background(), Config{Steps: 2000, Models: []string{"CSEV"}}, ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("rows = %d, want 1", len(rows))
	}
	r := rows[0]
	if r.Model != "CSEV" || r.Steps != 2000 {
		t.Errorf("row identity: %+v", r)
	}
	if r.ColdCompile <= 0 {
		t.Errorf("cold row shows no compile: %+v", r)
	}
	if !r.WarmHit {
		t.Errorf("warm submission missed the daemon's build cache: %+v", r)
	}
	if r.WarmCompile*10 > r.ColdCompile {
		t.Errorf("warm compile phase %v is not far below the cold one %v", r.WarmCompile, r.ColdCompile)
	}
	if r.Cold <= 0 || r.Warm <= 0 {
		t.Errorf("missing run spans: %+v", r)
	}
}

// TestClientReportsRefusedSubmission pins that a submission the daemon
// refuses at admission comes back as an error, not as a job.
func TestClientReportsRefusedSubmission(t *testing.T) {
	ts := newDaemon(t)
	c := &Client{BaseURL: ts.URL}
	view, err := c.Run(context.Background(), server.SubmitRequest{Model: "<not a model", Steps: 10})
	if err == nil {
		t.Fatalf("malformed model accepted as job %+v", view)
	}
	if !strings.Contains(err.Error(), "refused") {
		t.Errorf("error does not report the refusal: %v", err)
	}
}
