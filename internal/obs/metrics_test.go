package obs

import (
	"math"
	"strings"
	"sync"
	"testing"
)

func TestCounterAndGaugeVecs(t *testing.T) {
	r := NewRegistry()
	jobs := r.Counter("jobs_total", "jobs by state", "state")
	jobs.With("done").Inc()
	jobs.With("done").Add(2)
	jobs.With("failed").Inc()
	if got := jobs.With("done").Value(); got != 3 {
		t.Errorf("done counter = %d, want 3", got)
	}
	if got := jobs.With("failed").Value(); got != 1 {
		t.Errorf("failed counter = %d, want 1", got)
	}
}

func TestCounterVecLabelArityPanics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("x_total", "x", "a", "b")
	defer func() {
		if recover() == nil {
			t.Fatal("With with wrong arity did not panic")
		}
	}()
	c.With("only-one")
}

func TestDuplicateRegistrationPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("dup_total", "first")
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate family registration did not panic")
		}
	}()
	r.GaugeFunc("dup_total", "second", func() float64 { return 0 })
}

func TestHistogramBucketsAndStats(t *testing.T) {
	h := newHistogram([]float64{0.01, 0.1, 1})
	for _, v := range []float64{0.005, 0.01, 0.05, 0.5, 5} {
		h.Observe(v)
	}
	cum, count, sum := h.snapshot()
	// le=0.01 is inclusive: 0.005 and 0.01 land there.
	want := []uint64{2, 3, 4, 5}
	for i, c := range cum {
		if c != want[i] {
			t.Errorf("cumulative bucket %d = %d, want %d (all: %v)", i, c, want[i], cum)
		}
	}
	if count != 5 {
		t.Errorf("count = %d, want 5", count)
	}
	if math.Abs(sum-5.565) > 1e-12 {
		t.Errorf("sum = %v, want 5.565", sum)
	}
}

func TestWritePrometheusFormat(t *testing.T) {
	r := NewRegistry()
	jobs := r.Counter("accmos_jobs_total", "Jobs by terminal state.", "state")
	jobs.With("done").Add(4)
	jobs.With("failed").Inc()
	r.GaugeFunc("accmos_queue_depth", "Jobs admitted but not running.", func() float64 { return 3 })
	ph := r.Histogram("accmos_phase_seconds", "Phase latency.", []float64{0.5, 1}, "phase")
	ph.With("compile").Observe(0.25)
	ph.With("compile").Observe(2)
	empty := r.Counter("accmos_rejected_total", "Never incremented; header must still print.")
	_ = empty

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	got := sb.String()
	want := `# HELP accmos_jobs_total Jobs by terminal state.
# TYPE accmos_jobs_total counter
accmos_jobs_total{state="done"} 4
accmos_jobs_total{state="failed"} 1
# HELP accmos_queue_depth Jobs admitted but not running.
# TYPE accmos_queue_depth gauge
accmos_queue_depth 3
# HELP accmos_phase_seconds Phase latency.
# TYPE accmos_phase_seconds histogram
accmos_phase_seconds_bucket{phase="compile",le="0.5"} 1
accmos_phase_seconds_bucket{phase="compile",le="1"} 1
accmos_phase_seconds_bucket{phase="compile",le="+Inf"} 2
accmos_phase_seconds_sum{phase="compile"} 2.25
accmos_phase_seconds_count{phase="compile"} 2
# HELP accmos_rejected_total Never incremented; header must still print.
# TYPE accmos_rejected_total counter
`
	if got != want {
		t.Errorf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

func TestPrometheusLabelEscaping(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("esc_total", `help with \ and
newline`, "name")
	c.With("a\"b\\c\nd").Inc()
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	got := sb.String()
	if !strings.Contains(got, `# HELP esc_total help with \\ and\nnewline`) {
		t.Errorf("HELP not escaped:\n%s", got)
	}
	if !strings.Contains(got, `esc_total{name="a\"b\\c\nd"} 1`) {
		t.Errorf("label value not escaped:\n%s", got)
	}
}

func TestRegistryConcurrentUse(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("conc_total", "concurrent", "worker")
	h := r.Histogram("conc_seconds", "concurrent", nil, "worker")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(id string) {
			defer wg.Done()
			for j := 0; j < 500; j++ {
				c.With(id).Inc()
				h.With(id).Observe(float64(j) / 1000)
			}
		}(string(rune('a' + i)))
	}
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				var sb strings.Builder
				if err := r.WritePrometheus(&sb); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	total := int64(0)
	for i := 0; i < 8; i++ {
		total += c.With(string(rune('a' + i))).Value()
	}
	if total != 8*500 {
		t.Errorf("total = %d, want %d", total, 8*500)
	}
}

func TestTracerCorrPropagates(t *testing.T) {
	tr := NewTracer()
	tr.SetCorr("j-000042")
	tr.Start("phase").End()
	trace := tr.Trace()
	if trace.Corr != "j-000042" {
		t.Errorf("trace corr %q, want j-000042", trace.Corr)
	}
	var nilTr *Tracer
	nilTr.SetCorr("x") // must not panic
	if nilTr.Corr() != "" {
		t.Error("nil tracer corr not empty")
	}
}

func TestNewRunIDShape(t *testing.T) {
	a, b := NewRunID(), NewRunID()
	if !strings.HasPrefix(a, "r-") || len(a) != 14 {
		t.Errorf("run id %q has unexpected shape", a)
	}
	if a == b {
		t.Errorf("two run ids collided: %q", a)
	}
}
