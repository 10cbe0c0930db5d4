package experiments

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	accmos "accmos"
	"accmos/internal/simresult"
)

func TestMetricsConversion(t *testing.T) {
	m := NewMetrics(Config{Steps: 1000, Seed: 7})
	if m.Schema != MetricsSchema || m.Steps != 1000 || m.Seed != 7 {
		t.Fatalf("document header: %+v", m)
	}
	res := &accmos.Result{
		Results: &simresult.Results{
			Steps: 1000, ExecNanos: (2 * time.Millisecond).Nanoseconds(),
			CompileNanos: (80 * time.Millisecond).Nanoseconds(),
		},
		CacheHit: true,
	}
	row := resultRow("table2", "SPV", "AccMoS", res)
	if row.Experiment != "table2" || row.Model != "SPV" || row.Engine != "AccMoS" || row.Steps != 1000 {
		t.Errorf("row identity: %+v", row)
	}
	if row.WallNanos != res.ExecNanos || row.CompileNanos != res.CompileNanos || !row.CacheHit {
		t.Errorf("row lost the run's costs: %+v", row)
	}
	if row.StepsPerSec != 500_000 {
		t.Errorf("steps/sec: %v", row.StepsPerSec)
	}
	d := detectionRow("casestudy", "downcast", "SSE", res, 0)
	if d.Variant != "downcast" || d.FirstDetect == nil || *d.FirstDetect != 0 {
		t.Errorf("detection row must keep a step-0 detection: %+v", d)
	}
}

func TestMetricsWriteFile(t *testing.T) {
	m := NewMetrics(Config{Steps: 10})
	step := int64(0)
	m.Rows = append(m.Rows, MetricRow{Experiment: "casestudy", Model: "X", Engine: "SSE", Steps: 10, WallNanos: 1, FirstDetect: &step})
	path := filepath.Join(t.TempDir(), "metrics.json")
	if err := m.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var decoded Metrics
	if err := json.Unmarshal(b, &decoded); err != nil {
		t.Fatalf("written metrics are not valid JSON: %v", err)
	}
	if decoded.Schema != MetricsSchema || len(decoded.Rows) != 1 || decoded.Rows[0].FirstDetect == nil {
		t.Errorf("round trip: %+v", decoded)
	}
	if b[len(b)-1] != '\n' {
		t.Error("file should end with a newline")
	}
}

// TestCommittedBaselinesDecode pins that every committed -metrics-json
// baseline still decodes into Metrics with no field left over, so a
// MetricRow field can go only if no kept baseline sets it.
func TestCommittedBaselinesDecode(t *testing.T) {
	for _, name := range []string{"BENCH_table2.json", "BENCH_o2.json", "BENCH_ablation.json"} {
		b, err := os.ReadFile(filepath.Join("..", "..", name))
		if err != nil {
			t.Fatal(err)
		}
		dec := json.NewDecoder(bytes.NewReader(b))
		dec.DisallowUnknownFields()
		var m Metrics
		if err := dec.Decode(&m); err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if m.Schema != MetricsSchema {
			t.Errorf("%s: schema %q, want %q", name, m.Schema, MetricsSchema)
		}
		if len(m.Rows) == 0 {
			t.Errorf("%s: no rows", name)
		}
	}
}
