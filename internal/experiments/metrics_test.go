package experiments

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"accmos/internal/coverage"
	"accmos/internal/obs"
)

func TestMetricsConversion(t *testing.T) {
	m := NewMetrics(Config{Steps: 1000, Seed: 7})
	if m.Schema != MetricsSchema || m.Steps != 1000 || m.Seed != 7 {
		t.Fatalf("document header: %+v", m)
	}
	m.AddTable2([]Table2Row{{
		Model: "SPV", Steps: 1000,
		AccMoS: 2 * time.Millisecond, Compile: 80 * time.Millisecond,
		SSE: 200 * time.Millisecond, SSEac: 20 * time.Millisecond, SSErac: 4 * time.Millisecond,
		HashOK:         true,
		AccMoSTimeline: []obs.Snapshot{{Steps: 500}, {Steps: 1000, Final: true}},
	}})
	m.AddTable3([]Table3Row{{
		Model: "SPV", Budget: 500 * time.Millisecond,
		AccMoS: Table3Cell{Steps: 9000, Report: coverage.Report{Actor: 100}},
		SSE:    Table3Cell{Steps: 300, Report: coverage.Report{Actor: 40}},
	}})
	if len(m.Rows) != 6 {
		t.Fatalf("want 4 table2 + 2 table3 rows, got %d", len(m.Rows))
	}
	acc := m.Rows[0]
	if acc.Engine != "AccMoS" || acc.CompileNanos != (80*time.Millisecond).Nanoseconds() {
		t.Errorf("AccMoS row: %+v", acc)
	}
	if acc.StepsPerSec != 500_000 {
		t.Errorf("steps/sec: %v", acc.StepsPerSec)
	}
	if acc.HashOK == nil || !*acc.HashOK || len(acc.Timeline) != 2 {
		t.Errorf("AccMoS row lost timeline or hash check: %+v", acc)
	}
	t3 := m.Rows[4]
	if t3.Experiment != "table3" || t3.Coverage == nil || t3.Coverage.Actor != 100 {
		t.Errorf("table3 row: %+v", t3)
	}
	if t3.BudgetNanos != (500 * time.Millisecond).Nanoseconds() {
		t.Errorf("table3 budget: %v", t3.BudgetNanos)
	}
}

func TestMetricsWriteFile(t *testing.T) {
	m := NewMetrics(Config{Steps: 10})
	m.AddTable2([]Table2Row{{Model: "X", Steps: 10, AccMoS: time.Millisecond}})
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
	if decoded.Schema != MetricsSchema || len(decoded.Rows) != 4 {
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
	for _, name := range []string{"BENCH_table2.json", "BENCH_o2.json"} {
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
