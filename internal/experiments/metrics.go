package experiments

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"accmos/internal/coverage"
	"accmos/internal/obs"
)

// MetricsSchema versions the -metrics-json document so perf-trajectory
// tooling can detect incompatible changes.
const MetricsSchema = "accmos-metrics/v1"

// MetricRow is one machine-readable measurement: one (experiment, model,
// engine) triple with its wall time, throughput, one-time compile cost,
// coverage outcome and coverage-over-time timeline. Rows are the unit a
// perf dashboard tracks PR-over-PR.
type MetricRow struct {
	Experiment   string           `json:"experiment"`
	Model        string           `json:"model"`
	Engine       string           `json:"engine"`
	Steps        int64            `json:"steps"`
	WallNanos    int64            `json:"wallNanos"`
	StepsPerSec  float64          `json:"stepsPerSec"`
	CompileNanos int64            `json:"compileNanos,omitempty"`
	BudgetNanos  int64            `json:"budgetNanos,omitempty"`
	Coverage     *coverage.Report `json:"coverage,omitempty"`
	Timeline     []obs.Snapshot   `json:"timeline,omitempty"`
	HashOK       *bool            `json:"hashOK,omitempty"`
	// CacheHit marks AccMoS rows whose binary came from the build cache
	// (CompileNanos is then the original build's amortised cost).
	CacheHit bool `json:"cacheHit,omitempty"`
	// Optimizer fields, set on "opt" experiment rows: the level this row
	// ran at, the scheduled actor counts around the O1 pipeline, and wall
	// time normalized per actor evaluation at this row's level (the O2
	// denominator is the post-fusion ActorsEffective). O2 rows also carry
	// the typed-lowering fusion report and the O1-over-O2 speedup; the
	// aggregate TOTAL row carries the gate verdict.
	OptLevel        string  `json:"optLevel,omitempty"`
	ActorsBefore    int     `json:"actorsBefore,omitempty"`
	ActorsAfter     int     `json:"actorsAfter,omitempty"`
	ActorsEffective int     `json:"actorsEffective,omitempty"`
	FusedExprs      int     `json:"fusedExprs,omitempty"`
	HoistedExprs    int     `json:"hoistedExprs,omitempty"`
	NarrowedSignals int     `json:"narrowedSignals,omitempty"`
	NsPerActorStep  float64 `json:"nsPerActorStep,omitempty"`
	Speedup         float64 `json:"speedup,omitempty"`
	SpeedupOK       bool    `json:"speedupOK,omitempty"`
}

// Metrics is the -metrics-json document: run configuration plus rows.
// Host-identifying fields are limited to the Go platform triple and the
// core count so committed baselines (BENCH_table2.json) diff cleanly.
type Metrics struct {
	Schema    string `json:"schema"`
	GoVersion string `json:"goVersion"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	// CPUs is the host's usable core count, which bounds how far any
	// wall-clock row can be compared across hosts.
	CPUs  int         `json:"cpus"`
	Steps int64       `json:"steps"`
	Seed  uint64      `json:"seed"`
	Rows  []MetricRow `json:"rows"`
}

// NewMetrics starts a metrics document for one experiments invocation.
func NewMetrics(cfg Config) *Metrics {
	cfg.fillDefaults()
	return &Metrics{
		Schema:    MetricsSchema,
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		CPUs:      runtime.NumCPU(),
		Steps:     cfg.Steps,
		Seed:      cfg.Seed,
	}
}

// AddTable2 appends one row per (model, engine) from the Table 2 runs.
func (m *Metrics) AddTable2(rows []Table2Row) {
	for _, r := range rows {
		ok := r.HashOK
		m.Rows = append(m.Rows,
			MetricRow{
				Experiment: "table2", Model: r.Model, Engine: "AccMoS",
				Steps: r.Steps, WallNanos: r.AccMoS.Nanoseconds(),
				StepsPerSec:  stepsPerSec(r.Steps, r.AccMoS),
				CompileNanos: r.Compile.Nanoseconds(),
				Timeline:     r.AccMoSTimeline, HashOK: &ok,
				CacheHit: r.CacheHit,
			},
			MetricRow{
				Experiment: "table2", Model: r.Model, Engine: "SSE",
				Steps: r.Steps, WallNanos: r.SSE.Nanoseconds(),
				StepsPerSec: stepsPerSec(r.Steps, r.SSE),
				Timeline:    r.SSETimeline,
			},
			MetricRow{
				Experiment: "table2", Model: r.Model, Engine: "SSEac",
				Steps: r.Steps, WallNanos: r.SSEac.Nanoseconds(),
				StepsPerSec: stepsPerSec(r.Steps, r.SSEac),
			},
			MetricRow{
				Experiment: "table2", Model: r.Model, Engine: "SSErac",
				Steps: r.Steps, WallNanos: r.SSErac.Nanoseconds(),
				StepsPerSec: stepsPerSec(r.Steps, r.SSErac),
			})
	}
}

// AddTable3 appends one row per (model, budget, engine) from the Table 3
// coverage-within-budget runs.
func (m *Metrics) AddTable3(rows []Table3Row) {
	for _, r := range rows {
		accRep, sseRep := r.AccMoS.Report, r.SSE.Report
		m.Rows = append(m.Rows,
			MetricRow{
				Experiment: "table3", Model: r.Model, Engine: "AccMoS",
				Steps: r.AccMoS.Steps, WallNanos: r.Budget.Nanoseconds(),
				BudgetNanos: r.Budget.Nanoseconds(),
				StepsPerSec: stepsPerSec(r.AccMoS.Steps, r.Budget),
				Coverage:    &accRep,
			},
			MetricRow{
				Experiment: "table3", Model: r.Model, Engine: "SSE",
				Steps: r.SSE.Steps, WallNanos: r.Budget.Nanoseconds(),
				BudgetNanos: r.Budget.Nanoseconds(),
				StepsPerSec: stepsPerSec(r.SSE.Steps, r.Budget),
				Coverage:    &sseRep,
			})
	}
}

// AddOpt appends three rows per (model, engine) from the optimizer
// benchmark — one at each level, sharing the model's equivalence verdict,
// with the O2 rows carrying the fusion report — plus the one aggregate
// TOTAL gate row (geomean AccMoS O1→O2 speedup with its pass verdict).
func (m *Metrics) AddOpt(rows []OptRow) {
	for _, r := range rows {
		ok := r.EquivOK
		if r.Model == "TOTAL" {
			m.Rows = append(m.Rows, MetricRow{
				Experiment: "opt", Model: r.Model, Engine: r.Engine,
				HashOK: &ok, OptLevel: "O2",
				Speedup: r.SpeedupO2, SpeedupOK: r.SpeedupOK,
			})
			continue
		}
		m.Rows = append(m.Rows,
			MetricRow{
				Experiment: "opt", Model: r.Model, Engine: r.Engine,
				Steps: r.Steps, WallNanos: r.O0.Nanoseconds(),
				StepsPerSec:  stepsPerSec(r.Steps, r.O0),
				CompileNanos: r.CompileO0.Nanoseconds(),
				HashOK:       &ok, OptLevel: "O0",
				ActorsBefore: r.ActorsBefore, ActorsAfter: r.ActorsAfter,
				NsPerActorStep: r.NsPerActorStepO0,
			},
			MetricRow{
				Experiment: "opt", Model: r.Model, Engine: r.Engine,
				Steps: r.Steps, WallNanos: r.O1.Nanoseconds(),
				StepsPerSec:  stepsPerSec(r.Steps, r.O1),
				CompileNanos: r.CompileO1.Nanoseconds(),
				HashOK:       &ok, OptLevel: "O1",
				ActorsBefore: r.ActorsBefore, ActorsAfter: r.ActorsAfter,
				NsPerActorStep: r.NsPerActorStepO1,
			},
			MetricRow{
				Experiment: "opt", Model: r.Model, Engine: r.Engine,
				Steps: r.Steps, WallNanos: r.O2.Nanoseconds(),
				StepsPerSec:  stepsPerSec(r.Steps, r.O2),
				CompileNanos: r.CompileO2.Nanoseconds(),
				HashOK:       &ok, OptLevel: "O2",
				ActorsBefore: r.ActorsBefore, ActorsAfter: r.ActorsAfter,
				ActorsEffective: r.ActorsEffective,
				FusedExprs:      r.FusedExprs,
				HoistedExprs:    r.HoistedExprs,
				NarrowedSignals: r.NarrowedSignals,
				NsPerActorStep:  r.NsPerActorStepO2,
				Speedup:         r.SpeedupO2,
			})
	}
}

func stepsPerSec(steps int64, wall time.Duration) float64 {
	if wall <= 0 {
		return 0
	}
	return float64(steps) / wall.Seconds()
}

// WriteFile serializes the document as indented JSON.
func (m *Metrics) WriteFile(path string) error {
	b, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return fmt.Errorf("experiments: encoding metrics: %w", err)
	}
	b = append(b, '\n')
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("experiments: %w", err)
	}
	return nil
}
