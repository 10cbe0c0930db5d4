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
// engine, variant) run with its wall time, throughput, one-time compile
// cost, coverage outcome and coverage-over-time timeline. Every
// experiment returns rows, and its text table prints from them.
type MetricRow struct {
	Experiment string `json:"experiment"`
	Model      string `json:"model"`
	Engine     string `json:"engine"`
	// Variant tells apart rows of one (experiment, model, engine): the
	// instrumentation or build an ablation row measured, or the error a
	// detection row found.
	Variant      string           `json:"variant,omitempty"`
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
	// FirstDetect is the first step a detection row's diagnosis fired
	// (-1 = not found).
	FirstDetect *int64 `json:"firstDetect,omitempty"`
	// Phases holds the pipeline cost of an ablation row by trace span
	// name (generate, compile.gc, compile.link, ...), in nanoseconds,
	// summed over every span of that name.
	Phases map[string]int64 `json:"phases,omitempty"`
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

func stepsPerSec(steps, wallNanos int64) float64 {
	if wallNanos <= 0 {
		return 0
	}
	return float64(steps) / time.Duration(wallNanos).Seconds()
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
