package experiments

import (
	"context"
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"time"

	"accmos/internal/actors"
	"accmos/internal/benchmodels"
	"accmos/internal/codegen"
	"accmos/internal/harness"
	"accmos/internal/opt/partition"
	"accmos/internal/simresult"
	"accmos/internal/testcase"
)

// PartitionRow is one (shape, K) measurement of the pipelined step loop:
// the same generated model run sequentially (Partitions 1, the baseline)
// and through a K-way goroutine pipeline. The row with Model "TOTAL" is
// the aggregate gate: geomean sequential-over-partitioned speedup across
// every partitioned row, vacuously passing on hosts that cannot overlap
// anything (see CPUs).
type PartitionRow struct {
	Model string
	Steps int64

	// Partitions is the usable cut width this row ran at (1 = the
	// sequential baseline row). CutEdges and Balance describe the cut:
	// how many signals cross a boundary, and max/mean partition cost.
	Partitions int
	CutEdges   int
	Balance    float64

	Wall    time.Duration
	Compile time.Duration

	// Speedup is sequential wall over this row's wall (1.0 on the
	// baseline row by construction).
	Speedup float64

	// SpeedupOK is set on the TOTAL gate row: geomean speedup at or
	// above the bar — or CPUs < 2, which makes the wall-clock half of
	// the gate vacuous while the equivalence half still binds.
	SpeedupOK bool

	// EquivOK reports the partitioned-vs-sequential oracle for this row:
	// identical output hashes on the timing runs plus byte-identical
	// coverage bitmaps and diagnosis aggregates on a separate
	// instrumented pass.
	EquivOK bool

	// CPUs is the host's usable core count — the ceiling on any
	// pipeline speedup, recorded so the committed baseline says whether
	// its speedup column means anything.
	CPUs int
}

// partitionGeomeanBar is the aggregate acceptance bar on multi-core
// hosts: overlapping partitions must buy at least this much on the
// partition-sensitive shapes.
const partitionGeomeanBar = 1.5

// partitionWidths are the cut widths each shape is measured at.
var partitionWidths = []int{2, 4}

// BenchPartition measures the partition benchmark shapes sequentially
// and at each pipeline width. Timing runs are uninstrumented; a separate
// instrumented pass (coverage + diagnosis on, equivSteps) checks the
// bit-identity oracle so the committed baseline always asserts
// correctness even where a single-core host makes the speedup column
// meaningless.
func BenchPartition(cfg Config) ([]PartitionRow, error) {
	names := partitionBenchNames(cfg.Models)
	cfg.fillDefaults()
	dir, cleanup, err := cfg.workDir()
	if err != nil {
		return nil, err
	}
	defer cleanup()

	cpus := runtime.NumCPU()
	var rows []PartitionRow
	for _, name := range names {
		m, err := benchmodels.BuildPart(name)
		if err != nil {
			return nil, err
		}
		c, err := actors.Compile(m)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		set := testcase.NewRandomSet(len(c.Inports), cfg.Seed, -100, 100)

		run := func(plan *partition.Plan, tag string) (*simresult.Results, time.Duration, error) {
			prog, err := codegen.Generate(c, codegen.Options{TestCases: set, Partition: plan})
			if err != nil {
				return nil, 0, fmt.Errorf("%s %s: %w", name, tag, err)
			}
			bin, compileTime, _, err := cfg.build(prog, filepath.Join(dir, name+"_"+tag))
			if err != nil {
				return nil, 0, err
			}
			res, err := harness.RunContext(context.Background(), bin, harness.RunOptions{Steps: cfg.Steps, Timeout: cfg.Timeout})
			if err != nil {
				return nil, 0, err
			}
			return res, compileTime, nil
		}

		seqRes, seqCompile, err := run(nil, "P1")
		if err != nil {
			return nil, err
		}
		rows = append(rows, PartitionRow{
			Model: name, Steps: cfg.Steps, Partitions: 1,
			Wall: time.Duration(seqRes.ExecNanos), Compile: seqCompile,
			Speedup: 1, EquivOK: true, CPUs: cpus,
		})

		for _, k := range partitionWidths {
			plan := partition.Build(c, k)
			if plan.Usable < 2 {
				return nil, fmt.Errorf("%s: no usable %d-way cut: %s", name, k, plan.Declined)
			}
			parRes, parCompile, err := run(plan, fmt.Sprintf("P%d", plan.Usable))
			if err != nil {
				return nil, err
			}
			equivOK := simresult.SameOutputs(seqRes, parRes)
			if equivOK {
				equivOK, err = cfg.partitionEquivalent(dir, name, c, set, plan)
				if err != nil {
					return nil, err
				}
			}
			row := PartitionRow{
				Model: name, Steps: cfg.Steps, Partitions: plan.Usable,
				CutEdges: plan.CutEdges, Balance: plan.Balance,
				Wall: time.Duration(parRes.ExecNanos), Compile: parCompile,
				Speedup: ratio(time.Duration(seqRes.ExecNanos), time.Duration(parRes.ExecNanos)),
				EquivOK: equivOK, CPUs: cpus,
			}
			cfg.logf("partition %s %d-way: %v vs %v (%.2fx), cut %d, balance %.2f",
				name, plan.Usable, time.Duration(seqRes.ExecNanos), row.Wall, row.Speedup, row.CutEdges, row.Balance)
			rows = append(rows, row)
		}
	}
	rows = append(rows, partitionGateRow(rows, cpus))
	return rows, nil
}

// partitionBenchNames restricts the partition shape suite to an explicit
// -models subset; an unrelated subset falls back to the full suite.
func partitionBenchNames(subset []string) []string {
	all := benchmodels.PartNames()
	if len(subset) == 0 {
		return all
	}
	want := make(map[string]bool, len(subset))
	for _, n := range subset {
		want[n] = true
	}
	var out []string
	for _, n := range all {
		if want[n] {
			out = append(out, n)
		}
	}
	if len(out) == 0 {
		return all
	}
	return out
}

// partitionGateRow aggregates the partitioned rows into the TOTAL
// acceptance row: geomean speedup over every K >= 2 row. The speedup half
// of the verdict only binds on hosts with at least two cores — a pipeline
// on one core is a context-switch tax by construction — but the
// equivalence half binds everywhere.
func partitionGateRow(rows []PartitionRow, cpus int) PartitionRow {
	logSum, n, equiv := 0.0, 0, true
	for _, r := range rows {
		equiv = equiv && r.EquivOK
		if r.Partitions < 2 {
			continue
		}
		if r.Speedup > 0 {
			logSum += math.Log(r.Speedup)
			n++
		}
	}
	gate := PartitionRow{Model: "TOTAL", Partitions: 0, EquivOK: equiv, CPUs: cpus}
	if n > 0 {
		gate.Speedup = math.Exp(logSum / float64(n))
		gate.SpeedupOK = equiv && (cpus < 2 || gate.Speedup >= partitionGeomeanBar)
	}
	return gate
}

// partitionEquivalent runs the instrumented oracle for one (model, plan):
// coverage + diagnosis on, sequential vs pipelined generated programs,
// compared down to the coverage bitmap bytes.
func (cfg *Config) partitionEquivalent(dir, name string, c *actors.Compiled, set *testcase.Set, plan *partition.Plan) (bool, error) {
	run := func(p *partition.Plan, tag string) (*simresult.Results, error) {
		prog, err := codegen.Generate(c, codegen.Options{
			Coverage: true, Diagnose: true, TestCases: set, Partition: p,
		})
		if err != nil {
			return nil, err
		}
		bin, _, _, err := cfg.build(prog, filepath.Join(dir, name+"_eq_"+tag))
		if err != nil {
			return nil, err
		}
		return harness.RunContext(context.Background(), bin, harness.RunOptions{Steps: equivSteps, Timeout: cfg.Timeout})
	}
	seq, err := run(nil, "P1")
	if err != nil {
		return false, fmt.Errorf("%s partition equivalence: %w", name, err)
	}
	par, err := run(plan, fmt.Sprintf("P%d", plan.Usable))
	if err != nil {
		return false, fmt.Errorf("%s partition equivalence: %w", name, err)
	}
	return sameInstrumented(seq, par), nil
}
