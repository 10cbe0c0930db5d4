package rapid_test

import (
	"fmt"
	"testing"

	"accmos/internal/actors"
	"accmos/internal/benchmodels"
	"accmos/internal/model"
	"accmos/internal/rapid"
	"accmos/internal/testcase"
	"accmos/internal/types"
)

// BenchmarkRapidPerActorStep reports the Rapid-Accelerator cost on a
// fully-specialized chain (unboxed registers, batched sync) — the number
// to compare against the interp package's per-actor-step benchmarks and
// the Table 2 AccMoS rows of cmd/experiments.
func BenchmarkRapidPerActorStep(b *testing.B) {
	const n = 100
	mb := model.NewBuilder("CHAIN")
	mb.Add("In", "Inport", 0, 1, model.WithOutKind(types.F64), model.WithParam("Port", "1"))
	prev := "In"
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("G%d", i)
		mb.Add(name, "Gain", 1, 1, model.WithParam("Gain", "1.0000001"))
		mb.Wire(prev, name, 0)
		prev = name
	}
	mb.Add("Out", "Outport", 1, 0, model.WithParam("Port", "1"))
	mb.Wire(prev, "Out", 0)
	c, err := actors.Compile(mb.MustBuild())
	if err != nil {
		b.Fatal(err)
	}
	e, err := rapid.New(c)
	if err != nil {
		b.Fatal(err)
	}
	if spec, bridged := e.Stats(); bridged != 0 {
		b.Fatalf("chain should fully specialize (spec %d, bridged %d)", spec, bridged)
	}
	set := testcase.NewRandomSet(1, 1, -1, 1)
	const steps = 20000
	b.ResetTimer()
	var total int64
	for i := 0; i < b.N; i++ {
		res, err := e.Run(set, steps, 0)
		if err != nil {
			b.Fatal(err)
		}
		total += res.ExecNanos
	}
	b.ReportMetric(float64(total)/float64(b.N)/float64(steps)/float64(n+2), "ns/actor-step")
}

// BenchmarkAblationRapidSpecialization isolates the unboxed-register
// specialization's contribution to Rapid-Accelerator speed by comparing
// against a bridge-only build of the same model (DESIGN.md A2).
func BenchmarkAblationRapidSpecialization(b *testing.B) {
	c, err := actors.Compile(benchmodels.MustBuild("LANS"))
	if err != nil {
		b.Fatal(err)
	}
	set := testcase.NewRandomSet(len(c.Inports), 2024, -100, 100)
	const steps = 50_000
	run := func(b *testing.B, e *rapid.Engine) {
		var exec int64
		for i := 0; i < b.N; i++ {
			res, err := e.Run(set, steps, 0)
			if err != nil {
				b.Fatal(err)
			}
			exec += res.ExecNanos
		}
		b.ReportMetric(float64(exec)/float64(b.N)/float64(steps), "ns/step")
	}
	b.Run("specialized", func(b *testing.B) {
		e, err := rapid.New(c)
		if err != nil {
			b.Fatal(err)
		}
		spec, bridged := e.Stats()
		b.Logf("specialized %d, bridged %d", spec, bridged)
		run(b, e)
	})
	b.Run("bridge-only", func(b *testing.B) {
		e, err := rapid.NewBridgeOnly(c)
		if err != nil {
			b.Fatal(err)
		}
		run(b, e)
	})
}
