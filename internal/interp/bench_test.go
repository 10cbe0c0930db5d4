package interp

import (
	"fmt"
	"testing"

	"accmos/internal/actors"
	"accmos/internal/model"
	"accmos/internal/testcase"
	"accmos/internal/types"
)

// chainCompiled builds an n-actor gain chain, the minimal per-actor-cost
// microbenchmark workload.
func chainCompiled(b *testing.B, n int) *actors.Compiled {
	b.Helper()
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
	return c
}

// BenchmarkSSEPerActorStep reports the interpreted engine's per-actor-step
// cost (map-resolved signals, boxed values, full instrumentation).
func BenchmarkSSEPerActorStep(b *testing.B) {
	const n = 100
	c := chainCompiled(b, n)
	e, err := New(c, Options{Coverage: true, Diagnose: true})
	if err != nil {
		b.Fatal(err)
	}
	set := testcase.NewRandomSet(1, 1, -1, 1)
	const steps = 1000
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

// BenchmarkAccelPerActorStep reports the Accelerator-mode cost
// (slot-indexed closures + per-step host sync).
func BenchmarkAccelPerActorStep(b *testing.B) {
	const n = 100
	c := chainCompiled(b, n)
	e, err := NewAccel(c)
	if err != nil {
		b.Fatal(err)
	}
	set := testcase.NewRandomSet(1, 1, -1, 1)
	const steps = 5000
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
