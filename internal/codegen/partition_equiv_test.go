package codegen_test

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"accmos/internal/actors"
	"accmos/internal/codegen"
	"accmos/internal/diagnose"
	"accmos/internal/harness"
	"accmos/internal/interp"
	"accmos/internal/model"
	"accmos/internal/opt/partition"
	"accmos/internal/simresult"
	"accmos/internal/testcase"
	"accmos/internal/types"
)

// The partition oracle: a pipelined build must be bit-identical to the
// sequential build AND to the interpreter — output hash, coverage
// bitmaps, diagnosis aggregates and the verbatim record stream — in
// one-shot and batch-lane modes.

// wideComputeModel: nChains independent transcendental chains merged
// into shared outputs — plenty of legal boundaries.
func wideComputeModel(t *testing.T, nChains, depth int) *actors.Compiled {
	t.Helper()
	b := model.NewBuilder("PARTWIDE")
	for ci := 0; ci < nChains; ci++ {
		in := fmt.Sprintf("In%d", ci)
		b.Add(in, "Inport", 0, 1, model.WithOutKind(types.F64), model.WithParam("Port", fmt.Sprint(ci+1)))
		prev := in
		for d := 0; d < depth; d++ {
			name := fmt.Sprintf("M%d_%d", ci, d)
			op := []string{"tanh", "sin", "cos", "exp"}[d%4]
			b.Add(name, "Math", 1, 1, model.WithOperator(op))
			b.Wire(prev, name, 0)
			prev = name
		}
		out := fmt.Sprintf("Out%d", ci)
		b.Add(out, "Outport", 1, 0, model.WithParam("Port", fmt.Sprint(ci+1)))
		b.Wire(prev, out, 0)
	}
	return compile(t, b.MustBuild())
}

// messyPartitionModel exercises everything that could go wrong across a
// cut: stateful feedback, a data store read/modify/write, diagnosis-
// firing math (log/sqrt on signed inputs), an enable-gated block, a
// monitor and custom checks — then long chains so a 2-way cut exists.
func messyPartitionModel(t *testing.T) *actors.Compiled {
	t.Helper()
	b := model.NewBuilder("PARTMESS")
	b.Add("InA", "Inport", 0, 1, model.WithOutKind(types.F64), model.WithParam("Port", "1"))
	b.Add("InB", "Inport", 0, 1, model.WithOutKind(types.F64), model.WithParam("Port", "2"))
	// Feedback accumulator (backward state edge).
	b.Add("Del", "UnitDelay", 1, 1)
	b.Add("Fb", "Sum", 2, 1, model.WithOperator("++"))
	b.Wire("InA", "Fb", 0)
	b.Wire("Del", "Fb", 1)
	b.Wire("Fb", "Del", 0)
	// Diagnosis-firing math on signed stimulus.
	b.Add("Lg", "Math", 1, 1, model.WithOperator("log"))
	b.Wire("InB", "Lg", 0)
	b.Add("Sq", "Sqrt", 1, 1)
	b.Wire("InA", "Sq", 0)
	// Gated gain: enable toggles with the sign of InB.
	b.Add("Pos", "CompareToZero", 1, 1, model.WithOperator(">="))
	b.Wire("InB", "Pos", 0)
	b.Add("G", "Gain", 1, 1, model.WithParam("Gain", "1.5"), model.WithParam("EnabledBy", "Pos"))
	b.Wire("InA", "G", 0)
	// Data store read/modify/write.
	b.Add("Mem", "DataStoreMemory", 0, 0, model.WithParam("Store", "acc"))
	b.Add("AccR", "DataStoreRead", 0, 1, model.WithParam("Store", "acc"), model.WithOutKind(types.F64))
	b.Add("Mix", "Sum", 2, 1, model.WithOperator("++"))
	b.Wire("AccR", "Mix", 0)
	b.Wire("Sq", "Mix", 1)
	b.Add("AccW", "DataStoreWrite", 1, 0, model.WithParam("Store", "acc"))
	b.Wire("Mix", "AccW", 0)
	// Long transcendental tails give the cutter room on both sides.
	prev := "Fb"
	for d := 0; d < 10; d++ {
		name := fmt.Sprintf("TA%d", d)
		b.Add(name, "Math", 1, 1, model.WithOperator("tanh"))
		b.Wire(prev, name, 0)
		prev = name
	}
	tailA := prev
	prev = "Lg"
	for d := 0; d < 10; d++ {
		name := fmt.Sprintf("TB%d", d)
		b.Add(name, "Math", 1, 1, model.WithOperator("sin"))
		b.Wire(prev, name, 0)
		prev = name
	}
	tailB := prev
	b.Add("Join", "Sum", 3, 1, model.WithOperator("+++"))
	b.Wire(tailA, "Join", 0)
	b.Wire(tailB, "Join", 1)
	b.Wire("G", "Join", 2)
	b.Add("Out1", "Outport", 1, 0, model.WithParam("Port", "1"))
	b.Wire("Join", "Out1", 0)
	b.Add("Out2", "Outport", 1, 0, model.WithParam("Port", "2"))
	b.Wire("Mix", "Out2", 0)
	return compile(t, b.MustBuild())
}

func messyOpts() codegen.Options {
	return codegen.Options{
		Coverage: true,
		Diagnose: true,
		Monitor:  []string{"Fb"},
		Custom: []diagnose.CustomCheck{
			{Actor: "Mix", Name: "range", Kind: diagnose.RangeCheck, Lo: -1e6, Hi: 25},
		},
	}
}

// assertIdenticalResults compares two generated runs field by field,
// including the verbatim diag record stream (stronger than the
// cross-engine oracle, which compares aggregates).
func assertIdenticalResults(t *testing.T, seq, par *simresult.Results) {
	t.Helper()
	assertEquivalent(t, seq, par)
	if len(seq.Diags) != len(par.Diags) {
		t.Fatalf("diag records: sequential %d vs partitioned %d", len(seq.Diags), len(par.Diags))
	}
	for i := range seq.Diags {
		if seq.Diags[i] != par.Diags[i] {
			t.Errorf("diag record %d: sequential %+v vs partitioned %+v", i, seq.Diags[i], par.Diags[i])
		}
	}
	for k, vs := range seq.Monitor {
		vp := par.Monitor[k]
		if len(vs) != len(vp) {
			t.Fatalf("monitor %q: %d vs %d samples", k, len(vs), len(vp))
			continue
		}
		for i := range vs {
			if vs[i] != vp[i] {
				t.Errorf("monitor %q sample %d: %+v vs %+v", k, i, vs[i], vp[i])
			}
		}
	}
}

func buildPair(t *testing.T, c *actors.Compiled, base codegen.Options, set *testcase.Set, k int) (*codegen.Program, *codegen.Program) {
	t.Helper()
	base.TestCases = set
	seq, err := codegen.Generate(c, base)
	if err != nil {
		t.Fatal(err)
	}
	plan := partition.Build(c, k)
	if plan.Usable < 2 {
		t.Fatalf("no usable %d-way cut: %s", k, plan.Declined)
	}
	popts := base
	popts.Partition = plan
	par, err := codegen.Generate(c, popts)
	if err != nil {
		t.Fatal(err)
	}
	if par.Partitions != plan.Usable {
		t.Fatalf("Program.Partitions = %d, want %d", par.Partitions, plan.Usable)
	}
	return seq, par
}

func TestPartitionedEquivalence(t *testing.T) {
	cases := []struct {
		name  string
		c     *actors.Compiled
		opts  codegen.Options
		set   *testcase.Set
		steps int64
		ks    []int
	}{
		{
			name:  "wide",
			c:     wideComputeModel(t, 8, 6),
			opts:  codegen.Options{Coverage: true, Diagnose: true},
			set:   testcase.NewRandomSet(8, 41, -30, 30),
			steps: 3000,
			ks:    []int{2, 4},
		},
		{
			name:  "messy",
			c:     messyPartitionModel(t),
			opts:  messyOpts(),
			set:   testcase.NewRandomSet(2, 43, -40, 40),
			steps: 3000,
			ks:    []int{2},
		},
	}
	for _, tc := range cases {
		tc := tc
		for _, k := range tc.ks {
			k := k
			t.Run(fmt.Sprintf("%s/%dway", tc.name, k), func(t *testing.T) {
				t.Parallel()
				seqProg, parProg := buildPair(t, tc.c, tc.opts, tc.set, k)
				dir := t.TempDir()
				seqRes, err := buildAndRun(seqProg, dir, tc.steps)
				if err != nil {
					t.Fatal(err)
				}
				parRes, err := buildAndRun(parProg, dir, tc.steps)
				if err != nil {
					t.Fatal(err)
				}
				assertIdenticalResults(t, seqRes, parRes)

				// Third leg: the interpreter agrees with the pipelined build.
				e, err := interp.New(tc.c, interp.Options{Coverage: true, Diagnose: true,
					Monitor: tc.opts.Monitor, Custom: tc.opts.Custom})
				if err != nil {
					t.Fatal(err)
				}
				ir, err := e.Run(tc.set, tc.steps)
				if err != nil {
					t.Fatal(err)
				}
				assertEquivalent(t, ir, parRes)
			})
		}
	}
}

// Batch lanes and partitioned builds compose: modelExe drives the
// singleton frame through all stages, so runBatch on a partitioned
// binary must match the sequential binary lane for lane.
func TestPartitionedBatchLanes(t *testing.T) {
	c := messyPartitionModel(t)
	set := testcase.NewRandomSet(2, 47, -40, 40)
	seqProg, parProg := buildPair(t, c, messyOpts(), set, 2)
	dir := t.TempDir()
	seqBin, _, err := harness.Build(context.Background(), seqProg, dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	parBin, _, err := harness.Build(context.Background(), parProg, dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	seeds := []uint64{0, 1, 2, 0xdeadbeef}
	pool := harness.NewWorkerPool(1)
	defer pool.Close()
	seqLanes, seqCov, _, err := pool.RunBatch(t.Context(), seqBin, harness.RunOptions{Steps: 1500}, seeds)
	if err != nil {
		t.Fatal(err)
	}
	parLanes, parCov, _, err := pool.RunBatch(t.Context(), parBin, harness.RunOptions{Steps: 1500}, seeds)
	if err != nil {
		t.Fatal(err)
	}
	if len(seqLanes) != len(parLanes) {
		t.Fatalf("lane counts: %d vs %d", len(seqLanes), len(parLanes))
	}
	for i := range seqLanes {
		if seqLanes[i].OutputHash != parLanes[i].OutputHash {
			t.Errorf("lane %d hash: sequential %x vs partitioned %x", i, seqLanes[i].OutputHash, parLanes[i].OutputHash)
		}
		if seqLanes[i].DiagTotal != parLanes[i].DiagTotal {
			t.Errorf("lane %d diagTotal: %d vs %d", i, seqLanes[i].DiagTotal, parLanes[i].DiagTotal)
		}
	}
	if (seqCov == nil) != (parCov == nil) {
		t.Fatalf("batch coverage presence differs")
	}
	if seqCov != nil {
		for i := range seqCov.Actor {
			if seqCov.Actor[i] != parCov.Actor[i] {
				t.Fatalf("batch actor bitmap differs at %d", i)
			}
		}
	}
}

// A usable partition plan must change the build-cache key; a declined
// one must not (it emits sequential source and may share the artifact).
func TestPartitionHashDistinct(t *testing.T) {
	c := wideComputeModel(t, 8, 6)
	set := testcase.NewRandomSet(8, 53, -10, 10)
	base := codegen.Options{Coverage: true, TestCases: set}
	seq, err := codegen.Generate(c, base)
	if err != nil {
		t.Fatal(err)
	}
	popts := base
	popts.Partition = partition.Build(c, 2)
	par, err := codegen.Generate(c, popts)
	if err != nil {
		t.Fatal(err)
	}
	if seq.Hash() == par.Hash() {
		t.Fatal("2-way and 1-way builds share a hash")
	}
	dopts := base
	dopts.Partition = &partition.Plan{Requested: 4, Usable: 1, Declined: "test"}
	dec, err := codegen.Generate(c, dopts)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Hash() != seq.Hash() {
		t.Fatal("declined partition plan must share the sequential hash")
	}
	if dec.Source != seq.Source {
		t.Fatal("declined partition plan must emit sequential source")
	}
}

// StopOnDiag runs decline partitioning at generation time.
func TestPartitionStopOnDiagDeclines(t *testing.T) {
	c := messyPartitionModel(t)
	set := testcase.NewRandomSet(2, 59, -40, 40)
	opts := messyOpts()
	opts.TestCases = set
	opts.StopOnDiag = diagnose.DomainError
	opts.Partition = partition.Build(c, 2)
	p, err := codegen.Generate(c, opts)
	if err != nil {
		t.Fatal(err)
	}
	if p.Partitions != 1 {
		t.Fatalf("StopOnDiag build got %d partitions, want sequential", p.Partitions)
	}
	if strings.Contains(p.Source, "partStep0") {
		t.Fatal("StopOnDiag build emitted pipelined code")
	}
}

// The emitted pipelined source carries the expected shape.
func TestPartitionedSourceShape(t *testing.T) {
	c := wideComputeModel(t, 8, 6)
	set := testcase.NewRandomSet(8, 61, -10, 10)
	opts := codegen.Options{Coverage: true, Diagnose: true, TestCases: set}
	opts.Partition = partition.Build(c, 2)
	p, err := codegen.Generate(c, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"const partitionCount = 2",
		"type pframe struct",
		"func fillStimulus(f *pframe)",
		"func partStep0(f *pframe)",
		"func partStep1(f *pframe)",
		"func mergeDiags()",
		"var diagPos",
		"emitHeartbeatPartial",
		"stageCh[0] <- f",
	} {
		if !strings.Contains(p.Source, want) {
			t.Errorf("partitioned source is missing %q", want)
		}
	}
}
