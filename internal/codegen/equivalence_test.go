package codegen_test

import (
	"fmt"
	"testing"

	"accmos/internal/actors"
	"accmos/internal/codegen"
	"accmos/internal/diagnose"
	"accmos/internal/interp"
	"accmos/internal/model"
	"accmos/internal/testcase"
	"accmos/internal/types"
)

// The equivalence suite: for each actor family, build a model exercising
// it, run the interpreter and the generated program on identical random
// stimuli, and require bit-identical output hashes, coverage bitmaps and
// diagnosis aggregates. This is the strongest correctness oracle the
// system has — any divergence between an actor's Eval and Gen shows up
// here.

// chainModel wires In (kind kin) through the given middle actors (each
// 1-in/1-out, pre-added by the configure callback) to outports.
type sinkCounter struct{ n int }

func (s *sinkCounter) out(b *model.Builder, src string, port int) {
	name := fmt.Sprintf("Out%d", s.n)
	b.Add(name, "Outport", 1, 0, model.WithParam("Port", fmt.Sprint(s.n+1)))
	b.Connect(src, port, name, 0)
	s.n++
}

func equivCheck(t *testing.T, name string, c *actors.Compiled, set *testcase.Set, steps int64) {
	t.Helper()
	t.Run(name, func(t *testing.T) {
		t.Parallel()
		ir, gr := runBoth(t, c, set, steps,
			interp.Options{Coverage: true, Diagnose: true},
			codegen.Options{Coverage: true, Diagnose: true})
		assertEquivalent(t, ir, gr)
	})
}

func TestEquivalenceMathF64(t *testing.T) {
	b := model.NewBuilder("MATHF")
	s := &sinkCounter{}
	b.Add("InA", "Inport", 0, 1, model.WithOutKind(types.F64), model.WithParam("Port", "1"))
	b.Add("InB", "Inport", 0, 1, model.WithOutKind(types.F64), model.WithParam("Port", "2"))
	b.Add("Sum3", "Sum", 3, 1, model.WithOperator("+-+"))
	b.Add("Prod", "Product", 2, 1, model.WithOperator("*/"))
	b.Add("G", "Gain", 1, 1, model.WithParam("Gain", "2.5"))
	b.Add("Bi", "Bias", 1, 1, model.WithParam("Bias", "-3.25"))
	b.Add("Ab", "Abs", 1, 1)
	b.Add("Um", "UnaryMinus", 1, 1)
	b.Add("Exp", "Math", 1, 1, model.WithOperator("tanh"))
	b.Add("Log", "Math", 1, 1, model.WithOperator("log"))
	b.Add("Sq", "Sqrt", 1, 1)
	b.Add("Mm", "MinMax", 3, 1, model.WithOperator("max"))
	b.Add("Sg", "Sign", 1, 1)
	b.Add("Rd", "Rounding", 1, 1, model.WithOperator("floor"))
	b.Add("Poly", "Polynomial", 1, 1, model.WithParam("Coeffs", "[1.5 -2 0.5]"))
	b.Add("Md", "Mod", 2, 1)
	b.Wire("InA", "Sum3", 0)
	b.Wire("InB", "Sum3", 1)
	b.Wire("InA", "Sum3", 2)
	b.Wire("InA", "Prod", 0)
	b.Wire("InB", "Prod", 1)
	b.Wire("Sum3", "G", 0)
	b.Wire("G", "Bi", 0)
	b.Wire("InB", "Ab", 0)
	b.Wire("Ab", "Um", 0)
	b.Wire("Bi", "Exp", 0)
	b.Wire("InA", "Log", 0)
	b.Wire("Ab", "Sq", 0)
	b.Wire("InA", "Mm", 0)
	b.Wire("InB", "Mm", 1)
	b.Wire("Prod", "Mm", 2)
	b.Wire("Um", "Sg", 0)
	b.Wire("InB", "Rd", 0)
	b.Wire("InA", "Poly", 0)
	b.Wire("InA", "Md", 0)
	b.Wire("InB", "Md", 1)
	for _, src := range []string{"Sum3", "Prod", "Exp", "Log", "Sq", "Mm", "Sg", "Rd", "Poly", "Md"} {
		s.out(b, src, 0)
	}
	// Range includes negatives (log/sqrt domain errors) and zeros
	// (division by zero) to exercise diagnosis paths.
	equivCheck(t, "mathF64", compile(t, b.MustBuild()), testcase.NewRandomSet(2, 11, -50, 50), 4000)
}

func TestEquivalenceMathIntKinds(t *testing.T) {
	for _, k := range []types.Kind{types.I8, types.I16, types.I32, types.I64, types.U8, types.U16, types.U32, types.U64} {
		k := k
		b := model.NewBuilder("MATH" + k.GoType())
		s := &sinkCounter{}
		b.Add("InA", "Inport", 0, 1, model.WithOutKind(k), model.WithParam("Port", "1"))
		b.Add("InB", "Inport", 0, 1, model.WithOutKind(k), model.WithParam("Port", "2"))
		b.Add("Sm", "Sum", 2, 1, model.WithOperator("+-"))
		b.Add("Pr", "Product", 2, 1, model.WithOperator("*"))
		b.Add("Dv", "Product", 2, 1, model.WithOperator("*/"))
		b.Add("G", "Gain", 1, 1, model.WithParam("Gain", "3"))
		b.Add("Ab", "Abs", 1, 1)
		b.Add("Um", "UnaryMinus", 1, 1)
		b.Add("Mm", "MinMax", 2, 1, model.WithOperator("min"))
		b.Add("Sg", "Sign", 1, 1)
		b.Add("Md", "Mod", 2, 1)
		b.Wire("InA", "Sm", 0)
		b.Wire("InB", "Sm", 1)
		b.Wire("InA", "Pr", 0)
		b.Wire("InB", "Pr", 1)
		b.Wire("InA", "Dv", 0)
		b.Wire("InB", "Dv", 1)
		b.Wire("Sm", "G", 0)
		b.Wire("InB", "Ab", 0)
		b.Wire("Ab", "Um", 0)
		b.Wire("InA", "Mm", 0)
		b.Wire("InB", "Mm", 1)
		b.Wire("Um", "Sg", 0)
		b.Wire("InA", "Md", 0)
		b.Wire("InB", "Md", 1)
		for _, src := range []string{"Sm", "Pr", "Dv", "G", "Sg", "Mm", "Md"} {
			s.out(b, src, 0)
		}
		lo, hi := -300.0, 300.0
		if k.IsUnsigned() {
			lo = 0
		}
		equivCheck(t, k.GoType(), compile(t, b.MustBuild()), testcase.NewRandomSet(2, 13, lo, hi), 3000)
	}
}

func TestEquivalenceFloat32(t *testing.T) {
	b := model.NewBuilder("MATHF32")
	s := &sinkCounter{}
	b.Add("InA", "Inport", 0, 1, model.WithOutKind(types.F32), model.WithParam("Port", "1"))
	b.Add("InB", "Inport", 0, 1, model.WithOutKind(types.F32), model.WithParam("Port", "2"))
	b.Add("Sm", "Sum", 2, 1, model.WithOperator("++"))
	b.Add("Pr", "Product", 2, 1, model.WithOperator("*/"))
	b.Add("G", "Gain", 1, 1, model.WithParam("Gain", "1.7"))
	b.Add("Sn", "Math", 1, 1, model.WithOperator("sin"))
	b.Add("Fl", "DiscreteFilter", 1, 1, model.WithParam("A", "0.9"), model.WithParam("B", "0.1"))
	b.Wire("InA", "Sm", 0)
	b.Wire("InB", "Sm", 1)
	b.Wire("InA", "Pr", 0)
	b.Wire("InB", "Pr", 1)
	b.Wire("Sm", "G", 0)
	b.Wire("G", "Sn", 0)
	b.Wire("Pr", "Fl", 0)
	for _, src := range []string{"Sm", "Pr", "G", "Sn", "Fl"} {
		s.out(b, src, 0)
	}
	equivCheck(t, "f32", compile(t, b.MustBuild()), testcase.NewRandomSet(2, 17, -10, 10), 4000)
}

func TestEquivalenceLogic(t *testing.T) {
	b := model.NewBuilder("LOGIC")
	s := &sinkCounter{}
	b.Add("InA", "Inport", 0, 1, model.WithOutKind(types.F64), model.WithParam("Port", "1"))
	b.Add("InB", "Inport", 0, 1, model.WithOutKind(types.F64), model.WithParam("Port", "2"))
	b.Add("InC", "Inport", 0, 1, model.WithOutKind(types.I32), model.WithParam("Port", "3"))
	b.Add("CmpA", "CompareToZero", 1, 1, model.WithOperator(">"))
	b.Add("CmpB", "CompareToConstant", 1, 1, model.WithOperator("<="), model.WithParam("Constant", "5"))
	b.Add("Rel", "RelationalOperator", 2, 1, model.WithOperator(">="))
	for i, op := range []string{"AND", "OR", "NAND", "NOR", "XOR", "NXOR"} {
		b.Add(fmt.Sprintf("L%s", op), "Logic", 3, 1, model.WithOperator(op))
		b.Wire("CmpA", fmt.Sprintf("L%s", op), 0)
		b.Wire("CmpB", fmt.Sprintf("L%s", op), 1)
		b.Wire("Rel", fmt.Sprintf("L%s", op), 2)
		_ = i
	}
	b.Add("LNOT", "Logic", 1, 1, model.WithOperator("NOT"))
	b.Wire("CmpA", "LNOT", 0)
	b.Add("Bw", "BitwiseOperator", 2, 1, model.WithOperator("XOR"))
	b.Add("BwN", "BitwiseOperator", 1, 1, model.WithOperator("NOT"))
	b.Add("Sh", "Shift", 1, 1, model.WithOperator("left"), model.WithParam("Bits", "3"))
	b.Add("Shr", "Shift", 1, 1, model.WithOperator("right"), model.WithParam("Bits", "2"))
	b.Wire("InC", "Bw", 0)
	b.Wire("InC", "Bw", 1)
	b.Wire("InC", "BwN", 0)
	b.Wire("InC", "Sh", 0)
	b.Wire("Sh", "Shr", 0)
	b.Wire("InA", "CmpA", 0)
	b.Wire("InB", "CmpB", 0)
	b.Wire("InA", "Rel", 0)
	b.Wire("InB", "Rel", 1)
	for _, src := range []string{"LAND", "LOR", "LNAND", "LNOR", "LXOR", "LNXOR", "LNOT", "Bw", "BwN", "Sh", "Shr"} {
		s.out(b, src, 0)
	}
	equivCheck(t, "logic", compile(t, b.MustBuild()), testcase.NewRandomSet(3, 19, -1e5, 1e5), 4000)
}

func TestEquivalenceControl(t *testing.T) {
	b := model.NewBuilder("CTRL")
	s := &sinkCounter{}
	b.Add("InA", "Inport", 0, 1, model.WithOutKind(types.F64), model.WithParam("Port", "1"))
	b.Add("InB", "Inport", 0, 1, model.WithOutKind(types.F64), model.WithParam("Port", "2"))
	b.Add("InIdx", "Inport", 0, 1, model.WithOutKind(types.I32), model.WithParam("Port", "3"))
	b.Add("Sw", "Switch", 3, 1, model.WithOperator(">"), model.WithParam("Threshold", "0"))
	b.Add("SwZ", "Switch", 3, 1, model.WithOperator("~=0"))
	b.Add("Mps", "MultiportSwitch", 4, 1)
	b.Add("Iff", "If", 3, 1)
	b.Add("CmpA", "CompareToZero", 1, 1, model.WithOperator(">"))
	b.Add("Mg", "Merge", 2, 1)
	b.Add("Rl", "Relay", 1, 1, model.WithParam("OnPoint", "2"), model.WithParam("OffPoint", "-2"))
	b.Add("Sat", "Saturation", 1, 1, model.WithParam("Min", "-3"), model.WithParam("Max", "3"))
	b.Add("Dz", "DeadZone", 1, 1, model.WithParam("Start", "-1"), model.WithParam("End", "1"))
	b.Add("Qz", "Quantizer", 1, 1, model.WithParam("Interval", "0.25"))
	b.Wire("InA", "Sw", 0)
	b.Wire("InB", "Sw", 1)
	b.Wire("InB", "Sw", 2)
	b.Wire("InA", "SwZ", 0)
	b.Wire("InIdx", "SwZ", 1)
	b.Wire("InB", "SwZ", 2)
	b.Wire("InIdx", "Mps", 0)
	b.Wire("InA", "Mps", 1)
	b.Wire("InB", "Mps", 2)
	b.Wire("Sw", "Mps", 3)
	b.Wire("CmpA", "Iff", 0)
	b.Wire("InA", "Iff", 1)
	b.Wire("InB", "Iff", 2)
	b.Wire("InA", "CmpA", 0)
	b.Wire("InA", "Mg", 0)
	b.Wire("InB", "Mg", 1)
	b.Wire("InA", "Rl", 0)
	b.Wire("InB", "Sat", 0)
	b.Wire("InB", "Dz", 0)
	b.Wire("InA", "Qz", 0)
	for _, src := range []string{"Sw", "SwZ", "Mps", "Iff", "Mg", "Rl", "Sat", "Dz", "Qz"} {
		s.out(b, src, 0)
	}
	// Index input spans out-of-range values on purpose (clamping +
	// IndexOutOfBounds diagnosis).
	set := &testcase.Set{Sources: []testcase.Source{
		{Kind: testcase.Uniform, Lo: -5, Hi: 5, Seed: 23},
		{Kind: testcase.Uniform, Lo: -5, Hi: 5, Seed: 29},
		{Kind: testcase.Uniform, Lo: -1, Hi: 6, Seed: 31},
	}}
	equivCheck(t, "control", compile(t, b.MustBuild()), set, 4000)
}

func TestEquivalenceDiscrete(t *testing.T) {
	b := model.NewBuilder("DISC")
	s := &sinkCounter{}
	b.Add("In", "Inport", 0, 1, model.WithOutKind(types.F64), model.WithParam("Port", "1"))
	b.Add("InI", "Inport", 0, 1, model.WithOutKind(types.I32), model.WithParam("Port", "2"))
	b.Add("Ud", "UnitDelay", 1, 1, model.WithParam("InitialCondition", "1.5"))
	b.Add("Mem", "Memory", 1, 1)
	b.Add("Dl", "Delay", 1, 1, model.WithParam("DelayLength", "7"))
	b.Add("Ig", "DiscreteIntegrator", 1, 1, model.WithParam("Gain", "0.01"))
	b.Add("IgI", "DiscreteIntegrator", 1, 1, model.WithParam("Gain", "3"))
	b.Add("Dd", "DiscreteDerivative", 1, 1)
	b.Add("Fl", "DiscreteFilter", 1, 1, model.WithParam("A", "0.75"), model.WithParam("B", "0.25"))
	b.Add("Zoh", "ZeroOrderHold", 1, 1, model.WithParam("SampleSteps", "5"))
	b.Add("Rlim", "RateLimiter", 1, 1, model.WithParam("RisingLimit", "0.5"), model.WithParam("FallingLimit", "0.25"))
	for _, dst := range []string{"Ud", "Mem", "Dl", "Ig", "Dd", "Fl", "Zoh", "Rlim"} {
		b.Wire("In", dst, 0)
	}
	b.Wire("InI", "IgI", 0)
	for _, src := range []string{"Ud", "Mem", "Dl", "Ig", "IgI", "Dd", "Fl", "Zoh", "Rlim"} {
		s.out(b, src, 0)
	}
	equivCheck(t, "discrete", compile(t, b.MustBuild()), testcase.NewRandomSet(2, 37, -100, 100), 5000)
}

func TestEquivalenceSources(t *testing.T) {
	b := model.NewBuilder("SRC")
	s := &sinkCounter{}
	b.Add("C", "Constant", 0, 1, model.WithOutKind(types.F64), model.WithParam("Value", "3.5"))
	b.Add("CI", "Constant", 0, 1, model.WithOutKind(types.I16), model.WithParam("Value", "-7"))
	b.Add("St", "Step", 0, 1, model.WithParam("StepTime", "100"), model.WithParam("Before", "-1"), model.WithParam("After", "2"))
	b.Add("Rp", "Ramp", 0, 1, model.WithParam("Start", "5"), model.WithParam("Slope", "-0.125"))
	b.Add("Ck", "Clock", 0, 1, model.WithParam("SampleTime", "0.5"))
	b.Add("Sw", "SineWave", 0, 1, model.WithParam("Amplitude", "2"), model.WithParam("Frequency", "0.05"))
	b.Add("Pg", "PulseGenerator", 0, 1, model.WithParam("Period", "13"), model.WithParam("Width", "4"), model.WithParam("Amplitude", "6"))
	b.Add("SgSin", "SignalGenerator", 0, 1, model.WithOperator("sine"), model.WithParam("Period", "50"))
	b.Add("SgSq", "SignalGenerator", 0, 1, model.WithOperator("square"), model.WithParam("Period", "20"))
	b.Add("SgSaw", "SignalGenerator", 0, 1, model.WithOperator("sawtooth"), model.WithParam("Period", "30"))
	b.Add("Rn", "RandomNumber", 0, 1, model.WithParam("Seed", "99"), model.WithParam("Min", "-2"), model.WithParam("Max", "2"))
	b.Add("Gd", "Ground", 0, 1, model.WithOutKind(types.I32))
	b.Add("Ct", "Counter", 0, 1, model.WithParam("Start", "10"), model.WithParam("Inc", "3"))
	b.Add("CtF", "Counter", 0, 1, model.WithOutKind(types.F64), model.WithParam("Start", "0.5"), model.WithParam("Inc", "0.25"))
	for _, src := range []string{"C", "CI", "St", "Rp", "Ck", "Sw", "Pg", "SgSin", "SgSq", "SgSaw", "Rn", "Gd", "Ct", "CtF"} {
		s.out(b, src, 0)
	}
	equivCheck(t, "sources", compile(t, b.MustBuild()), &testcase.Set{}, 3000)
}

func TestEquivalenceVectorsAndLookup(t *testing.T) {
	b := model.NewBuilder("VEC")
	s := &sinkCounter{}
	b.Add("InA", "Inport", 0, 1, model.WithOutKind(types.F64), model.WithParam("Port", "1"))
	b.Add("InIdx", "Inport", 0, 1, model.WithOutKind(types.I32), model.WithParam("Port", "2"))
	b.Add("CV", "Constant", 0, 1, model.WithOutKind(types.F64), model.WithOutWidth(3), model.WithParam("Value", "[1.5 -2 4]"))
	b.Add("Mx", "Mux", 2, 1)
	b.Add("SumV", "Sum", 2, 1, model.WithOperator("++")) // vector + broadcast scalar
	b.Add("Soe", "SumOfElements", 1, 1)
	b.Add("Poe", "ProductOfElements", 1, 1)
	b.Add("Dp", "DotProduct", 2, 1)
	b.Add("SelS", "Selector", 1, 1, model.WithParam("Indices", "[3 1]"))
	b.Add("SelD", "Selector", 2, 1)
	b.Add("Dmx", "Demux", 1, 4)
	b.Add("L1", "Lookup1D", 1, 1, model.WithParam("BreakPoints", "[-10 -1 0 1 10]"), model.WithParam("Table", "[5 1 0 1 5]"))
	b.Add("Ld", "LookupDirect", 1, 1, model.WithParam("Table", "[10 20 30 40]"), model.WithOutKind(types.I32))
	b.Add("Dtc", "DataTypeConversion", 1, 1, model.WithOutKind(types.I16))
	b.Wire("CV", "Mx", 0)
	b.Wire("InA", "Mx", 1)
	b.Wire("Mx", "SumV", 0)
	b.Wire("InA", "SumV", 1)
	b.Wire("SumV", "Soe", 0)
	b.Wire("SumV", "Poe", 0)
	b.Wire("Mx", "Dp", 0)
	b.Wire("SumV", "Dp", 1)
	b.Wire("SumV", "SelS", 0)
	b.Wire("SumV", "SelD", 0)
	b.Wire("InIdx", "SelD", 1)
	b.Wire("Mx", "Dmx", 0)
	b.Wire("InA", "L1", 0)
	b.Wire("InIdx", "Ld", 0)
	b.Wire("InA", "Dtc", 0)
	s.out(b, "Soe", 0)
	s.out(b, "Poe", 0)
	s.out(b, "Dp", 0)
	s.out(b, "SelD", 0)
	s.out(b, "L1", 0)
	s.out(b, "Ld", 0)
	s.out(b, "Dtc", 0)
	s.out(b, "Dmx", 0)
	s.out(b, "Dmx", 2)
	// SelS has width 2: route through a SumOfElements to hash it.
	b.Add("SoeSel", "SumOfElements", 1, 1)
	b.Wire("SelS", "SoeSel", 0)
	s.out(b, "SoeSel", 0)
	// Consume the remaining demux ports.
	b.Add("T1", "Terminator", 1, 0)
	b.Add("T2", "Terminator", 1, 0)
	b.Connect("Dmx", 1, "T1", 0)
	b.Connect("Dmx", 3, "T2", 0)
	set := &testcase.Set{Sources: []testcase.Source{
		{Kind: testcase.Uniform, Lo: -20, Hi: 20, Seed: 41},
		{Kind: testcase.Uniform, Lo: -2, Hi: 8, Seed: 43},
	}}
	equivCheck(t, "vectors", compile(t, b.MustBuild()), set, 3000)
}

func TestEquivalenceExtraActors(t *testing.T) {
	b := model.NewBuilder("EXTRA")
	s := &sinkCounter{}
	b.Add("InY", "Inport", 0, 1, model.WithOutKind(types.F64), model.WithParam("Port", "1"))
	b.Add("InX", "Inport", 0, 1, model.WithOutKind(types.F64), model.WithParam("Port", "2"))
	b.Add("Pid", "PIDController", 1, 1,
		model.WithParam("Kp", "1.5"), model.WithParam("Ki", "0.25"), model.WithParam("Kd", "0.75"))
	b.Add("Ma", "MovingAverage", 1, 1, model.WithParam("Window", "5"))
	b.Add("At", "Atan2", 2, 1)
	b.Wire("InY", "Pid", 0)
	b.Wire("Pid", "Ma", 0)
	b.Wire("InY", "At", 0)
	b.Wire("InX", "At", 1)
	for _, src := range []string{"Pid", "Ma", "At"} {
		s.out(b, src, 0)
	}
	equivCheck(t, "extra", compile(t, b.MustBuild()), testcase.NewRandomSet(2, 97, -20, 20), 4000)
}

func TestEquivalenceContinuous(t *testing.T) {
	// The §5 extension: continuous actors under every solver must stay
	// bit-identical between the interpreter and generated code.
	for _, solver := range []string{"euler", "heun", "rk4", "adams"} {
		solver := solver
		b := model.NewBuilder("CONT" + solver)
		s := &sinkCounter{}
		b.Add("In", "Inport", 0, 1, model.WithOutKind(types.F64), model.WithParam("Port", "1"))
		b.Add("Ig", "Integrator", 1, 1, model.WithOperator(solver), model.WithParam("Dt", "0.01"))
		b.Add("Lag", "FirstOrderLag", 1, 1, model.WithOperator(solver),
			model.WithParam("Dt", "0.05"), model.WithParam("TimeConstant", "0.7"),
			model.WithParam("InitialCondition", "2"))
		b.Add("Lag2", "FirstOrderLag", 1, 1, model.WithOperator(solver),
			model.WithParam("Dt", "0.05"), model.WithParam("TimeConstant", "3"))
		b.Wire("In", "Ig", 0)
		b.Wire("In", "Lag", 0)
		b.Wire("Lag", "Lag2", 0)
		s.out(b, "Ig", 0)
		s.out(b, "Lag", 0)
		s.out(b, "Lag2", 0)
		equivCheck(t, solver, compile(t, b.MustBuild()), testcase.NewRandomSet(1, 83, -5, 5), 3000)
	}
}

func TestEquivalenceDataStores(t *testing.T) {
	b := model.NewBuilder("DST")
	s := &sinkCounter{}
	b.Add("In", "Inport", 0, 1, model.WithOutKind(types.I32), model.WithParam("Port", "1"))
	b.Add("DSM", "DataStoreMemory", 0, 0, model.WithParam("Store", "acc"), model.WithOutKind(types.I32), model.WithParam("InitialValue", "100"))
	b.Add("Rd", "DataStoreRead", 0, 1, model.WithParam("Store", "acc"), model.WithOutKind(types.I32))
	b.Add("Add", "Sum", 2, 1, model.WithOperator("++"))
	b.Add("Wr", "DataStoreWrite", 1, 0, model.WithParam("Store", "acc"))
	b.Wire("Rd", "Add", 0)
	b.Wire("In", "Add", 1)
	b.Wire("Add", "Wr", 0)
	s.out(b, "Add", 0)
	equivCheck(t, "datastore", compile(t, b.MustBuild()), testcase.NewRandomSet(1, 47, -1000, 1000), 3000)
}

func TestEquivalenceMonitorAndCustom(t *testing.T) {
	b := model.NewBuilder("MONC")
	b.Add("In", "Inport", 0, 1, model.WithOutKind(types.F64), model.WithParam("Port", "1"))
	b.Add("G", "Gain", 1, 1, model.WithParam("Gain", "3"))
	b.Add("Out", "Outport", 1, 0, model.WithParam("Port", "1"))
	b.Chain("In", "G", "Out")
	c := compile(t, b.MustBuild())
	set := testcase.NewRandomSet(1, 53, -10, 10)
	iopts := interp.Options{
		Monitor: []string{"G"},
		Custom:  rangeAndDelta(),
	}
	gopts := codegen.Options{
		Monitor: []string{"G"},
		Custom:  rangeAndDelta(),
	}
	ir, gr := runBoth(t, c, set, 500, iopts, gopts)
	assertEquivalent(t, ir, gr) // monitor hits and samples included
	if ir.MonitorHits["G"] != 500 || len(ir.Monitor["G"]) == 0 {
		t.Errorf("monitor recorded %d hits and %d samples; the comparison proves nothing",
			ir.MonitorHits["G"], len(ir.Monitor["G"]))
	}
}

func rangeAndDelta() []diagnose.CustomCheck {
	return []diagnose.CustomCheck{
		{Actor: "G", Name: "range", Kind: diagnose.RangeCheck, Lo: -20, Hi: 20},
		{Actor: "G", Name: "delta", Kind: diagnose.DeltaCheck, MaxDelta: 25},
	}
}
