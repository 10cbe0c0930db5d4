package actors

import (
	"fmt"
	"math"
	"testing"

	"accmos/internal/model"
	"accmos/internal/types"
)

// rig evaluates one actor instance directly, bypassing the engines, so
// each actor type's Eval/Update semantics can be pinned in isolation.
type rig struct {
	t    *testing.T
	info *Info
	ec   EvalCtx
	st   State
	ds   map[string]types.Value
}

// DSRead / DSWrite give the rig a trivial data-store environment.
func (r *rig) DSRead(name string) types.Value { return r.ds[name] }
func (r *rig) DSWrite(name string, v types.Value) {
	cv, _ := types.Convert(v, types.I32)
	r.ds[name] = cv
}

// newRig compiles a one-actor model with constant drivers of the given
// kinds and prepares an EvalCtx around it.
func newRig(t *testing.T, typ model.ActorType, op string, inKinds []types.Kind, opts ...model.ActorOpt) *rig {
	t.Helper()
	b := model.NewBuilder("RIG")
	allOpts := append([]model.ActorOpt{}, opts...)
	if op != "" {
		allOpts = append(allOpts, model.WithOperator(op))
	}
	spec, err := Lookup(typ)
	if err != nil {
		t.Fatal(err)
	}
	nOut := spec.NumOut
	b.Add("X", typ, len(inKinds), nOut, allOpts...)
	for i, k := range inKinds {
		src := fmt.Sprintf("C%d", i)
		val := "1"
		if k == types.Bool {
			val = "true"
		}
		b.Add(src, "Constant", 0, 1, model.WithOutKind(k), model.WithParam("Value", val))
		b.Wire(src, "X", i)
	}
	if nOut > 0 {
		b.Add("T", "Terminator", 1, 0)
		b.Wire("X", "T", 0)
	}
	m := b.MustBuild()
	if store := m.Actor("X").Param("Store", ""); store != "" {
		// Elaboration refuses a data-store access naming no store.
		if err := m.AddActor(&model.Actor{Name: "DS", Type: "DataStoreMemory",
			Params: map[string]string{"Store": store}}); err != nil {
			t.Fatal(err)
		}
	}
	c, err := Compile(m)
	if err != nil {
		t.Fatal(err)
	}
	r := &rig{t: t, info: c.Info("X"), ds: map[string]types.Value{}}
	r.ec.Info = r.info
	r.ec.In = make([]types.Value, len(inKinds))
	r.ec.Outs = make([]types.Value, nOut)
	r.ec.State = &r.st
	r.ec.DS = r
	if r.info.Spec.Init != nil {
		r.info.Spec.Init(r.info, &r.st)
	}
	return r
}

// eval runs one Eval at the given step.
func (r *rig) eval(step int64, ins ...types.Value) (types.Value, types.OpResult) {
	r.t.Helper()
	r.ec.Reset(step)
	copy(r.ec.In, ins)
	r.info.Spec.Eval(&r.ec)
	var out types.Value
	if len(r.ec.Outs) > 0 {
		out = r.ec.Outs[0]
	}
	return out, r.ec.Flags
}

// update runs the Update hook with the given current inputs.
func (r *rig) update(ins ...types.Value) types.OpResult {
	r.t.Helper()
	r.ec.Flags = types.OpResult{}
	copy(r.ec.In, ins)
	r.info.Spec.Update(&r.ec)
	return r.ec.Flags
}

func i32(v int64) types.Value    { return types.IntVal(types.I32, v) }
func f64v(v float64) types.Value { return types.FloatVal(types.F64, v) }
func bv(v bool) types.Value      { return types.BoolVal(v) }

// ---- sources ----

func TestEvalConstantAndGround(t *testing.T) {
	r := newRig(t, "Constant", "", nil, model.WithOutKind(types.I16), model.WithParam("Value", "-42"))
	out, _ := r.eval(0)
	if out.Kind != types.I16 || out.I != -42 {
		t.Errorf("constant = %v", out)
	}
	g := newRig(t, "Ground", "", nil, model.WithOutKind(types.F64))
	out, _ = g.eval(5)
	if out.F != 0 {
		t.Errorf("ground = %v", out)
	}
}

func TestEvalStepRampClock(t *testing.T) {
	r := newRig(t, "Step", "", nil,
		model.WithParam("StepTime", "3"), model.WithParam("Before", "-1"), model.WithParam("After", "2"))
	for step, want := range map[int64]float64{0: -1, 2: -1, 3: 2, 100: 2} {
		if out, _ := r.eval(step); out.F != want {
			t.Errorf("step@%d = %v, want %g", step, out, want)
		}
	}
	rp := newRig(t, "Ramp", "", nil, model.WithParam("Start", "10"), model.WithParam("Slope", "-2"))
	if out, _ := rp.eval(4); out.F != 2 {
		t.Errorf("ramp@4 = %v", out)
	}
	ck := newRig(t, "Clock", "", nil, model.WithParam("SampleTime", "0.25"))
	if out, _ := ck.eval(8); out.F != 2 {
		t.Errorf("clock@8 = %v", out)
	}
}

func TestEvalSineAndSignalGenerator(t *testing.T) {
	sw := newRig(t, "SineWave", "", nil,
		model.WithParam("Amplitude", "2"), model.WithParam("Frequency", "0.5"),
		model.WithParam("Phase", "1"), model.WithParam("Bias", "0.5"))
	out, _ := sw.eval(3)
	want := 2*math.Sin(0.5*3+1) + 0.5
	if out.F != want {
		t.Errorf("sine@3 = %v, want %g", out, want)
	}
	sq := newRig(t, "SignalGenerator", "square", nil,
		model.WithParam("Period", "10"), model.WithParam("Amplitude", "3"))
	if out, _ := sq.eval(2); out.F != 3 {
		t.Errorf("square@2 = %v", out)
	}
	if out, _ := sq.eval(7); out.F != -3 {
		t.Errorf("square@7 = %v", out)
	}
	st := newRig(t, "SignalGenerator", "sawtooth", nil,
		model.WithParam("Period", "8"), model.WithParam("Amplitude", "4"))
	if out, _ := st.eval(6); out.F != 3 {
		t.Errorf("sawtooth@6 = %v", out)
	}
}

func TestEvalPulseGenerator(t *testing.T) {
	r := newRig(t, "PulseGenerator", "", nil,
		model.WithParam("Period", "5"), model.WithParam("Width", "2"), model.WithParam("Amplitude", "7"))
	wants := []float64{7, 7, 0, 0, 0, 7, 7, 0}
	for step, want := range wants {
		if out, _ := r.eval(int64(step)); out.F != want {
			t.Errorf("pulse@%d = %v, want %g", step, out, want)
		}
	}
}

func TestEvalRandomNumberDeterministic(t *testing.T) {
	mk := func() *rig {
		return newRig(t, "RandomNumber", "", nil,
			model.WithParam("Seed", "5"), model.WithParam("Min", "-2"), model.WithParam("Max", "2"))
	}
	a, b := mk(), mk()
	for step := int64(0); step < 50; step++ {
		va, _ := a.eval(step)
		vb, _ := b.eval(step)
		if va.F != vb.F {
			t.Fatalf("nondeterministic at %d", step)
		}
		if va.F < -2 || va.F >= 2 {
			t.Fatalf("out of range: %g", va.F)
		}
	}
}

func TestEvalCounter(t *testing.T) {
	r := newRig(t, "Counter", "", nil,
		model.WithParam("Start", "10"), model.WithParam("Inc", "5"))
	out, _ := r.eval(0)
	if out.I != 10 {
		t.Errorf("counter@0 = %v", out)
	}
	r.update()
	out, _ = r.eval(1)
	if out.I != 15 {
		t.Errorf("counter@1 = %v", out)
	}
	// Wrap on overflow is flagged from the update.
	r.st.Vals[0] = i32(math.MaxInt32 - 2)
	res := r.update()
	if !res.Overflow {
		t.Error("counter wrap not flagged")
	}
}

// ---- math ----

func TestEvalSumSigns(t *testing.T) {
	r := newRig(t, "Sum", "+-+", []types.Kind{types.I32, types.I32, types.I32})
	out, res := r.eval(0, i32(10), i32(4), i32(1))
	if out.I != 7 || res.Any() {
		t.Errorf("10-4+1 = %v, %+v", out, res)
	}
	neg := newRig(t, "Sum", "-", []types.Kind{types.I32})
	out, _ = neg.eval(0, i32(9))
	if out.I != -9 {
		t.Errorf("-9 = %v", out)
	}
	_, res = r.eval(0, i32(math.MaxInt32), i32(-1), i32(0))
	if !res.Overflow {
		t.Error("overflow not flagged")
	}
}

func TestEvalProductDivide(t *testing.T) {
	r := newRig(t, "Product", "*/", []types.Kind{types.I32, types.I32})
	out, res := r.eval(0, i32(42), i32(6))
	if out.I != 7 || res.Any() {
		t.Errorf("42/6 = %v %+v", out, res)
	}
	out, res = r.eval(0, i32(42), i32(0))
	if out.I != 0 || !res.DivByZero {
		t.Errorf("42/0 = %v %+v", out, res)
	}
	rec := newRig(t, "Product", "/", []types.Kind{types.F64})
	out, _ = rec.eval(0, f64v(4))
	if out.F != 0.25 {
		t.Errorf("1/4 = %v", out)
	}
}

func TestEvalGainBiasAbsNeg(t *testing.T) {
	g := newRig(t, "Gain", "", []types.Kind{types.F64}, model.WithParam("Gain", "2.5"))
	if out, _ := g.eval(0, f64v(4)); out.F != 10 {
		t.Errorf("gain = %v", out)
	}
	bi := newRig(t, "Bias", "", []types.Kind{types.I32}, model.WithParam("Bias", "-3"))
	if out, _ := bi.eval(0, i32(10)); out.I != 7 {
		t.Errorf("bias = %v", out)
	}
	ab := newRig(t, "Abs", "", []types.Kind{types.I32})
	if out, _ := ab.eval(0, i32(-5)); out.I != 5 {
		t.Errorf("abs = %v", out)
	}
	um := newRig(t, "UnaryMinus", "", []types.Kind{types.F64})
	if out, _ := um.eval(0, f64v(2.5)); out.F != -2.5 {
		t.Errorf("neg = %v", out)
	}
}

func TestEvalMathOperators(t *testing.T) {
	cases := []struct {
		op   string
		in   float64
		want float64
	}{
		{"exp", 0, 1}, {"log", math.E, 1}, {"sqrt", 16, 4},
		{"sin", 0, 0}, {"cos", 0, 1}, {"tanh", 0, 0},
		{"square", 3, 9}, {"reciprocal", 4, 0.25},
	}
	for _, c := range cases {
		r := newRig(t, "Math", c.op, []types.Kind{types.F64})
		out, _ := r.eval(0, f64v(c.in))
		if math.Abs(out.F-c.want) > 1e-12 {
			t.Errorf("%s(%g) = %v, want %g", c.op, c.in, out, c.want)
		}
	}
	r := newRig(t, "Math", "log", []types.Kind{types.F64})
	if _, res := r.eval(0, f64v(-1)); !res.DomainErr {
		t.Error("log(-1) must flag domain error")
	}
}

func TestEvalMinMaxSignRounding(t *testing.T) {
	mn := newRig(t, "MinMax", "min", []types.Kind{types.F64, types.F64, types.F64})
	if out, _ := mn.eval(0, f64v(3), f64v(-1), f64v(2)); out.F != -1 {
		t.Errorf("min = %v", out)
	}
	mx := newRig(t, "MinMax", "max", []types.Kind{types.I32, types.I32})
	if out, _ := mx.eval(0, i32(3), i32(9)); out.I != 9 {
		t.Errorf("max = %v", out)
	}
	sg := newRig(t, "Sign", "", []types.Kind{types.F64})
	for in, want := range map[float64]float64{-3: -1, 0: 0, 7: 1} {
		if out, _ := sg.eval(0, f64v(in)); out.F != want {
			t.Errorf("sign(%g) = %v", in, out)
		}
	}
	fl := newRig(t, "Rounding", "floor", []types.Kind{types.F64})
	if out, _ := fl.eval(0, f64v(2.9)); out.F != 2 {
		t.Errorf("floor = %v", out)
	}
	fx := newRig(t, "Rounding", "fix", []types.Kind{types.F64})
	if out, _ := fx.eval(0, f64v(-2.9)); out.F != -2 {
		t.Errorf("fix = %v", out)
	}
}

func TestEvalPolynomialHorner(t *testing.T) {
	// Descending coefficients: 2x^2 - 3x + 1 at x=4 -> 21.
	r := newRig(t, "Polynomial", "", []types.Kind{types.F64}, model.WithParam("Coeffs", "[2 -3 1]"))
	if out, _ := r.eval(0, f64v(4)); out.F != 21 {
		t.Errorf("poly(4) = %v", out)
	}
}

func TestEvalModAndReduce(t *testing.T) {
	md := newRig(t, "Mod", "", []types.Kind{types.I32, types.I32})
	if out, _ := md.eval(0, i32(17), i32(5)); out.I != 2 {
		t.Errorf("17 mod 5 = %v", out)
	}
	if _, res := md.eval(0, i32(17), i32(0)); !res.DivByZero {
		t.Error("mod by zero must flag")
	}
	// Element reducers accept vector payloads directly (the rig's wiring
	// kinds stay scalar; Eval consumes whatever value arrives).
	vec := types.VectorVal(types.I32, i32(2), i32(3), i32(4))
	soe := newRig(t, "SumOfElements", "", []types.Kind{types.I32})
	if out, _ := soe.eval(0, vec); out.I != 9 {
		t.Errorf("sum of [2 3 4] = %v", out)
	}
	poe := newRig(t, "ProductOfElements", "", []types.Kind{types.I32})
	if out, _ := poe.eval(0, vec); out.I != 24 {
		t.Errorf("product of [2 3 4] = %v", out)
	}
	dp := newRig(t, "DotProduct", "", []types.Kind{types.I32, types.I32})
	if out, _ := dp.eval(0, vec, vec); out.I != 4+9+16 {
		t.Errorf("dot = %v", out)
	}
}

// ---- logic ----

func TestEvalLogicTruthTables(t *testing.T) {
	tt := []struct {
		op   string
		a, b bool
		want bool
	}{
		{"AND", true, true, true}, {"AND", true, false, false},
		{"OR", false, false, false}, {"OR", true, false, true},
		{"NAND", true, true, false}, {"NOR", false, false, true},
		{"XOR", true, false, true}, {"XOR", true, true, false},
		{"NXOR", true, true, true},
	}
	for _, c := range tt {
		r := newRig(t, "Logic", c.op, []types.Kind{types.Bool, types.Bool})
		out, _ := r.eval(0, bv(c.a), bv(c.b))
		if out.B != c.want {
			t.Errorf("%s(%v,%v) = %v", c.op, c.a, c.b, out.B)
		}
		if r.ec.Decision != boolToDec(c.want) {
			t.Errorf("%s decision reporting = %d", c.op, r.ec.Decision)
		}
		if len(r.ec.Conds) != 2 || r.ec.Conds[0] != c.a || r.ec.Conds[1] != c.b {
			t.Errorf("%s condition reporting = %v", c.op, r.ec.Conds)
		}
	}
	not := newRig(t, "Logic", "NOT", []types.Kind{types.Bool})
	if out, _ := not.eval(0, bv(true)); out.B {
		t.Error("NOT true = true")
	}
}

func boolToDec(b bool) int8 {
	if b {
		return 1
	}
	return 0
}

func TestEvalLogicNumericTruthiness(t *testing.T) {
	r := newRig(t, "Logic", "AND", []types.Kind{types.F64, types.I32})
	out, _ := r.eval(0, f64v(0.5), i32(3))
	if !out.B {
		t.Error("nonzero operands must be truthy")
	}
	out, _ = r.eval(0, f64v(0), i32(3))
	if out.B {
		t.Error("zero operand must be falsy")
	}
}

func TestEvalRelationalAndCompares(t *testing.T) {
	ops := map[string][3]bool{
		// results for (1,2), (2,2), (3,2)
		"==": {false, true, false},
		"~=": {true, false, true},
		"<":  {true, false, false},
		"<=": {true, true, false},
		">":  {false, false, true},
		">=": {false, true, true},
	}
	for op, wants := range ops {
		r := newRig(t, "RelationalOperator", op, []types.Kind{types.I32, types.I32})
		for i, a := range []int64{1, 2, 3} {
			out, _ := r.eval(0, i32(a), i32(2))
			if out.B != wants[i] {
				t.Errorf("%d %s 2 = %v, want %v", a, op, out.B, wants[i])
			}
		}
	}
	cz := newRig(t, "CompareToZero", ">", []types.Kind{types.F64})
	if out, _ := cz.eval(0, f64v(0.1)); !out.B {
		t.Error("0.1 > 0 failed")
	}
	cc := newRig(t, "CompareToConstant", "<=", []types.Kind{types.I32}, model.WithParam("Constant", "5"))
	if out, _ := cc.eval(0, i32(5)); !out.B {
		t.Error("5 <= 5 failed")
	}
}

func TestEvalRelationalNaN(t *testing.T) {
	nan := types.FloatVal(types.F64, math.NaN())
	eq := newRig(t, "RelationalOperator", "==", []types.Kind{types.F64, types.F64})
	if out, _ := eq.eval(0, nan, f64v(1)); out.B {
		t.Error("NaN == x must be false")
	}
	ne := newRig(t, "RelationalOperator", "~=", []types.Kind{types.F64, types.F64})
	if out, _ := ne.eval(0, nan, f64v(1)); !out.B {
		t.Error("NaN ~= x must be true")
	}
	lt := newRig(t, "RelationalOperator", "<", []types.Kind{types.F64, types.F64})
	if out, _ := lt.eval(0, nan, f64v(1)); out.B {
		t.Error("NaN < x must be false")
	}
}

func TestEvalBitwiseAndShift(t *testing.T) {
	bw := newRig(t, "BitwiseOperator", "XOR", []types.Kind{types.U8, types.U8})
	out, _ := bw.eval(0, types.UintVal(types.U8, 0b1100), types.UintVal(types.U8, 0b1010))
	if out.U != 0b0110 {
		t.Errorf("xor = %b", out.U)
	}
	nt := newRig(t, "BitwiseOperator", "NOT", []types.Kind{types.U8})
	out, _ = nt.eval(0, types.UintVal(types.U8, 0b1100))
	if out.U != 0b11110011 {
		t.Errorf("not = %b", out.U)
	}
	sh := newRig(t, "Shift", "left", []types.Kind{types.I8}, model.WithParam("Bits", "2"))
	out, res := sh.eval(0, types.IntVal(types.I8, 3))
	if out.I != 12 || res.Overflow {
		t.Errorf("3<<2 = %v %+v", out, res)
	}
	_, res = sh.eval(0, types.IntVal(types.I8, 100))
	if !res.Overflow {
		t.Error("100<<2 in i8 must flag overflow")
	}
	sr := newRig(t, "Shift", "right", []types.Kind{types.I32}, model.WithParam("Bits", "3"))
	if out, _ := sr.eval(0, i32(-64)); out.I != -8 {
		t.Errorf("-64>>3 = %v (arithmetic shift expected)", out)
	}
}

// ---- control ----

func TestEvalSwitchCriteria(t *testing.T) {
	ge := newRig(t, "Switch", ">=", []types.Kind{types.F64, types.F64, types.F64},
		model.WithParam("Threshold", "1"))
	out, _ := ge.eval(0, f64v(10), f64v(1), f64v(20))
	if out.F != 10 || ge.ec.Branch != 0 {
		t.Errorf("pass branch: %v br=%d", out, ge.ec.Branch)
	}
	out, _ = ge.eval(0, f64v(10), f64v(0.5), f64v(20))
	if out.F != 20 || ge.ec.Branch != 1 {
		t.Errorf("else branch: %v br=%d", out, ge.ec.Branch)
	}
	nz := newRig(t, "Switch", "~=0", []types.Kind{types.F64, types.I32, types.F64})
	if out, _ := nz.eval(0, f64v(1), i32(0), f64v(2)); out.F != 2 {
		t.Errorf("~=0 false: %v", out)
	}
}

func TestEvalMultiportSwitchAndIf(t *testing.T) {
	m := newRig(t, "MultiportSwitch", "", []types.Kind{types.I32, types.F64, types.F64, types.F64})
	out, res := m.eval(0, i32(2), f64v(10), f64v(20), f64v(30))
	if out.F != 20 || res.Any() || m.ec.Branch != 1 {
		t.Errorf("mps(2) = %v %+v br=%d", out, res, m.ec.Branch)
	}
	out, res = m.eval(0, i32(9), f64v(10), f64v(20), f64v(30))
	if out.F != 30 || !res.OutOfRange {
		t.Errorf("mps(9) clamps to last: %v %+v", out, res)
	}
	out, res = m.eval(0, i32(0), f64v(10), f64v(20), f64v(30))
	if out.F != 10 || !res.OutOfRange {
		t.Errorf("mps(0) clamps to first: %v %+v", out, res)
	}
	iff := newRig(t, "If", "", []types.Kind{types.Bool, types.F64, types.F64})
	if out, _ := iff.eval(0, bv(true), f64v(1), f64v(2)); out.F != 1 {
		t.Errorf("if true = %v", out)
	}
	if out, _ := iff.eval(0, bv(false), f64v(1), f64v(2)); out.F != 2 {
		t.Errorf("if false = %v", out)
	}
}

func TestEvalRelayHysteresis(t *testing.T) {
	r := newRig(t, "Relay", "", []types.Kind{types.F64},
		model.WithParam("OnPoint", "2"), model.WithParam("OffPoint", "-2"),
		model.WithParam("OnValue", "10"), model.WithParam("OffValue", "0"))
	seq := []struct {
		in   float64
		want float64
	}{
		{0, 0},   // starts off; between points holds off
		{3, 10},  // crosses on point
		{0, 10},  // holds on within the band
		{-3, 0},  // crosses off point
		{1.9, 0}, // holds off
	}
	for i, s := range seq {
		out, _ := r.eval(int64(i), f64v(s.in))
		if out.F != s.want {
			t.Errorf("relay step %d in %g = %v, want %g", i, s.in, out, s.want)
		}
	}
}

func TestEvalSaturationDeadZoneQuantizer(t *testing.T) {
	sat := newRig(t, "Saturation", "", []types.Kind{types.F64},
		model.WithParam("Min", "-1"), model.WithParam("Max", "1"))
	for in, want := range map[float64]float64{-5: -1, 0.5: 0.5, 5: 1} {
		out, _ := sat.eval(0, f64v(in))
		if out.F != want {
			t.Errorf("sat(%g) = %v", in, out)
		}
	}
	if _, _ = sat.eval(0, f64v(9)); sat.ec.Branch != 2 {
		t.Errorf("sat high branch = %d", sat.ec.Branch)
	}
	dz := newRig(t, "DeadZone", "", []types.Kind{types.F64},
		model.WithParam("Start", "-1"), model.WithParam("End", "1"))
	for in, want := range map[float64]float64{-3: -2, 0: 0, 0.9: 0, 4: 3} {
		out, _ := dz.eval(0, f64v(in))
		if out.F != want {
			t.Errorf("dz(%g) = %v, want %g", in, out, want)
		}
	}
	qz := newRig(t, "Quantizer", "", []types.Kind{types.F64}, model.WithParam("Interval", "0.5"))
	if out, _ := qz.eval(0, f64v(1.3)); out.F != 1.5 {
		t.Errorf("quantize(1.3) = %v", out)
	}
}

func TestEvalMergeHoldsLast(t *testing.T) {
	r := newRig(t, "Merge", "", []types.Kind{types.F64, types.F64})
	out, _ := r.eval(0, f64v(0), f64v(7))
	if out.F != 7 {
		t.Errorf("merge picks nonzero: %v", out)
	}
	out, _ = r.eval(1, f64v(0), f64v(0))
	if out.F != 7 {
		t.Errorf("merge holds last: %v", out)
	}
	out, _ = r.eval(2, f64v(3), f64v(9))
	if out.F != 3 {
		t.Errorf("merge prefers first nonzero: %v", out)
	}
}

// ---- discrete ----

func TestEvalUnitDelayAndMemory(t *testing.T) {
	for _, typ := range []model.ActorType{"UnitDelay", "Memory"} {
		r := newRig(t, typ, "", []types.Kind{types.I32}, model.WithParam("InitialCondition", "99"))
		out, _ := r.eval(0, i32(1))
		if out.I != 99 {
			t.Errorf("%s initial = %v", typ, out)
		}
		r.update(i32(5))
		out, _ = r.eval(1, i32(7))
		if out.I != 5 {
			t.Errorf("%s delayed = %v", typ, out)
		}
	}
}

func TestEvalDelayRing(t *testing.T) {
	r := newRig(t, "Delay", "", []types.Kind{types.I32},
		model.WithParam("DelayLength", "3"), model.WithParam("InitialCondition", "-1"))
	ins := []int64{10, 20, 30, 40, 50}
	wants := []int64{-1, -1, -1, 10, 20}
	for i := range ins {
		out, _ := r.eval(int64(i), i32(ins[i]))
		if out.I != wants[i] {
			t.Errorf("delay@%d = %v, want %d", i, out, wants[i])
		}
		r.update(i32(ins[i]))
	}
}

func TestEvalDiscreteIntegratorDerivativeFilter(t *testing.T) {
	ig := newRig(t, "DiscreteIntegrator", "", []types.Kind{types.F64},
		model.WithParam("Gain", "0.5"), model.WithParam("InitialCondition", "1"))
	out, _ := ig.eval(0, f64v(4))
	if out.F != 1 {
		t.Errorf("integrator initial = %v", out)
	}
	ig.update(f64v(4))
	out, _ = ig.eval(1, f64v(4))
	if out.F != 3 { // 1 + 0.5*4
		t.Errorf("integrator after update = %v", out)
	}
	dd := newRig(t, "DiscreteDerivative", "", []types.Kind{types.F64}, model.WithParam("Gain", "2"))
	out, _ = dd.eval(0, f64v(3))
	if out.F != 6 { // 2*(3-0)
		t.Errorf("derivative = %v", out)
	}
	dd.update(f64v(3))
	out, _ = dd.eval(1, f64v(5))
	if out.F != 4 { // 2*(5-3)
		t.Errorf("derivative after update = %v", out)
	}
	fl := newRig(t, "DiscreteFilter", "", []types.Kind{types.F64},
		model.WithParam("A", "0.5"), model.WithParam("B", "0.5"))
	out, _ = fl.eval(0, f64v(8))
	if out.F != 4 { // 0.5*0 + 0.5*8
		t.Errorf("filter = %v", out)
	}
	fl.update(f64v(8))
	out, _ = fl.eval(1, f64v(8))
	if out.F != 6 { // 0.5*4 + 0.5*8
		t.Errorf("filter step 2 = %v", out)
	}
}

func TestEvalZOHAndRateLimiter(t *testing.T) {
	z := newRig(t, "ZeroOrderHold", "", []types.Kind{types.F64}, model.WithParam("SampleSteps", "3"))
	wants := []float64{10, 10, 10, 40, 40}
	for i, in := range []float64{10, 20, 30, 40, 50} {
		out, _ := z.eval(int64(i), f64v(in))
		if out.F != wants[i] {
			t.Errorf("zoh@%d = %v, want %g", i, out, wants[i])
		}
	}
	rl := newRig(t, "RateLimiter", "", []types.Kind{types.F64},
		model.WithParam("RisingLimit", "1"), model.WithParam("FallingLimit", "2"))
	out, _ := rl.eval(0, f64v(10))
	if out.F != 1 { // rise limited from 0
		t.Errorf("rl rise = %v", out)
	}
	rl.update(f64v(10))
	out, _ = rl.eval(1, f64v(-10))
	if out.F != -1 { // fall limited from 1 by 2
		t.Errorf("rl fall = %v", out)
	}
}

// ---- routing & lookup ----

func TestEvalDataTypeConversion(t *testing.T) {
	r := newRig(t, "DataTypeConversion", "", []types.Kind{types.F64}, model.WithOutKind(types.I16))
	out, res := r.eval(0, f64v(3.75))
	if out.I != 3 || !res.PrecisionLoss {
		t.Errorf("3.75 -> i16 = %v %+v", out, res)
	}
	out, res = r.eval(0, f64v(70000))
	if !res.OutOfRange {
		t.Errorf("70000 -> i16 must flag out of range, got %v %+v", out, res)
	}
}

func TestEvalDataStoreReadWrite(t *testing.T) {
	// The rig's DS stub stores i32.
	w := newRig(t, "DataStoreWrite", "", []types.Kind{types.I32}, model.WithParam("Store", "q"))
	w.eval(0, i32(41))
	if w.ds["q"].I != 41 {
		t.Errorf("store = %v", w.ds["q"])
	}
	rd := newRig(t, "DataStoreRead", "", nil, model.WithParam("Store", "q"), model.WithOutKind(types.I32))
	rd.ds["q"] = i32(7)
	out, _ := rd.eval(0)
	if out.I != 7 {
		t.Errorf("read = %v", out)
	}
}

func TestEvalLookup1DInterpolation(t *testing.T) {
	r := newRig(t, "Lookup1D", "", []types.Kind{types.F64},
		model.WithParam("BreakPoints", "[0 10 20]"), model.WithParam("Table", "[0 100 400]"))
	cases := map[float64]float64{
		-5: 0, 0: 0, 5: 50, 10: 100, 15: 250, 20: 400, 99: 400,
	}
	for in, want := range cases {
		out, _ := r.eval(0, f64v(in))
		if out.F != want {
			t.Errorf("lut(%g) = %v, want %g", in, out, want)
		}
	}
}

func TestEvalLookupDirectClamping(t *testing.T) {
	r := newRig(t, "LookupDirect", "", []types.Kind{types.I32},
		model.WithParam("Table", "[10 20 30]"), model.WithOutKind(types.I32))
	out, res := r.eval(0, i32(2))
	if out.I != 20 || res.Any() {
		t.Errorf("lut[2] = %v %+v", out, res)
	}
	out, res = r.eval(0, i32(5))
	if out.I != 30 || !res.OutOfRange {
		t.Errorf("lut[5] = %v %+v (clamp + flag expected)", out, res)
	}
	out, res = r.eval(0, i32(0))
	if out.I != 10 || !res.OutOfRange {
		t.Errorf("lut[0] = %v %+v", out, res)
	}
}
