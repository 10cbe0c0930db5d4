package actors

import (
	"fmt"
	"math"

	"accmos/internal/types"
)

// Source actors: signal producers with no data inputs. Floating-point
// sources compute in float64 and convert to the output kind through the
// exact same path as types.Convert so the interpreter and generated code
// agree bit-for-bit.

func init() {
	registerConstant()
	registerInport()
	registerGround()
	registerStep()
	registerRamp()
	registerClock()
	registerSineWave()
	registerPulseGenerator()
	registerSignalGenerator()
	registerRandomNumber()
	registerCounter()
}

func registerConstant() {
	register(&Spec{
		Type: "Constant", MinIn: 0, MaxIn: 0, NumOut: 1,
		OutKind: func(*Info) types.Kind { return types.F64 },
		Prepare: func(in *Info) error {
			v, err := paramValue(in, "Value", in.OutKind(), "0")
			if err != nil {
				return err
			}
			if v.Width() != in.OutWidth() && in.OutWidth() > 1 {
				return fmt.Errorf("Constant value width %d != output width %d", v.Width(), in.OutWidth())
			}
			in.Aux = v
			return nil
		},
		Eval: func(ec *EvalCtx) { ec.SetOut(ec.Info.Aux.(types.Value)) },
		Gen: func(gc *GenCtx) error {
			v := gc.Info.Aux.(types.Value)
			gc.L("%s = %s", gc.Out[0], v.GoLiteral())
			if v.Kind.IsFloat() && needsMathImport(v) {
				gc.Prog.Import("math")
			}
			return nil
		},
	})
}

func needsMathImport(v types.Value) bool {
	check := func(f float64) bool { return math.IsNaN(f) || math.IsInf(f, 0) }
	if v.Elems != nil {
		for _, e := range v.Elems {
			if check(e.F) {
				return true
			}
		}
		return false
	}
	return check(v.F)
}

func registerInport() {
	register(&Spec{
		Type: "Inport", MinIn: 0, MaxIn: 0, NumOut: 1,
		ScalarOnly: true,
		OutKind:    func(*Info) types.Kind { return types.F64 },
		Eval: func(ec *EvalCtx) {
			ec.convertOut(ec.ExternalIn)
		},
		Gen: func(gc *GenCtx) error {
			gc.L("%s = %s", gc.Out[0], gc.Prog.ExternalInput(gc.Info))
			return nil
		},
	})
}

func registerGround() {
	register(&Spec{
		Type: "Ground", MinIn: 0, MaxIn: 0, NumOut: 1,
		OutKind: func(*Info) types.Kind { return types.F64 },
		Eval: func(ec *EvalCtx) {
			ec.SetOut(types.ZeroVector(ec.Info.OutKind(), ec.Info.OutWidth()))
		},
		Gen: func(gc *GenCtx) error {
			gc.ForEachOut(func(ix string) {
				gc.L("%s = %s", gc.OutElem(0, ix), GoZero(gc.Info.OutKind()))
			})
			return nil
		},
	})
}

// stepAux holds Step parameters.
type stepAux struct {
	stepTime      int64
	before, after float64
}

func registerStep() {
	register(&Spec{
		Type: "Step", MinIn: 0, MaxIn: 0, NumOut: 1,
		ScalarOnly: true,
		OutKind:    func(*Info) types.Kind { return types.F64 },
		Prepare: func(in *Info) error {
			st, err := paramI64(in, "StepTime", 10)
			if err != nil {
				return err
			}
			before, err := paramF64(in, "Before", 0)
			if err != nil {
				return err
			}
			after, err := paramF64(in, "After", 1)
			if err != nil {
				return err
			}
			in.Aux = stepAux{st, before, after}
			return nil
		},
		Eval: func(ec *EvalCtx) {
			a := ec.Info.Aux.(stepAux)
			f := a.before
			if ec.Step >= a.stepTime {
				f = a.after
			}
			ec.convertOut(types.FloatVal(types.F64, f))
		},
		Gen: func(gc *GenCtx) error {
			a := gc.Info.Aux.(stepAux)
			k := gc.Info.OutKind()
			gc.Block(fmt.Sprintf("if step >= %d", a.stepTime), func() {
				gc.L("%s = %s", gc.Out[0], Cast(f64Lit(a.after), types.F64, k))
			})
			gc.Block("else", func() {
				gc.L("%s = %s", gc.Out[0], Cast(f64Lit(a.before), types.F64, k))
			})
			return nil
		},
	})
}

// rampAux holds Ramp parameters.
type rampAux struct{ start, slope float64 }

func registerRamp() {
	register(&Spec{
		Type: "Ramp", MinIn: 0, MaxIn: 0, NumOut: 1,
		ScalarOnly: true,
		OutKind:    func(*Info) types.Kind { return types.F64 },
		Prepare: func(in *Info) error {
			start, err := paramF64(in, "Start", 0)
			if err != nil {
				return err
			}
			slope, err := paramF64(in, "Slope", 1)
			if err != nil {
				return err
			}
			in.Aux = rampAux{start, slope}
			return nil
		},
		Eval: func(ec *EvalCtx) {
			a := ec.Info.Aux.(rampAux)
			f := a.start + a.slope*float64(ec.Step)
			ec.convertOut(types.FloatVal(types.F64, f))
		},
		Gen: func(gc *GenCtx) error {
			a := gc.Info.Aux.(rampAux)
			expr := fmt.Sprintf("(%s + %s*float64(step))", f64Lit(a.start), f64Lit(a.slope))
			gc.L("%s = %s", gc.Out[0], Cast(expr, types.F64, gc.Info.OutKind()))
			return nil
		},
	})
}

func registerClock() {
	register(&Spec{
		Type: "Clock", MinIn: 0, MaxIn: 0, NumOut: 1,
		ScalarOnly: true,
		OutKind:    func(*Info) types.Kind { return types.F64 },
		Prepare: func(in *Info) error {
			st, err := paramF64(in, "SampleTime", 1)
			if err != nil {
				return err
			}
			in.Aux = st
			return nil
		},
		Eval: func(ec *EvalCtx) {
			st := ec.Info.Aux.(float64)
			ec.convertOut(types.FloatVal(types.F64, float64(ec.Step)*st))
		},
		Gen: func(gc *GenCtx) error {
			st := gc.Info.Aux.(float64)
			expr := fmt.Sprintf("(float64(step) * %s)", f64Lit(st))
			gc.L("%s = %s", gc.Out[0], Cast(expr, types.F64, gc.Info.OutKind()))
			return nil
		},
	})
}

// sineAux holds SineWave parameters.
type sineAux struct{ amp, freq, phase, bias float64 }

func registerSineWave() {
	register(&Spec{
		Type: "SineWave", MinIn: 0, MaxIn: 0, NumOut: 1,
		ScalarOnly: true,
		OutKind:    func(*Info) types.Kind { return types.F64 },
		Prepare: func(in *Info) error {
			amp, err := paramF64(in, "Amplitude", 1)
			if err != nil {
				return err
			}
			freq, err := paramF64(in, "Frequency", 0.1)
			if err != nil {
				return err
			}
			phase, err := paramF64(in, "Phase", 0)
			if err != nil {
				return err
			}
			bias, err := paramF64(in, "Bias", 0)
			if err != nil {
				return err
			}
			in.Aux = sineAux{amp, freq, phase, bias}
			return nil
		},
		Eval: func(ec *EvalCtx) {
			a := ec.Info.Aux.(sineAux)
			f := a.amp*math.Sin(a.freq*float64(ec.Step)+a.phase) + a.bias
			ec.convertOut(types.FloatVal(types.F64, f))
		},
		Gen: func(gc *GenCtx) error {
			a := gc.Info.Aux.(sineAux)
			gc.Prog.Import("math")
			expr := fmt.Sprintf("(%s*math.Sin(%s*float64(step)+%s) + %s)",
				f64Lit(a.amp), f64Lit(a.freq), f64Lit(a.phase), f64Lit(a.bias))
			gc.L("%s = %s", gc.Out[0], Cast(expr, types.F64, gc.Info.OutKind()))
			return nil
		},
	})
}

// pulseAux holds PulseGenerator parameters.
type pulseAux struct {
	period, width int64
	amp           float64
}

func registerPulseGenerator() {
	register(&Spec{
		Type: "PulseGenerator", MinIn: 0, MaxIn: 0, NumOut: 1,
		ScalarOnly: true,
		OutKind:    func(*Info) types.Kind { return types.F64 },
		Prepare: func(in *Info) error {
			period, err := paramI64(in, "Period", 10)
			if err != nil {
				return err
			}
			if period <= 0 {
				return fmt.Errorf("PulseGenerator Period must be positive, got %d", period)
			}
			width, err := paramI64(in, "Width", (period+1)/2)
			if err != nil {
				return err
			}
			amp, err := paramF64(in, "Amplitude", 1)
			if err != nil {
				return err
			}
			in.Aux = pulseAux{period, width, amp}
			return nil
		},
		Eval: func(ec *EvalCtx) {
			a := ec.Info.Aux.(pulseAux)
			f := 0.0
			if ec.Step%a.period < a.width {
				f = a.amp
			}
			ec.convertOut(types.FloatVal(types.F64, f))
		},
		Gen: func(gc *GenCtx) error {
			a := gc.Info.Aux.(pulseAux)
			k := gc.Info.OutKind()
			gc.Block(fmt.Sprintf("if step%%%d < %d", a.period, a.width), func() {
				gc.L("%s = %s", gc.Out[0], Cast(f64Lit(a.amp), types.F64, k))
			})
			gc.Block("else", func() {
				gc.L("%s = %s", gc.Out[0], Cast("0.0", types.F64, k))
			})
			return nil
		},
	})
}

// sigGenAux holds SignalGenerator parameters.
type sigGenAux struct {
	period int64
	amp    float64
}

func registerSignalGenerator() {
	register(&Spec{
		Type: "SignalGenerator", MinIn: 0, MaxIn: 0, NumOut: 1,
		ScalarOnly:      true,
		Operators:       []string{"sine", "square", "sawtooth"},
		DefaultOperator: "sine",
		OutKind:         func(*Info) types.Kind { return types.F64 },
		Prepare: func(in *Info) error {
			period, err := paramI64(in, "Period", 100)
			if err != nil {
				return err
			}
			if period <= 0 {
				return fmt.Errorf("SignalGenerator Period must be positive, got %d", period)
			}
			amp, err := paramF64(in, "Amplitude", 1)
			if err != nil {
				return err
			}
			in.Aux = sigGenAux{period, amp}
			return nil
		},
		Eval: func(ec *EvalCtx) {
			a := ec.Info.Aux.(sigGenAux)
			var f float64
			switch ec.Info.Operator {
			case "sine":
				f = a.amp * math.Sin(2*math.Pi*float64(ec.Step%a.period)/float64(a.period))
			case "square":
				if ec.Step%a.period < a.period/2 {
					f = a.amp
				} else {
					f = -a.amp
				}
			case "sawtooth":
				f = a.amp * float64(ec.Step%a.period) / float64(a.period)
			}
			ec.convertOut(types.FloatVal(types.F64, f))
		},
		Gen: func(gc *GenCtx) error {
			a := gc.Info.Aux.(sigGenAux)
			k := gc.Info.OutKind()
			switch gc.Info.Operator {
			case "sine":
				gc.Prog.Import("math")
				expr := fmt.Sprintf("(%s * math.Sin(2*math.Pi*float64(step%%%d)/float64(%d)))",
					f64Lit(a.amp), a.period, a.period)
				gc.L("%s = %s", gc.Out[0], Cast(expr, types.F64, k))
			case "square":
				gc.Block(fmt.Sprintf("if step%%%d < %d", a.period, a.period/2), func() {
					gc.L("%s = %s", gc.Out[0], Cast(f64Lit(a.amp), types.F64, k))
				})
				gc.Block("else", func() {
					gc.L("%s = %s", gc.Out[0], Cast(f64Lit(-a.amp), types.F64, k))
				})
			case "sawtooth":
				expr := fmt.Sprintf("(%s * float64(step%%%d) / float64(%d))", f64Lit(a.amp), a.period, a.period)
				gc.L("%s = %s", gc.Out[0], Cast(expr, types.F64, k))
			}
			return nil
		},
	})
}

// LCG constants shared between the interpreter and generated code. The
// generator is Knuth's MMIX linear congruential generator; the top 53 bits
// feed the float mantissa.
const (
	LCGMul = 6364136223846793005
	LCGInc = 1442695040888963407
)

// LCGNext advances an LCG state.
func LCGNext(s uint64) uint64 { return s*LCGMul + LCGInc }

// LCGFloat maps an LCG state to [0,1) exactly as the generated code does.
func LCGFloat(s uint64) float64 { return float64(s>>11) / 9007199254740992.0 }

// randAux holds RandomNumber parameters.
type randAux struct {
	seed     uint64
	min, max float64
}

func registerRandomNumber() {
	register(&Spec{
		Type: "RandomNumber", MinIn: 0, MaxIn: 0, NumOut: 1,
		ScalarOnly: true,
		OutKind:    func(*Info) types.Kind { return types.F64 },
		Prepare: func(in *Info) error {
			seed, err := paramI64(in, "Seed", 1)
			if err != nil {
				return err
			}
			lo, err := paramF64(in, "Min", 0)
			if err != nil {
				return err
			}
			hi, err := paramF64(in, "Max", 1)
			if err != nil {
				return err
			}
			in.Aux = randAux{uint64(seed), lo, hi}
			return nil
		},
		Init: func(in *Info, st *State) { st.Seed = in.Aux.(randAux).seed },
		Eval: func(ec *EvalCtx) {
			a := ec.Info.Aux.(randAux)
			ec.State.Seed = LCGNext(ec.State.Seed)
			f := LCGFloat(ec.State.Seed)*(a.max-a.min) + a.min
			ec.convertOut(types.FloatVal(types.F64, f))
		},
		Gen: func(gc *GenCtx) error {
			a := gc.Info.Aux.(randAux)
			sv := gc.V("seed")
			gc.Prog.Global(fmt.Sprintf("var %s uint64", sv))
			gc.Prog.InitStmt(fmt.Sprintf("%s = %d", sv, a.seed))
			gc.L("%s = %s*%d + %d", sv, sv, uint64(LCGMul), uint64(LCGInc))
			// Typed bounds subtract in float64, as Eval does.
			expr := fmt.Sprintf("(float64(%s>>11)/9007199254740992.0*(float64(%s)-float64(%s)) + (%s))",
				sv, f64Lit(a.max), f64Lit(a.min), f64Lit(a.min))
			gc.L("%s = %s", gc.Out[0], Cast(expr, types.F64, gc.Info.OutKind()))
			return nil
		},
	})
}

// counterAux holds Counter parameters (values in the output kind).
type counterAux struct{ start, inc types.Value }

func registerCounter() {
	register(&Spec{
		Type: "Counter", MinIn: 0, MaxIn: 0, NumOut: 1,
		ScalarOnly: true,
		Stateful:   true,
		OutKind:    func(*Info) types.Kind { return types.I32 },
		Prepare: func(in *Info) error {
			start, err := paramValue(in, "Start", in.OutKind(), "0")
			if err != nil {
				return err
			}
			inc, err := paramValue(in, "Inc", in.OutKind(), "1")
			if err != nil {
				return err
			}
			in.Aux = counterAux{start, inc}
			return nil
		},
		Init: func(in *Info, st *State) {
			st.Vals = []types.Value{in.Aux.(counterAux).start}
		},
		Eval: func(ec *EvalCtx) { ec.SetOut(ec.State.Vals[0]) },
		Update: func(ec *EvalCtx) {
			a := ec.Info.Aux.(counterAux)
			next, res := types.Add(ec.Info.OutKind(), ec.State.Vals[0], a.inc)
			ec.Flags.Merge(res)
			ec.State.Vals[0] = next
		},
		Gen: func(gc *GenCtx) error {
			a := gc.Info.Aux.(counterAux)
			k := gc.Info.OutKind()
			sv := gc.V("count")
			gc.Prog.Global(fmt.Sprintf("var %s %s", sv, k.GoType()))
			gc.Prog.InitStmt(fmt.Sprintf("%s = %s", sv, a.start.GoLiteral()))
			gc.L("%s = %s", gc.Out[0], sv)
			slot := gc.Prog.DiagSlot(gc.Info, "WrapOnOverflow")
			switch {
			case k.IsInteger() && slot >= 0:
				stmts := append([]string{"ovf := false", fmt.Sprintf("var next %s", k.GoType())},
					CheckedAddStmts(k, "next", sv, a.inc.GoLiteral(), "ovf")...)
				stmts = append(stmts,
					fmt.Sprintf("if ovf { reportDiag(%d, step, \"\") }", slot),
					fmt.Sprintf("%s = next", sv))
				gc.Prog.UpdateStmt("{ " + joinStmts(stmts) + " }")
			case k.IsFloat():
				next := Cast(fmt.Sprintf("(float64(%s) + float64(%s))", sv, a.inc.GoLiteral()), types.F64, k)
				if nanSlot := gc.Prog.DiagSlot(gc.Info, "NaNOrInf"); nanSlot >= 0 {
					gc.Prog.UpdateStmt(fmt.Sprintf(
						"{ next := %s; if %s { reportDiag(%d, step, \"\") }; %s = next }",
						next, NaNOrInfCond("next"), nanSlot, sv))
					break
				}
				gc.Prog.UpdateStmt(fmt.Sprintf("%s = %s", sv, next))
			default:
				gc.Prog.UpdateStmt(fmt.Sprintf("%s += %s", sv, a.inc.GoLiteral()))
			}
			return nil
		},
	})
}
