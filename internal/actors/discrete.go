package actors

import (
	"fmt"

	"accmos/internal/model"
	"accmos/internal/types"
)

// Discrete actors: blocks with per-step state. Stateful (non-feedthrough)
// blocks output previous state during Eval and commit the new state in
// Update, which every engine runs after the full Eval pass — exactly the
// delayed-assignment semantics Simulink gives UnitDelay and friends.

func init() {
	registerUnitDelayLike("UnitDelay")
	registerUnitDelayLike("Memory")
	registerDelay()
	registerDiscreteIntegrator()
	registerDiscreteDerivative()
	registerDiscreteFilter()
	registerZeroOrderHold()
	registerRateLimiter()
}

func registerUnitDelayLike(name string) {
	register(&Spec{
		Type: model.ActorType(name), MinIn: 1, MaxIn: 1, NumOut: 1,
		Stateful: true,
		OutKind:  func(in *Info) types.Kind { return in.InKinds[0] },
		OutWidth: maxInWidth,
		Prepare: func(in *Info) error {
			ic, err := paramValue(in, "InitialCondition", in.OutKind(), "0")
			if err != nil {
				return err
			}
			in.Aux = ic
			return nil
		},
		Init: func(in *Info, st *State) {
			st.Vals = []types.Value{in.Aux.(types.Value)}
		},
		Eval: func(ec *EvalCtx) { ec.SetOut(ec.State.Vals[0]) },
		Update: func(ec *EvalCtx) {
			v, cr := types.Convert(ec.In[0], ec.Info.OutKind())
			ec.Flags.OutOfRange = ec.Flags.OutOfRange || cr.OutOfRange
			ec.Flags.PrecisionLoss = ec.Flags.PrecisionLoss || cr.PrecisionLoss
			ec.State.Vals[0] = v
		},
		Gen: func(gc *GenCtx) error {
			k := gc.Info.OutKind()
			ic := gc.Info.Aux.(types.Value)
			sv := gc.V("state")
			gc.Prog.Global(fmt.Sprintf("var %s %s", sv, GoVarType(k, gc.Info.OutWidth())))
			gc.Prog.InitStmt(fmt.Sprintf("%s = %s", sv, initLiteral(ic, k, gc.Info.OutWidth())))
			gc.L("%s = %s", gc.Out[0], sv)
			if gc.Info.OutWidth() > 1 {
				gc.Prog.UpdateStmt(fmt.Sprintf("for i := 0; i < %d; i++ { %s[i] = %s }",
					gc.Info.OutWidth(), sv, Cast(gc.In[0]+"[i]", gc.Info.InKinds[0], k)))
			} else {
				gc.Prog.UpdateStmt(fmt.Sprintf("%s = %s", sv, Cast(gc.In[0], gc.Info.InKinds[0], k)))
			}
			return nil
		},
	})
}

// initLiteral renders an initial-condition literal, broadcasting scalars to
// vector widths.
func initLiteral(v types.Value, k types.Kind, width int) string {
	if width <= 1 || v.IsVector() {
		return v.GoLiteral()
	}
	vec := types.Value{Kind: k, Elems: make([]types.Value, width)}
	for i := range vec.Elems {
		vec.Elems[i] = v
	}
	return vec.GoLiteral()
}

func registerDelay() {
	register(&Spec{
		Type: "Delay", MinIn: 1, MaxIn: 1, NumOut: 1,
		ScalarOnly: true,
		Stateful:   true,
		OutKind:    func(in *Info) types.Kind { return in.InKinds[0] },
		Prepare: func(in *Info) error {
			n, err := paramI64(in, "DelayLength", 1)
			if err != nil {
				return err
			}
			if n < 1 || n > 1<<20 {
				return fmt.Errorf("Delay DelayLength=%d out of range", n)
			}
			ic, err := paramValue(in, "InitialCondition", in.OutKind(), "0")
			if err != nil {
				return err
			}
			in.Aux = [2]interface{}{n, ic}
			return nil
		},
		Init: func(in *Info, st *State) {
			aux := in.Aux.([2]interface{})
			n := aux[0].(int64)
			ic := aux[1].(types.Value)
			st.Ring = make([]types.Value, n)
			for i := range st.Ring {
				st.Ring[i] = ic
			}
			st.Pos = 0
		},
		Eval: func(ec *EvalCtx) { ec.SetOut(ec.State.Ring[ec.State.Pos]) },
		Update: func(ec *EvalCtx) {
			v, cr := types.Convert(ec.In[0], ec.Info.OutKind())
			ec.Flags.OutOfRange = ec.Flags.OutOfRange || cr.OutOfRange
			ec.State.Ring[ec.State.Pos] = v
			ec.State.Pos = (ec.State.Pos + 1) % len(ec.State.Ring)
		},
		Gen: func(gc *GenCtx) error {
			aux := gc.Info.Aux.([2]interface{})
			n := aux[0].(int64)
			ic := aux[1].(types.Value)
			k := gc.Info.OutKind()
			buf, pos := gc.V("ring"), gc.V("pos")
			gc.Prog.Global(fmt.Sprintf("var %s [%d]%s", buf, n, k.GoType()))
			gc.Prog.Global(fmt.Sprintf("var %s int", pos))
			gc.Prog.InitStmt(fmt.Sprintf("for i := range %s { %s[i] = %s }", buf, buf, ic.GoLiteral()))
			gc.Prog.InitStmt(fmt.Sprintf("%s = 0", pos))
			gc.L("%s = %s[%s]", gc.Out[0], buf, pos)
			gc.Prog.UpdateStmt(fmt.Sprintf("%s[%s] = %s", buf, pos, Cast(gc.In[0], gc.Info.InKinds[0], k)))
			gc.Prog.UpdateStmt(fmt.Sprintf("%s = (%s + 1) %% %d", pos, pos, n))
			return nil
		},
	})
}

func registerDiscreteIntegrator() {
	register(&Spec{
		Type: "DiscreteIntegrator", MinIn: 1, MaxIn: 1, NumOut: 1,
		ScalarOnly: true,
		Stateful:   true,
		OutKind:    func(in *Info) types.Kind { return in.InKinds[0] },
		Prepare: func(in *Info) error {
			ic, err := paramValue(in, "InitialCondition", in.OutKind(), "0")
			if err != nil {
				return err
			}
			gain, err := paramValue(in, "Gain", in.OutKind(), "1")
			if err != nil {
				return err
			}
			in.Aux = [2]types.Value{ic, gain}
			return nil
		},
		Init: func(in *Info, st *State) {
			st.Vals = []types.Value{in.Aux.([2]types.Value)[0]}
		},
		Eval: func(ec *EvalCtx) { ec.SetOut(ec.State.Vals[0]) },
		Update: func(ec *EvalCtx) {
			// Forward Euler: state += K * u. Long-horizon integer
			// accumulation here is the paper's archetypal wrap-on-overflow
			// site.
			k := ec.Info.OutKind()
			gain := ec.Info.Aux.([2]types.Value)[1]
			inc, r1 := types.Mul(k, gain, ec.In[0])
			next, r2 := types.Add(k, ec.State.Vals[0], inc)
			ec.Flags.Merge(r1)
			ec.Flags.Merge(r2)
			ec.State.Vals[0] = next
		},
		Gen: func(gc *GenCtx) error {
			aux := gc.Info.Aux.([2]types.Value)
			k := gc.Info.OutKind()
			sv := gc.V("acc")
			gc.Prog.Global(fmt.Sprintf("var %s %s", sv, k.GoType()))
			gc.Prog.InitStmt(fmt.Sprintf("%s = %s", sv, aux[0].GoLiteral()))
			gc.L("%s = %s", gc.Out[0], sv)
			u := Cast(gc.In[0], gc.Info.InKinds[0], k)
			slot := gc.Prog.DiagSlot(gc.Info, "WrapOnOverflow")
			if k.IsInteger() && slot >= 0 {
				stmts := []string{
					"ovf := false",
					fmt.Sprintf("var inc %s", k.GoType()),
					fmt.Sprintf("var next %s", k.GoType()),
				}
				stmts = append(stmts, CheckedMulStmts(k, "inc", aux[1].GoLiteral(), u, "ovf", gc.V("di"))...)
				stmts = append(stmts, CheckedAddStmts(k, "next", sv, "inc", "ovf")...)
				stmts = append(stmts,
					fmt.Sprintf("if ovf { reportDiag(%d, step, \"\") }", slot),
					fmt.Sprintf("%s = next", sv))
				gc.Prog.UpdateStmt("{ " + joinStmts(stmts) + " }")
				return nil
			}
			inc := binExpr(k, aux[1].GoLiteral(), "*", u)
			next := binExpr(k, sv, "+", inc)
			if nanSlot := gc.Prog.DiagSlot(gc.Info, "NaNOrInf"); k.IsFloat() && nanSlot >= 0 {
				gc.Prog.UpdateStmt(fmt.Sprintf(
					"{ next := %s; if %s { reportDiag(%d, step, \"\") }; %s = next }",
					next, NaNOrInfCond("next"), nanSlot, sv))
				return nil
			}
			gc.Prog.UpdateStmt(fmt.Sprintf("%s = %s", sv, next))
			return nil
		},
	})
}

func registerDiscreteDerivative() {
	register(&Spec{
		Type: "DiscreteDerivative", MinIn: 1, MaxIn: 1, NumOut: 1,
		ScalarOnly: true,
		OutKind:    func(in *Info) types.Kind { return in.InKinds[0] },
		Prepare: func(in *Info) error {
			gain, err := paramValue(in, "Gain", in.OutKind(), "1")
			if err != nil {
				return err
			}
			in.Aux = gain
			return nil
		},
		Init: func(in *Info, st *State) {
			st.Vals = []types.Value{types.Zero(in.OutKind())}
		},
		Eval: func(ec *EvalCtx) {
			// y = K * (u - u_prev); feedthrough with internal state.
			k := ec.Info.OutKind()
			gain := ec.Info.Aux.(types.Value)
			diff, r1 := types.Sub(k, ec.In[0], ec.State.Vals[0])
			out, r2 := types.Mul(k, gain, diff)
			ec.Flags.Merge(r1)
			ec.Flags.Merge(r2)
			ec.SetOut(out)
		},
		Update: func(ec *EvalCtx) {
			v, _ := types.Convert(ec.In[0], ec.Info.OutKind())
			ec.State.Vals[0] = v
		},
		Gen: func(gc *GenCtx) error {
			k := gc.Info.OutKind()
			gain := gc.Info.Aux.(types.Value)
			sv := gc.V("prev")
			gc.Prog.Global(fmt.Sprintf("var %s %s", sv, k.GoType()))
			gc.Prog.InitStmt(fmt.Sprintf("%s = %s", sv, GoZero(k)))
			diff := binExpr(k, Cast(gc.In[0], gc.Info.InKinds[0], k), "-", sv)
			gc.L("%s = %s", gc.Out[0], binExpr(k, gain.GoLiteral(), "*", diff))
			gc.Prog.UpdateStmt(fmt.Sprintf("%s = %s", sv, Cast(gc.In[0], gc.Info.InKinds[0], k)))
			return nil
		},
	})
}

// filterAux holds the first-order IIR coefficients y = a*y_prev + b*u.
type filterAux struct{ a, b float64 }

func registerDiscreteFilter() {
	register(&Spec{
		Type: "DiscreteFilter", MinIn: 1, MaxIn: 1, NumOut: 1,
		ScalarOnly: true,
		OutKind:    func(in *Info) types.Kind { return floatOrF64(in.InKinds[0]) },
		Prepare: func(in *Info) error {
			a, err := paramF64(in, "A", 0.5)
			if err != nil {
				return err
			}
			b, err := paramF64(in, "B", 0.5)
			if err != nil {
				return err
			}
			in.Aux = filterAux{a, b}
			return nil
		},
		Init: func(in *Info, st *State) {
			// Vals[0] = committed y_prev, Vals[1] = pending y.
			st.Vals = []types.Value{types.Zero(in.OutKind()), types.Zero(in.OutKind())}
		},
		Eval: func(ec *EvalCtx) {
			a := ec.Info.Aux.(filterAux)
			k := ec.Info.OutKind()
			y := a.a*ec.State.Vals[0].AsFloat() + a.b*ec.In[0].AsFloat()
			out, _ := types.Convert(types.FloatVal(types.F64, y), k)
			ec.State.Vals[1] = out
			ec.SetOut(out)
		},
		Update: func(ec *EvalCtx) { ec.State.Vals[0] = ec.State.Vals[1] },
		Gen: func(gc *GenCtx) error {
			a := gc.Info.Aux.(filterAux)
			k := gc.Info.OutKind()
			sv := gc.V("y")
			gc.Prog.Global(fmt.Sprintf("var %s %s", sv, k.GoType()))
			gc.Prog.InitStmt(fmt.Sprintf("%s = %s", sv, GoZero(k)))
			expr := fmt.Sprintf("(%s*float64(%s) + %s*%s)",
				f64Lit(a.a), sv, f64Lit(a.b), CastToF64(gc.In[0], gc.Info.InKinds[0]))
			gc.L("%s = %s", gc.Out[0], Cast(expr, types.F64, k))
			gc.Prog.UpdateStmt(fmt.Sprintf("%s = %s", sv, gc.Out[0]))
			return nil
		},
	})
}

func registerZeroOrderHold() {
	register(&Spec{
		Type: "ZeroOrderHold", MinIn: 1, MaxIn: 1, NumOut: 1,
		ScalarOnly: true,
		OutKind:    func(in *Info) types.Kind { return in.InKinds[0] },
		Prepare: func(in *Info) error {
			n, err := paramI64(in, "SampleSteps", 1)
			if err != nil {
				return err
			}
			if n < 1 {
				return fmt.Errorf("ZeroOrderHold SampleSteps must be >= 1, got %d", n)
			}
			in.Aux = n
			return nil
		},
		Init: func(in *Info, st *State) {
			st.Vals = []types.Value{types.Zero(in.OutKind())}
		},
		Eval: func(ec *EvalCtx) {
			n := ec.Info.Aux.(int64)
			if ec.Step%n == 0 {
				v, cr := types.Convert(ec.In[0], ec.Info.OutKind())
				ec.Flags.OutOfRange = ec.Flags.OutOfRange || cr.OutOfRange
				ec.State.Vals[0] = v
			}
			ec.SetOut(ec.State.Vals[0])
		},
		Gen: func(gc *GenCtx) error {
			n := gc.Info.Aux.(int64)
			k := gc.Info.OutKind()
			sv := gc.V("hold")
			gc.Prog.Global(fmt.Sprintf("var %s %s", sv, k.GoType()))
			gc.Prog.InitStmt(fmt.Sprintf("%s = %s", sv, GoZero(k)))
			gc.Block(fmt.Sprintf("if step%%%d == 0", n), func() {
				gc.L("%s = %s", sv, Cast(gc.In[0], gc.Info.InKinds[0], k))
			})
			gc.L("%s = %s", gc.Out[0], sv)
			return nil
		},
	})
}

// rlAux holds RateLimiter parameters.
type rlAux struct{ up, down float64 }

func registerRateLimiter() {
	register(&Spec{
		Type: "RateLimiter", MinIn: 1, MaxIn: 1, NumOut: 1,
		ScalarOnly: true,
		OutKind:    func(in *Info) types.Kind { return floatOrF64(in.InKinds[0]) },
		Prepare: func(in *Info) error {
			up, err := paramF64(in, "RisingLimit", 1)
			if err != nil {
				return err
			}
			down, err := paramF64(in, "FallingLimit", 1)
			if err != nil {
				return err
			}
			if up < 0 || down < 0 {
				return fmt.Errorf("RateLimiter limits must be non-negative (rising %g, falling %g)", up, down)
			}
			in.Aux = rlAux{up, down}
			return nil
		},
		Init: func(in *Info, st *State) {
			st.Vals = []types.Value{types.Zero(in.OutKind()), types.Zero(in.OutKind())}
		},
		Eval: func(ec *EvalCtx) {
			a := ec.Info.Aux.(rlAux)
			k := ec.Info.OutKind()
			prev := ec.State.Vals[0].AsFloat()
			u := ec.In[0].AsFloat()
			y := u
			if u > prev+a.up {
				y = prev + a.up
			} else if u < prev-a.down {
				y = prev - a.down
			}
			out, _ := types.Convert(types.FloatVal(types.F64, y), k)
			ec.State.Vals[1] = out
			ec.SetOut(out)
		},
		Update: func(ec *EvalCtx) { ec.State.Vals[0] = ec.State.Vals[1] },
		Gen: func(gc *GenCtx) error {
			a := gc.Info.Aux.(rlAux)
			k := gc.Info.OutKind()
			sv := gc.V("rlPrev")
			gc.Prog.Global(fmt.Sprintf("var %s float64", sv))
			gc.Prog.InitStmt(fmt.Sprintf("%s = 0", sv))
			uv, yv := gc.V("rlU"), gc.V("rlY")
			gc.L("%s := %s", uv, CastToF64(gc.In[0], gc.Info.InKinds[0]))
			gc.L("%s := %s", yv, uv)
			gc.Block(fmt.Sprintf("if %s > %s+%s", uv, sv, f64Lit(a.up)), func() {
				gc.L("%s = %s + %s", yv, sv, f64Lit(a.up))
			})
			gc.Block(fmt.Sprintf("else if %s < %s-%s", uv, sv, f64Lit(a.down)), func() {
				gc.L("%s = %s - %s", yv, sv, f64Lit(a.down))
			})
			gc.L("%s = %s", gc.Out[0], Cast(yv, types.F64, k))
			gc.Prog.UpdateStmt(fmt.Sprintf("%s = float64(%s)", sv, gc.Out[0]))
			return nil
		},
	})
}
