package actors

import (
	"fmt"
	"math"

	"accmos/internal/types"
)

// Additional control-engineering actors beyond the paper's core set:
// a discrete PID controller, a sliding-window moving average, and the
// two-argument arctangent. Like every actor, the interpreter Eval and the
// generated code execute identical float64 operation sequences.

func init() {
	registerPID()
	registerMovingAverage()
	registerAtan2()
}

// pidAux holds PIDController gains.
type pidAux struct{ kp, ki, kd float64 }

func registerPID() {
	register(&Spec{
		Type: "PIDController", MinIn: 1, MaxIn: 1, NumOut: 1,
		ScalarOnly: true,
		OutKind:    func(*Info) types.Kind { return types.F64 },
		Prepare: func(in *Info) error {
			kp, err := paramF64(in, "Kp", 1)
			if err != nil {
				return err
			}
			ki, err := paramF64(in, "Ki", 0)
			if err != nil {
				return err
			}
			kd, err := paramF64(in, "Kd", 0)
			if err != nil {
				return err
			}
			in.Aux = pidAux{kp, ki, kd}
			return nil
		},
		Init: func(in *Info, st *State) {
			// Vals[0] = integral state, Vals[1] = previous error.
			st.Vals = []types.Value{types.Zero(types.F64), types.Zero(types.F64)}
		},
		Eval: func(ec *EvalCtx) {
			a := ec.Info.Aux.(pidAux)
			e := ec.In[0].AsFloat()
			i := ec.State.Vals[0].F
			prev := ec.State.Vals[1].F
			u := a.kp*e + i + a.kd*(e-prev)
			ec.SetOut(types.FloatVal(types.F64, u))
		},
		Update: func(ec *EvalCtx) {
			a := ec.Info.Aux.(pidAux)
			e := ec.In[0].AsFloat()
			ec.State.Vals[0] = types.FloatVal(types.F64, ec.State.Vals[0].F+a.ki*e)
			ec.State.Vals[1] = types.FloatVal(types.F64, e)
		},
		Gen: func(gc *GenCtx) error {
			a := gc.Info.Aux.(pidAux)
			iv, pv := gc.V("pidI"), gc.V("pidPrev")
			gc.Prog.Global(fmt.Sprintf("var %s float64", iv))
			gc.Prog.Global(fmt.Sprintf("var %s float64", pv))
			gc.Prog.InitStmt(fmt.Sprintf("%s = 0", iv))
			gc.Prog.InitStmt(fmt.Sprintf("%s = 0", pv))
			e := castToF64(gc.In[0], gc.Info.InKinds[0])
			ev := gc.V("pidE")
			gc.L("%s := %s", ev, e)
			// Identical operation order to Eval: kp*e + I + kd*(e-prev).
			gc.L("%s = %s*%s + %s + %s*(%s-%s)",
				gc.Out[0], f64Lit(a.kp), ev, iv, f64Lit(a.kd), ev, pv)
			gc.Prog.UpdateStmt(fmt.Sprintf("{ e := %s; %s = %s + %s*e; %s = e }",
				e, iv, iv, f64Lit(a.ki), pv))
			return nil
		},
	})
}

func registerMovingAverage() {
	register(&Spec{
		Type: "MovingAverage", MinIn: 1, MaxIn: 1, NumOut: 1,
		ScalarOnly: true,
		OutKind:    func(*Info) types.Kind { return types.F64 },
		Prepare: func(in *Info) error {
			n, err := paramI64(in, "Window", 8)
			if err != nil {
				return err
			}
			if n < 1 || n > 1<<16 {
				return fmt.Errorf("MovingAverage Window=%d out of range [1, 65536]", n)
			}
			in.Aux = n
			return nil
		},
		Init: func(in *Info, st *State) {
			n := in.Aux.(int64)
			st.Ring = make([]types.Value, n)
			for i := range st.Ring {
				st.Ring[i] = types.Zero(types.F64)
			}
			st.Pos = 0
			st.Vals = []types.Value{types.Zero(types.F64)} // running sum
		},
		Eval: func(ec *EvalCtx) {
			// Window includes the current sample: drop the oldest, add u.
			n := float64(len(ec.State.Ring))
			u := ec.In[0].AsFloat()
			sum := ec.State.Vals[0].F - ec.State.Ring[ec.State.Pos].F + u
			ec.SetOut(types.FloatVal(types.F64, sum/n))
		},
		Update: func(ec *EvalCtx) {
			u := ec.In[0].AsFloat()
			st := ec.State
			st.Vals[0] = types.FloatVal(types.F64, st.Vals[0].F-st.Ring[st.Pos].F+u)
			st.Ring[st.Pos] = types.FloatVal(types.F64, u)
			st.Pos = (st.Pos + 1) % len(st.Ring)
		},
		Gen: func(gc *GenCtx) error {
			n := gc.Info.Aux.(int64)
			buf, pos, sum := gc.V("maBuf"), gc.V("maPos"), gc.V("maSum")
			gc.Prog.Global(fmt.Sprintf("var %s [%d]float64", buf, n))
			gc.Prog.Global(fmt.Sprintf("var %s int", pos))
			gc.Prog.Global(fmt.Sprintf("var %s float64", sum))
			gc.Prog.InitStmt(fmt.Sprintf("for i := range %s { %s[i] = 0 }", buf, buf))
			gc.Prog.InitStmt(fmt.Sprintf("%s = 0", pos))
			gc.Prog.InitStmt(fmt.Sprintf("%s = 0", sum))
			u := castToF64(gc.In[0], gc.Info.InKinds[0])
			gc.L("%s = (%s - %s[%s] + %s) / %d.0", gc.Out[0], sum, buf, pos, u, n)
			gc.Prog.UpdateStmt(fmt.Sprintf(
				"{ u := %s; %s = %s - %s[%s] + u; %s[%s] = u; %s = (%s + 1) %% %d }",
				u, sum, sum, buf, pos, buf, pos, pos, pos, n))
			return nil
		},
	})
}

func registerAtan2() {
	register(&Spec{
		Type: "Atan2", MinIn: 2, MaxIn: 2, NumOut: 1,
		ScalarOnly: true,
		OutKind:    func(*Info) types.Kind { return types.F64 },
		Eval: func(ec *EvalCtx) {
			y := ec.In[0].AsFloat()
			x := ec.In[1].AsFloat()
			ec.SetOut(types.FloatVal(types.F64, math.Atan2(y, x)))
		},
		Gen: func(gc *GenCtx) error {
			gc.Prog.Import("math")
			y := castToF64(gc.In[0], gc.Info.InKinds[0])
			x := castToF64(gc.In[1], gc.Info.InKinds[1])
			gc.L("%s = math.Atan2(%s, %s)", gc.Out[0], y, x)
			return nil
		},
	})
}
