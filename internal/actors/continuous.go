package actors

import (
	"fmt"

	"accmos/internal/types"
)

// Continuous-model extension (the paper's §5 future work): actors whose
// state evolves as an ODE, resolved by fixed-step numerical solvers. The
// input is held constant across each step (zero-order hold), and the
// solver integrates the state from t to t+dt:
//
//   - Integrator:     dx/dt = u            (pure integration)
//   - FirstOrderLag:  dx/dt = (u - x) / τ  (the canonical RC / thermal lag)
//
// Supported solvers: euler (explicit Euler), heun (2nd-order
// Runge-Kutta), rk4 (classic 4th-order Runge-Kutta), and adams
// (2-step Adams-Bashforth, Euler-bootstrapped) — the solver family the
// paper names for continuous support. Both the interpreter and the code
// generator implement the identical float64 operation sequences, so the
// engines stay bit-equal.

var solverNames = []string{"euler", "heun", "rk4", "adams"}

// contAux holds the shared continuous-actor parameters.
type contAux struct {
	dt  float64
	tau float64 // FirstOrderLag only
	ic  float64
}

func prepareContinuous(in *Info, needTau bool) error {
	dt, err := paramF64(in, "Dt", 0.001)
	if err != nil {
		return err
	}
	if dt <= 0 {
		return fmt.Errorf("%s Dt must be positive, got %g", in.Actor.Type, dt)
	}
	aux := contAux{dt: dt}
	if needTau {
		tau, err := paramF64(in, "TimeConstant", 1)
		if err != nil {
			return err
		}
		if tau <= 0 {
			return fmt.Errorf("%s TimeConstant must be positive, got %g", in.Actor.Type, tau)
		}
		aux.tau = tau
	}
	ic, err := paramF64(in, "InitialCondition", 0)
	if err != nil {
		return err
	}
	aux.ic = ic
	in.Aux = aux
	return nil
}

func init() {
	registerIntegrator()
	registerFirstOrderLag()
}

func registerIntegrator() {
	register(&Spec{
		Type: "Integrator", MinIn: 1, MaxIn: 1, NumOut: 1,
		Stateful:        true,
		ScalarOnly:      true,
		Operators:       solverNames,
		DefaultOperator: "euler",
		OutKind:         func(*Info) types.Kind { return types.F64 },
		Prepare:         func(in *Info) error { return prepareContinuous(in, false) },
		Init: func(in *Info, st *State) {
			st.Vals = []types.Value{types.FloatVal(types.F64, in.Aux.(contAux).ic)}
		},
		Eval: func(ec *EvalCtx) { ec.SetOut(ec.State.Vals[0]) },
		Update: func(ec *EvalCtx) {
			// With the input held constant over the step, every explicit
			// solver reduces to x += dt*u; the solver choice is accepted
			// for interface parity with FirstOrderLag.
			a := ec.Info.Aux.(contAux)
			x := ec.State.Vals[0].F
			u := ec.In[0].AsFloat()
			ec.State.Vals[0] = types.FloatVal(types.F64, x+a.dt*u)
		},
		Gen: func(gc *GenCtx) error {
			a := gc.Info.Aux.(contAux)
			sv := gc.V("xc")
			gc.Prog.Global(fmt.Sprintf("var %s float64", sv))
			gc.Prog.InitStmt(fmt.Sprintf("%s = %s", sv, f64Lit(a.ic)))
			gc.L("%s = %s", gc.Out[0], sv)
			u := castToF64(gc.In[0], gc.Info.InKinds[0])
			gc.Prog.UpdateStmt(fmt.Sprintf("%s = %s + %s*%s", sv, sv, f64Lit(a.dt), u))
			return nil
		},
	})
}

// lagStep integrates dx/dt = (u-x)/tau one step with the chosen solver.
// fPrev carries the previous derivative sample for Adams-Bashforth; the
// boolean reports whether fPrev is valid afterwards. The exact operation
// order here is mirrored textually by the generated code — change both or
// neither.
func lagStep(solver string, x, u, dt, tau, fPrev float64, havePrev bool) (x1, fOut float64) {
	f := func(xv float64) float64 { return (u - xv) / tau }
	switch solver {
	case "euler":
		k1 := f(x)
		return x + dt*k1, k1
	case "heun":
		k1 := f(x)
		k2 := f(x + dt*k1)
		return x + dt*(k1+k2)/2, k1
	case "rk4":
		k1 := f(x)
		k2 := f(x + dt/2*k1)
		k3 := f(x + dt/2*k2)
		k4 := f(x + dt*k3)
		return x + dt/6*(k1+2*k2+2*k3+k4), k1
	case "adams":
		k1 := f(x)
		if !havePrev {
			return x + dt*k1, k1 // Euler bootstrap
		}
		return x + dt*(1.5*k1-0.5*fPrev), k1
	}
	return x, 0
}

// LagStep is exported for tests that cross-check solver accuracy against
// the analytic solution.
func LagStep(solver string, x, u, dt, tau, fPrev float64, havePrev bool) (float64, float64) {
	return lagStep(solver, x, u, dt, tau, fPrev, havePrev)
}

func registerFirstOrderLag() {
	register(&Spec{
		Type: "FirstOrderLag", MinIn: 1, MaxIn: 1, NumOut: 1,
		Stateful:        true,
		ScalarOnly:      true,
		Operators:       solverNames,
		DefaultOperator: "rk4",
		OutKind:         func(*Info) types.Kind { return types.F64 },
		Prepare:         func(in *Info) error { return prepareContinuous(in, true) },
		Init: func(in *Info, st *State) {
			st.Vals = []types.Value{
				types.FloatVal(types.F64, in.Aux.(contAux).ic), // x
				types.FloatVal(types.F64, 0),                   // fPrev
				types.BoolVal(false),                           // havePrev
			}
		},
		Eval: func(ec *EvalCtx) { ec.SetOut(ec.State.Vals[0]) },
		Update: func(ec *EvalCtx) {
			a := ec.Info.Aux.(contAux)
			x := ec.State.Vals[0].F
			u := ec.In[0].AsFloat()
			x1, fOut := lagStep(ec.Info.Operator, x, u, a.dt, a.tau, ec.State.Vals[1].F, ec.State.Vals[2].B)
			ec.State.Vals[0] = types.FloatVal(types.F64, x1)
			ec.State.Vals[1] = types.FloatVal(types.F64, fOut)
			ec.State.Vals[2] = types.BoolVal(true)
		},
		Gen: func(gc *GenCtx) error {
			a := gc.Info.Aux.(contAux)
			sv := gc.V("lag")
			gc.Prog.Global(fmt.Sprintf("var %s float64", sv))
			gc.Prog.InitStmt(fmt.Sprintf("%s = %s", sv, f64Lit(a.ic)))
			gc.L("%s = %s", gc.Out[0], sv)
			u := castToF64(gc.In[0], gc.Info.InKinds[0])
			dt, tau := f64Lit(a.dt), f64Lit(a.tau)
			// The emitted operation sequences mirror lagStep exactly.
			switch gc.Info.Operator {
			case "euler":
				gc.Prog.UpdateStmt(fmt.Sprintf(
					"{ u := %s; k1 := (u - %s) / %s; %s = %s + %s*k1 }",
					u, sv, tau, sv, sv, dt))
			case "heun":
				gc.Prog.UpdateStmt(fmt.Sprintf(
					"{ u := %s; k1 := (u - %s) / %s; k2 := (u - (%s + %s*k1)) / %s; %s = %s + %s*(k1+k2)/2 }",
					u, sv, tau, sv, dt, tau, sv, sv, dt))
			case "rk4":
				gc.Prog.UpdateStmt(fmt.Sprintf(
					"{ u := %s; k1 := (u - %s) / %s; k2 := (u - (%s + %s/2*k1)) / %s; "+
						"k3 := (u - (%s + %s/2*k2)) / %s; k4 := (u - (%s + %s*k3)) / %s; "+
						"%s = %s + %s/6*(k1+2*k2+2*k3+k4) }",
					u, sv, tau, sv, dt, tau, sv, dt, tau, sv, dt, tau, sv, sv, dt))
			case "adams":
				fp := gc.V("lagFp")
				hp := gc.V("lagHp")
				gc.Prog.Global(fmt.Sprintf("var %s float64", fp))
				gc.Prog.Global(fmt.Sprintf("var %s bool", hp))
				gc.Prog.InitStmt(fmt.Sprintf("%s = 0", fp))
				gc.Prog.InitStmt(fmt.Sprintf("%s = false", hp))
				gc.Prog.UpdateStmt(fmt.Sprintf(
					"{ u := %s; k1 := (u - %s) / %s; if !%s { %s = %s + %s*k1 } else { %s = %s + %s*(1.5*k1-0.5*%s) }; %s = k1; %s = true }",
					u, sv, tau, hp, sv, sv, dt, sv, sv, dt, fp, fp, hp))
			}
			return nil
		},
	})
}
