package actors

import (
	"fmt"

	"accmos/internal/diagnose"
	"accmos/internal/types"
)

// Control actors: branching and discontinuity blocks. These are the
// condition-coverage carriers (paper Algorithm 1 isBranchActor): Eval
// reports the executed branch index, Gen marks the condition bitmap inside
// each generated arm.

func init() {
	registerSwitch()
	registerMultiportSwitch()
	registerIf()
	registerMerge()
	registerRelay()
	registerSaturation()
	registerDeadZone()
	registerQuantizer()
}

// switchAux holds Switch parameters.
type switchAux struct{ threshold float64 }

func registerSwitch() {
	register(&Spec{
		Type: "Switch", MinIn: 3, MaxIn: 3, NumOut: 1,
		Operators:       []string{">=", ">", "~=0"},
		DefaultOperator: ">=",
		Branch:          true,
		BranchCount:     func(*Info) int { return 2 },
		OutKind: func(in *Info) types.Kind {
			return promote2(in.InKinds[0], in.InKinds[2])
		},
		OutWidth: func(in *Info) int {
			if in.InWidths[0] > in.InWidths[2] {
				return in.InWidths[0]
			}
			return in.InWidths[2]
		},
		Prepare: func(in *Info) error {
			if in.InWidths[1] > 1 {
				return fmt.Errorf("Switch control input must be scalar")
			}
			thr, err := paramF64(in, "Threshold", 0)
			if err != nil {
				return err
			}
			in.Aux = switchAux{thr}
			return nil
		},
		Eval: func(ec *EvalCtx) {
			a := ec.Info.Aux.(switchAux)
			ctrl := ec.In[1].AsFloat()
			var pass bool
			switch ec.Info.Operator {
			case ">=":
				pass = ctrl >= a.threshold
			case ">":
				pass = ctrl > a.threshold
			case "~=0":
				pass = ctrl != 0
			}
			k := ec.Info.OutKind()
			if pass {
				ec.Branch = 0
				ec.convertOutFrom(ec.In[0], k)
			} else {
				ec.Branch = 1
				ec.convertOutFrom(ec.In[2], k)
			}
		},
		Gen: func(gc *GenCtx) error {
			a := gc.Info.Aux.(switchAux)
			k := gc.Info.OutKind()
			ctrl := castToF64(gc.In[1], gc.Info.InKinds[1])
			var cond string
			switch gc.Info.Operator {
			case ">=":
				cond = fmt.Sprintf("%s >= %s", ctrl, f64Lit(a.threshold))
			case ">":
				cond = fmt.Sprintf("%s > %s", ctrl, f64Lit(a.threshold))
			case "~=0":
				cond = fmt.Sprintf("%s != 0", ctrl)
			}
			gc.Block("if "+cond, func() {
				gc.CondCov(0)
				gc.ForEachOut(func(ix string) {
					gc.L("%s = %s", gc.OutElem(0, ix), castIn(gc, 0, ix, k))
				})
			})
			gc.Block("else", func() {
				gc.CondCov(1)
				gc.ForEachOut(func(ix string) {
					gc.L("%s = %s", gc.OutElem(0, ix), castIn(gc, 2, ix, k))
				})
			})
			return nil
		},
	})
}

// promote2 promotes two kinds, tolerating unresolved operands during the
// elaboration fixpoint (an Invalid side simply yields the other).
func promote2(a, b types.Kind) types.Kind {
	if a == types.Invalid {
		return b
	}
	if b == types.Invalid {
		return a
	}
	return types.Promote(a, b)
}

// convertOutFrom converts v to kind k and assigns output 0, accumulating
// flags (helper shared by the branching actors).
func (ec *EvalCtx) convertOutFrom(v types.Value, k types.Kind) {
	out, res := types.Convert(v, k)
	ec.Flags.OutOfRange = ec.Flags.OutOfRange || res.OutOfRange
	ec.Flags.PrecisionLoss = ec.Flags.PrecisionLoss || res.PrecisionLoss
	ec.Outs[0] = out
}

func registerMultiportSwitch() {
	register(&Spec{
		Type: "MultiportSwitch", MinIn: 2, MaxIn: 9, NumOut: 1,
		Branch:      true,
		BranchCount: func(in *Info) int { return in.NumIn() - 1 },
		OutKind: func(in *Info) types.Kind {
			k := types.Invalid
			for _, ik := range in.InKinds[1:] {
				k = promote2(k, ik)
			}
			return k
		},
		OutWidth: func(in *Info) int {
			w := 0
			for _, iw := range in.InWidths[1:] {
				if iw > w {
					w = iw
				}
			}
			return w
		},
		Prepare: func(in *Info) error {
			if in.InWidths[0] > 1 {
				return fmt.Errorf("MultiportSwitch control input must be scalar")
			}
			return nil
		},
		Eval: func(ec *EvalCtx) {
			n := len(ec.In) - 1
			// Convert (not AsInt): out-of-range floats must saturate the
			// same way the generated cvtF2I helper does.
			iv, _ := types.Convert(ec.In[0], types.I64)
			idx := iv.I // 1-based data port index
			if idx < 1 {
				ec.Flags.OutOfRange = true
				idx = 1
			} else if idx > int64(n) {
				ec.Flags.OutOfRange = true
				idx = int64(n)
			}
			ec.Branch = int(idx - 1)
			ec.convertOutFrom(ec.In[idx], ec.Info.OutKind())
		},
		Gen: func(gc *GenCtx) error {
			k := gc.Info.OutKind()
			n := len(gc.In) - 1
			iv := gc.V("idx")
			gc.L("%s = %s", deferDecl(gc, iv, "int64"), Cast(gc.In[0], gc.Info.InKinds[0], types.I64))
			gc.Block(fmt.Sprintf("if %s < 1", iv), func() {
				gc.L("%s = 1", iv)
			})
			gc.Block(fmt.Sprintf("else if %s > %d", iv, n), func() {
				gc.L("%s = %d", iv, n)
			})
			gc.Block(fmt.Sprintf("switch %s", iv), func() {
				for p := 1; p <= n; p++ {
					gc.L("case %d:", p)
					gc.indent++
					gc.CondCov(p - 1)
					gc.ForEachOut(func(ix string) {
						gc.L("%s = %s", gc.OutElem(0, ix), castIn(gc, p, ix, k))
					})
					gc.indent--
				}
			})
			return nil
		},
		DiagRules: indexRules,
		DiagGen:   func(dc *DiagCtx) { dc.index(0, dc.Info.NumIn()-1) },
	})
}

// deferDecl declares a variable and returns its name; small helper that
// keeps switch-style generation readable.
func deferDecl(gc *GenCtx, name, typ string) string {
	gc.L("var %s %s", name, typ)
	return name
}

func registerIf() {
	register(&Spec{
		Type: "If", MinIn: 3, MaxIn: 3, NumOut: 1,
		Branch:      true,
		BranchCount: func(*Info) int { return 2 },
		OutKind: func(in *Info) types.Kind {
			return promote2(in.InKinds[1], in.InKinds[2])
		},
		OutWidth: func(in *Info) int {
			if in.InWidths[1] > in.InWidths[2] {
				return in.InWidths[1]
			}
			return in.InWidths[2]
		},
		Prepare: func(in *Info) error {
			if in.InWidths[0] > 1 {
				return fmt.Errorf("If condition input must be scalar")
			}
			return nil
		},
		Eval: func(ec *EvalCtx) {
			k := ec.Info.OutKind()
			if ec.In[0].AsBool() {
				ec.Branch = 0
				ec.convertOutFrom(ec.In[1], k)
			} else {
				ec.Branch = 1
				ec.convertOutFrom(ec.In[2], k)
			}
		},
		Gen: func(gc *GenCtx) error {
			k := gc.Info.OutKind()
			gc.Block("if "+TruthExpr(gc.In[0], gc.Info.InKinds[0]), func() {
				gc.CondCov(0)
				gc.ForEachOut(func(ix string) {
					gc.L("%s = %s", gc.OutElem(0, ix), castIn(gc, 1, ix, k))
				})
			})
			gc.Block("else", func() {
				gc.CondCov(1)
				gc.ForEachOut(func(ix string) {
					gc.L("%s = %s", gc.OutElem(0, ix), castIn(gc, 2, ix, k))
				})
			})
			return nil
		},
	})
}

func registerMerge() {
	register(&Spec{
		Type: "Merge", MinIn: 2, MaxIn: 8, NumOut: 1,
		ScalarOnly: true,
		OutKind:    func(in *Info) types.Kind { return promoteInputs(in) },
		Init: func(in *Info, st *State) {
			st.Vals = []types.Value{types.Zero(in.OutKind())}
		},
		Eval: func(ec *EvalCtx) {
			// First non-zero input wins; when all inputs are zero the
			// previous output holds (a deterministic stand-in for
			// Simulink's conditional-execution Merge).
			k := ec.Info.OutKind()
			for _, v := range ec.In {
				if v.AsBool() {
					ec.convertOutFrom(v, k)
					ec.State.Vals[0] = ec.Out()
					return
				}
			}
			ec.SetOut(ec.State.Vals[0])
		},
		Gen: func(gc *GenCtx) error {
			k := gc.Info.OutKind()
			sv := gc.V("merge")
			gc.Prog.Global(fmt.Sprintf("var %s %s", sv, k.GoType()))
			gc.Prog.InitStmt(fmt.Sprintf("%s = %s", sv, goZero(k)))
			cond := "if " + TruthExpr(gc.In[0], gc.Info.InKinds[0])
			gc.Block(cond, func() {
				gc.L("%s = %s", gc.Out[0], castIn(gc, 0, "", k))
				gc.L("%s = %s", sv, gc.Out[0])
			})
			for i := 1; i < len(gc.In); i++ {
				gc.Block("else if "+TruthExpr(gc.In[i], gc.Info.InKinds[i]), func() {
					gc.L("%s = %s", gc.Out[0], castIn(gc, i, "", k))
					gc.L("%s = %s", sv, gc.Out[0])
				})
			}
			gc.Block("else", func() {
				gc.L("%s = %s", gc.Out[0], sv)
			})
			return nil
		},
	})
}

// relayAux holds Relay parameters.
type relayAux struct{ onPoint, offPoint, onValue, offValue float64 }

func registerRelay() {
	register(&Spec{
		Type: "Relay", MinIn: 1, MaxIn: 1, NumOut: 1,
		ScalarOnly:  true,
		Branch:      true,
		BranchCount: func(*Info) int { return 2 },
		OutKind:     func(*Info) types.Kind { return types.F64 },
		Prepare: func(in *Info) error {
			on, err := paramF64(in, "OnPoint", 0.5)
			if err != nil {
				return err
			}
			off, err := paramF64(in, "OffPoint", -0.5)
			if err != nil {
				return err
			}
			onV, err := paramF64(in, "OnValue", 1)
			if err != nil {
				return err
			}
			offV, err := paramF64(in, "OffValue", 0)
			if err != nil {
				return err
			}
			if off > on {
				return fmt.Errorf("Relay OffPoint %g > OnPoint %g", off, on)
			}
			in.Aux = relayAux{on, off, onV, offV}
			return nil
		},
		Init: func(in *Info, st *State) {
			st.Vals = []types.Value{types.BoolVal(false)} // starts off
		},
		Eval: func(ec *EvalCtx) {
			a := ec.Info.Aux.(relayAux)
			u := ec.In[0].AsFloat()
			on := ec.State.Vals[0].B
			if u >= a.onPoint {
				on = true
			} else if u <= a.offPoint {
				on = false
			}
			ec.State.Vals[0] = types.BoolVal(on)
			if on {
				ec.Branch = 0
				ec.convertOutFrom(types.FloatVal(types.F64, a.onValue), ec.Info.OutKind())
			} else {
				ec.Branch = 1
				ec.convertOutFrom(types.FloatVal(types.F64, a.offValue), ec.Info.OutKind())
			}
		},
		Gen: func(gc *GenCtx) error {
			a := gc.Info.Aux.(relayAux)
			k := gc.Info.OutKind()
			sv := gc.V("relayOn")
			gc.Prog.Global(fmt.Sprintf("var %s bool", sv))
			gc.Prog.InitStmt(fmt.Sprintf("%s = false", sv))
			u := castToF64(gc.In[0], gc.Info.InKinds[0])
			uv := gc.V("u")
			gc.L("%s := %s", uv, u)
			gc.Block(fmt.Sprintf("if %s >= %s", uv, f64Lit(a.onPoint)), func() {
				gc.L("%s = true", sv)
			})
			gc.Block(fmt.Sprintf("else if %s <= %s", uv, f64Lit(a.offPoint)), func() {
				gc.L("%s = false", sv)
			})
			gc.Block(fmt.Sprintf("if %s", sv), func() {
				gc.CondCov(0)
				gc.L("%s = %s", gc.Out[0], Cast(f64Lit(a.onValue), types.F64, k))
			})
			gc.Block("else", func() {
				gc.CondCov(1)
				gc.L("%s = %s", gc.Out[0], Cast(f64Lit(a.offValue), types.F64, k))
			})
			return nil
		},
	})
}

// satAux holds Saturation parameters in the output kind.
type satAux struct{ lo, hi types.Value }

func registerSaturation() {
	register(&Spec{
		Type: "Saturation", MinIn: 1, MaxIn: 1, NumOut: 1,
		ScalarOnly:  true,
		Branch:      true,
		BranchCount: func(*Info) int { return 3 },
		OutKind:     func(in *Info) types.Kind { return in.InKinds[0] },
		Prepare: func(in *Info) error {
			lo, err := paramValue(in, "Min", in.OutKind(), "-1")
			if err != nil {
				return err
			}
			hi, err := paramValue(in, "Max", in.OutKind(), "1")
			if err != nil {
				return err
			}
			if types.Compare(lo, hi) == 1 {
				return fmt.Errorf("Saturation Min %s > Max %s", lo, hi)
			}
			in.Aux = satAux{lo, hi}
			return nil
		},
		Eval: func(ec *EvalCtx) {
			a := ec.Info.Aux.(satAux)
			k := ec.Info.OutKind()
			v, cr := types.Convert(ec.In[0], k)
			ec.Flags.OutOfRange = ec.Flags.OutOfRange || cr.OutOfRange
			switch {
			case types.Compare(v, a.lo) == -1:
				ec.Branch = 0
				ec.SetOut(a.lo)
			case types.Compare(v, a.hi) == 1:
				ec.Branch = 2
				ec.SetOut(a.hi)
			default:
				ec.Branch = 1
				ec.SetOut(v)
			}
		},
		Gen: func(gc *GenCtx) error {
			a := gc.Info.Aux.(satAux)
			k := gc.Info.OutKind()
			uv := gc.V("sat")
			gc.L("%s := %s", uv, castIn(gc, 0, "", k))
			gc.Block(fmt.Sprintf("if %s < %s", uv, a.lo.GoLiteral()), func() {
				gc.CondCov(0)
				gc.L("%s = %s", gc.Out[0], a.lo.GoLiteral())
			})
			gc.Block(fmt.Sprintf("else if %s > %s", uv, a.hi.GoLiteral()), func() {
				gc.CondCov(2)
				gc.L("%s = %s", gc.Out[0], a.hi.GoLiteral())
			})
			gc.Block("else", func() {
				gc.CondCov(1)
				gc.L("%s = %s", gc.Out[0], uv)
			})
			return nil
		},
	})
}

// dzAux holds DeadZone parameters in the output kind.
type dzAux struct{ start, end types.Value }

func registerDeadZone() {
	register(&Spec{
		Type: "DeadZone", MinIn: 1, MaxIn: 1, NumOut: 1,
		ScalarOnly:  true,
		Branch:      true,
		BranchCount: func(*Info) int { return 3 },
		OutKind:     func(in *Info) types.Kind { return in.InKinds[0] },
		Prepare: func(in *Info) error {
			start, err := paramValue(in, "Start", in.OutKind(), "-1")
			if err != nil {
				return err
			}
			end, err := paramValue(in, "End", in.OutKind(), "1")
			if err != nil {
				return err
			}
			if types.Compare(start, end) == 1 {
				return fmt.Errorf("DeadZone Start %s > End %s", start, end)
			}
			in.Aux = dzAux{start, end}
			return nil
		},
		Eval: func(ec *EvalCtx) {
			a := ec.Info.Aux.(dzAux)
			k := ec.Info.OutKind()
			v, cr := types.Convert(ec.In[0], k)
			ec.Flags.OutOfRange = ec.Flags.OutOfRange || cr.OutOfRange
			switch {
			case types.Compare(v, a.start) == -1:
				ec.Branch = 0
				out, r := types.Sub(k, v, a.start)
				ec.Flags.Merge(r)
				ec.SetOut(out)
			case types.Compare(v, a.end) == 1:
				ec.Branch = 2
				out, r := types.Sub(k, v, a.end)
				ec.Flags.Merge(r)
				ec.SetOut(out)
			default:
				ec.Branch = 1
				ec.SetOut(types.Zero(k))
			}
		},
		Gen: func(gc *GenCtx) error {
			a := gc.Info.Aux.(dzAux)
			k := gc.Info.OutKind()
			uv := gc.V("dz")
			gc.L("%s := %s", uv, castIn(gc, 0, "", k))
			gc.Block(fmt.Sprintf("if %s < %s", uv, a.start.GoLiteral()), func() {
				gc.CondCov(0)
				gc.L("%s = %s", gc.Out[0], binExpr(k, uv, "-", a.start.GoLiteral()))
			})
			gc.Block(fmt.Sprintf("else if %s > %s", uv, a.end.GoLiteral()), func() {
				gc.CondCov(2)
				gc.L("%s = %s", gc.Out[0], binExpr(k, uv, "-", a.end.GoLiteral()))
			})
			gc.Block("else", func() {
				gc.CondCov(1)
				gc.L("%s = %s", gc.Out[0], goZero(k))
			})
			return nil
		},
		DiagRules: func(in *Info) []diagnose.Kind {
			return ruleIf(in.OutKind().IsInteger(), diagnose.WrapOnOverflow)
		},
		DiagGen: func(dc *DiagCtx) {
			a := dc.Info.Aux.(dzAux)
			t := dc.tmp("t")
			dc.L("%s := %s", t, dc.castElem(0, ""))
			sub := func(bound string) func() {
				return func() {
					r := dc.tmp("r")
					dc.L("var %s %s", r, dc.Info.OutKind().GoType())
					dc.arith(r, t, '-', bound)
					dc.L("_ = %s", r)
				}
			}
			dc.Block(fmt.Sprintf("if %s < %s", t, a.start.GoLiteral()), sub(a.start.GoLiteral()))
			dc.Block(fmt.Sprintf("else if %s > %s", t, a.end.GoLiteral()), sub(a.end.GoLiteral()))
		},
	})
}

func registerQuantizer() {
	register(&Spec{
		Type: "Quantizer", MinIn: 1, MaxIn: 1, NumOut: 1,
		ScalarOnly: true,
		OutKind:    func(in *Info) types.Kind { return floatOrF64(in.InKinds[0]) },
		Prepare: func(in *Info) error {
			q, err := paramF64(in, "Interval", 0.5)
			if err != nil {
				return err
			}
			if q <= 0 {
				return fmt.Errorf("Quantizer Interval must be positive, got %g", q)
			}
			in.Aux = q
			return nil
		},
		Eval: func(ec *EvalCtx) {
			q := ec.Info.Aux.(float64)
			x := ec.In[0].AsFloat()
			v, res := types.MathUnary("round", types.F64, types.FloatVal(types.F64, x/q))
			ec.Flags.Merge(res)
			ec.convertOutFrom(types.FloatVal(types.F64, q*v.F), ec.Info.OutKind())
		},
		Gen: func(gc *GenCtx) error {
			q := gc.Info.Aux.(float64)
			gc.Prog.Import("math")
			x := castToF64(gc.In[0], gc.Info.InKinds[0])
			expr := fmt.Sprintf("(%s * math.Round(%s / %s))", f64Lit(q), x, f64Lit(q))
			gc.L("%s = %s", gc.Out[0], Cast(expr, types.F64, gc.Info.OutKind()))
			return nil
		},
	})
}

// SaturationBounds exposes a prepared Saturation actor's [lo, hi] clamp
// values for analysis passes (the O2 width-inference facts). ok is false
// when the info is not an elaborated Saturation.
func SaturationBounds(in *Info) (lo, hi types.Value, ok bool) {
	a, isSat := in.Aux.(satAux)
	if !isSat {
		return types.Value{}, types.Value{}, false
	}
	return a.lo, a.hi, true
}
