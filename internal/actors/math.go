package actors

import (
	"fmt"
	"math"
	"strings"

	"accmos/internal/diagnose"
	"accmos/internal/model"
	"accmos/internal/types"
)

// Math actors: arithmetic and elementary functions. Generation invariant:
// every floating-point operation in generated code reproduces the
// interpreter's evaluation order and rounding (float32 math runs through
// float64 and rounds once per operation), so output hashes match exactly.

func init() {
	registerSum()
	registerProduct()
	registerGain()
	registerBias()
	registerAbs()
	registerUnaryMinus()
	registerMath()
	registerSqrt()
	registerMinMax()
	registerSign()
	registerRounding()
	registerPolynomial()
	registerDotProduct()
	registerReduce()
	registerMod()
}

// binExpr renders "a op b" in kind k with interpreter-equivalent rounding.
func binExpr(k types.Kind, a, op, b string) string {
	if k == types.F32 {
		return fmt.Sprintf("float32(float64(%s) %s float64(%s))", a, op, b)
	}
	return fmt.Sprintf("(%s %s %s)", a, op, b)
}

// castIn returns input p's element expression converted to kind k.
func castIn(gc *GenCtx, p int, ix string, k types.Kind) string {
	return Cast(gc.InElem(p, ix), gc.Info.InKinds[p], k)
}

// signString normalises a Sum/Product operator string to one rune per
// input.
func signString(op string, nIn int, def byte) (string, error) {
	if op == "" {
		return strings.Repeat(string(def), nIn), nil
	}
	if len(op) == 1 && nIn > 1 {
		return strings.Repeat(op, nIn), nil
	}
	if len(op) != nIn {
		return "", fmt.Errorf("operator %q has %d signs for %d inputs", op, len(op), nIn)
	}
	return op, nil
}

func registerSum() {
	register(&Spec{
		Type: "Sum", MinIn: 1, MaxIn: 8, NumOut: 1,
		FreeOperator: true,
		OutKind:      func(in *Info) types.Kind { return promoteInputs(in) },
		OutWidth:     maxInWidth,
		Prepare: func(in *Info) error {
			signs, err := signString(in.Operator, in.NumIn(), '+')
			if err != nil {
				return err
			}
			for i := 0; i < len(signs); i++ {
				if signs[i] != '+' && signs[i] != '-' {
					return fmt.Errorf("Sum operator %q: sign %q not in {+,-}", in.Operator, signs[i])
				}
			}
			in.Aux = signs
			return nil
		},
		Eval: func(ec *EvalCtx) {
			k := ec.Info.OutKind()
			signs := ec.Info.Aux.(string)
			var acc types.Value
			var res types.OpResult
			if signs[0] == '+' {
				var cr types.ConvertResult
				acc, cr = types.Convert(ec.In[0], k)
				res.OutOfRange = cr.OutOfRange
			} else {
				var r types.OpResult
				acc, r = types.Neg(k, ec.In[0])
				res.Merge(r)
			}
			for i := 1; i < len(ec.In); i++ {
				var r types.OpResult
				if signs[i] == '+' {
					acc, r = types.Add(k, acc, ec.In[i])
				} else {
					acc, r = types.Sub(k, acc, ec.In[i])
				}
				res.Merge(r)
			}
			ec.Flags.Merge(res)
			ec.SetOut(acc)
		},
		Gen: func(gc *GenCtx) error {
			k := gc.Info.OutKind()
			signs := gc.Info.Aux.(string)
			gc.ForEachOut(func(ix string) {
				var expr string
				if signs[0] == '+' {
					expr = castIn(gc, 0, ix, k)
				} else {
					expr = binExpr(k, goZero(k), "-", castIn(gc, 0, ix, k))
				}
				for i := 1; i < len(gc.In); i++ {
					expr = binExpr(k, expr, string(signs[i]), castIn(gc, i, ix, k))
				}
				gc.L("%s = %s", gc.OutElem(0, ix), expr)
			})
			return nil
		},
		DiagRules: arithRules(true),
		DiagGen: func(dc *DiagCtx) {
			signs := dc.Info.Aux.(string)
			k := dc.Info.OutKind()
			if (len(signs) > 1 || signs[0] == '-') && dc.outputNaN() {
				return
			}
			if !k.IsInteger() && !k.IsFloat() {
				return
			}
			dc.forWidth(dc.Info.OutWidth(), func(ix string) {
				t := dc.tmp("t")
				if signs[0] == '+' {
					dc.L("%s := %s", t, dc.castElem(0, ix))
				} else if k.IsInteger() {
					dc.L("var %s %s", t, k.GoType())
					dc.arith(t, goZero(k), '-', dc.castElem(0, ix))
				} else {
					dc.L("%s := %s", t, binExpr(k, goZero(k), "-", dc.castElem(0, ix)))
					dc.nanCheck(t)
				}
				dc.chain(t, signs, ix)
			})
		},
	})
}

// chain emits the running Sum or Product of inputs 1.. onto t, one
// checked operation per sign, then marks the result used.
func (dc *DiagCtx) chain(t, signs, ix string) {
	for i := 1; i < len(signs); i++ {
		nt := dc.tmp("t")
		dc.L("var %s %s", nt, dc.Info.OutKind().GoType())
		dc.arith(nt, t, signs[i], dc.castElem(i, ix))
		t = nt
	}
	dc.L("_ = %s", t)
}

// maxInWidth is the OutWidth rule for elementwise actors: the widest
// resolved input width (scalars broadcast), or 0 while inputs are pending.
func maxInWidth(in *Info) int {
	w := 0
	for _, iw := range in.InWidths {
		if iw > w {
			w = iw
		}
	}
	return w
}

// promoteInputs folds types.Promote over the resolved input kinds.
// Unresolved inputs are skipped: in delay-broken cycles the stateful
// actor's kind derives from this very actor, so the cycle's kind is pinned
// by its acyclic inputs and the elaboration fixpoint closes the loop.
// With no resolved input at all it returns Invalid and elaboration retries.
func promoteInputs(in *Info) types.Kind {
	k := types.Invalid
	for _, ik := range in.InKinds {
		if ik == types.Invalid {
			continue
		}
		if k == types.Invalid {
			k = ik
		} else {
			k = types.Promote(k, ik)
		}
	}
	return k
}

func registerProduct() {
	register(&Spec{
		Type: "Product", MinIn: 1, MaxIn: 8, NumOut: 1,
		FreeOperator: true,
		OutKind:      func(in *Info) types.Kind { return promoteInputs(in) },
		OutWidth:     maxInWidth,
		Prepare: func(in *Info) error {
			signs, err := signString(in.Operator, in.NumIn(), '*')
			if err != nil {
				return err
			}
			for i := 0; i < len(signs); i++ {
				if signs[i] != '*' && signs[i] != '/' {
					return fmt.Errorf("Product operator %q: sign %q not in {*,/}", in.Operator, signs[i])
				}
			}
			in.Aux = signs
			return nil
		},
		Eval: func(ec *EvalCtx) {
			k := ec.Info.OutKind()
			signs := ec.Info.Aux.(string)
			var acc types.Value
			var res types.OpResult
			if signs[0] == '*' {
				var cr types.ConvertResult
				acc, cr = types.Convert(ec.In[0], k)
				res.OutOfRange = cr.OutOfRange
			} else {
				one, _ := types.ParseValue(k, "1")
				var r types.OpResult
				acc, r = types.Div(k, one, ec.In[0])
				res.Merge(r)
			}
			for i := 1; i < len(ec.In); i++ {
				var r types.OpResult
				if signs[i] == '*' {
					acc, r = types.Mul(k, acc, ec.In[i])
				} else {
					acc, r = types.Div(k, acc, ec.In[i])
				}
				res.Merge(r)
			}
			ec.Flags.Merge(res)
			ec.SetOut(acc)
		},
		Gen: func(gc *GenCtx) error {
			k := gc.Info.OutKind()
			signs := gc.Info.Aux.(string)
			if k.IsFloat() {
				// Pure expression: float division by zero yields ±Inf in
				// both engines.
				gc.ForEachOut(func(ix string) {
					var expr string
					if signs[0] == '*' {
						expr = castIn(gc, 0, ix, k)
					} else {
						one := Cast("1.0", types.F64, k)
						expr = binExpr(k, one, "/", castIn(gc, 0, ix, k))
					}
					for i := 1; i < len(gc.In); i++ {
						expr = binExpr(k, expr, string(signs[i]), castIn(gc, i, ix, k))
					}
					gc.L("%s = %s", gc.OutElem(0, ix), expr)
				})
				return nil
			}
			// Integer path: sequential statements with zero-divisor guards
			// (the semantic guard; reporting happens in the generated
			// diagnosis function).
			gc.ForEachOut(func(ix string) {
				out := gc.OutElem(0, ix)
				if signs[0] == '*' {
					gc.L("%s = %s", out, castIn(gc, 0, ix, k))
				} else {
					d := gc.V("d0" + loopSuffix(ix))
					gc.L("%s := %s", d, castIn(gc, 0, ix, k))
					gc.Block(fmt.Sprintf("if %s == 0", d), func() {
						gc.L("%s = 0", out)
					})
					gc.Block("else", func() {
						gc.L("%s = %s(1) / %s", out, k.GoType(), d)
					})
				}
				for i := 1; i < len(gc.In); i++ {
					if signs[i] == '*' {
						gc.L("%s = %s * %s", out, out, castIn(gc, i, ix, k))
						continue
					}
					d := gc.V(fmt.Sprintf("d%d%s", i, loopSuffix(ix)))
					gc.L("%s := %s", d, castIn(gc, i, ix, k))
					gc.Block(fmt.Sprintf("if %s == 0", d), func() {
						gc.L("%s = 0", out)
					})
					gc.Block("else", func() {
						gc.L("%s = %s / %s", out, out, d)
					})
				}
			})
			return nil
		},
		DiagRules: arithRules(true),
		DiagGen: func(dc *DiagCtx) {
			signs := dc.Info.Aux.(string)
			k := dc.Info.OutKind()
			if len(signs) > 1 && dc.outputNaN() {
				return
			}
			if !k.IsInteger() && !k.IsFloat() {
				return
			}
			one := Cast("1.0", types.F64, k)
			if k.IsInteger() {
				v, _ := types.ParseValue(k, "1")
				one = v.GoLiteral()
			}
			dc.forWidth(dc.Info.OutWidth(), func(ix string) {
				t := dc.tmp("t")
				dc.L("var %s %s", t, k.GoType())
				if signs[0] == '*' {
					dc.L("%s = %s", t, dc.castElem(0, ix))
				} else {
					dc.arith(t, one, '/', dc.castElem(0, ix))
				}
				dc.chain(t, signs, ix)
			})
		},
	})
}

// loopSuffix disambiguates temporaries declared inside vector loops.
func loopSuffix(ix string) string {
	if ix == "" {
		return ""
	}
	return "v"
}

func registerGain() {
	register(&Spec{
		Type: "Gain", MinIn: 1, MaxIn: 1, NumOut: 1,
		OutKind:  func(in *Info) types.Kind { return in.InKinds[0] },
		OutWidth: maxInWidth,
		Prepare: func(in *Info) error {
			g, err := paramValue(in, "Gain", in.OutKind(), "1")
			if err != nil {
				return err
			}
			in.Aux = g
			return nil
		},
		Eval: func(ec *EvalCtx) {
			v, res := types.Mul(ec.Info.OutKind(), ec.In[0], ec.Info.Aux.(types.Value))
			ec.Flags.Merge(res)
			ec.SetOut(v)
		},
		Gen: func(gc *GenCtx) error {
			k := gc.Info.OutKind()
			g := gc.Info.Aux.(types.Value)
			gc.ForEachOut(func(ix string) {
				gc.L("%s = %s", gc.OutElem(0, ix),
					binExpr(k, castIn(gc, 0, ix, k), "*", g.GoLiteral()))
			})
			return nil
		},
		DiagRules: arithRules(false),
		DiagGen:   diagConstOp('*'),
	})
}

// diagConstOp is the check emitter of Gain ('*') and Bias ('+'): the
// operation with the actor's constant, checked per element.
func diagConstOp(op byte) func(*DiagCtx) {
	return func(dc *DiagCtx) {
		if dc.outputNaN() {
			return
		}
		lit := dc.Info.Aux.(types.Value).GoLiteral()
		dc.forWidth(dc.Info.OutWidth(), func(ix string) {
			t := dc.tmp("t")
			dc.L("var %s %s", t, dc.Info.OutKind().GoType())
			dc.arith(t, dc.castElem(0, ix), op, lit)
			dc.L("_ = %s", t)
		})
	}
}

func registerBias() {
	register(&Spec{
		Type: "Bias", MinIn: 1, MaxIn: 1, NumOut: 1,
		OutKind:  func(in *Info) types.Kind { return in.InKinds[0] },
		OutWidth: maxInWidth,
		Prepare: func(in *Info) error {
			b, err := paramValue(in, "Bias", in.OutKind(), "0")
			if err != nil {
				return err
			}
			in.Aux = b
			return nil
		},
		Eval: func(ec *EvalCtx) {
			v, res := types.Add(ec.Info.OutKind(), ec.In[0], ec.Info.Aux.(types.Value))
			ec.Flags.Merge(res)
			ec.SetOut(v)
		},
		Gen: func(gc *GenCtx) error {
			k := gc.Info.OutKind()
			b := gc.Info.Aux.(types.Value)
			gc.ForEachOut(func(ix string) {
				gc.L("%s = %s", gc.OutElem(0, ix),
					binExpr(k, castIn(gc, 0, ix, k), "+", b.GoLiteral()))
			})
			return nil
		},
		DiagRules: arithRules(true),
		DiagGen:   diagConstOp('+'),
	})
}

func registerAbs() {
	register(&Spec{
		Type: "Abs", MinIn: 1, MaxIn: 1, NumOut: 1,
		OutKind:  func(in *Info) types.Kind { return in.InKinds[0] },
		OutWidth: maxInWidth,
		Eval: func(ec *EvalCtx) {
			v, res := types.Abs(ec.Info.OutKind(), ec.In[0])
			ec.Flags.Merge(res)
			ec.SetOut(v)
		},
		Gen: func(gc *GenCtx) error {
			k := gc.Info.OutKind()
			gc.ForEachOut(func(ix string) {
				out := gc.OutElem(0, ix)
				in := castIn(gc, 0, ix, k)
				switch {
				case k.IsFloat():
					gc.Prog.Import("math")
					gc.L("%s = %s", out, Cast(fmt.Sprintf("math.Abs(float64(%s))", in), types.F64, k))
				case k.IsUnsigned() || k == types.Bool:
					gc.L("%s = %s", out, in)
				default:
					t := gc.V("abs" + loopSuffix(ix))
					gc.L("%s := %s", t, in)
					gc.Block(fmt.Sprintf("if %s < 0", t), func() {
						gc.L("%s = -%s", out, t)
					})
					gc.Block("else", func() {
						gc.L("%s = %s", out, t)
					})
				}
			})
			return nil
		},
		DiagRules: negOverflowRules,
		DiagGen:   diagNegOverflow,
	})
}

// negOverflowRules is the rule set of Abs and UnaryMinus: a signed
// output overflows on its minimum.
func negOverflowRules(in *Info) []diagnose.Kind {
	return ruleIf(in.OutKind().IsSigned(), diagnose.WrapOnOverflow)
}

// diagNegOverflow flags a negative input whose negation stayed negative.
func diagNegOverflow(dc *DiagCtx) {
	w := dc.Info.OutWidth()
	dc.forWidth(w, func(ix string) {
		dc.raise("ovf", fmt.Sprintf("(%s < 0 && %s < 0)", dc.castElem(0, ix), elem("out", w, ix)))
	})
}

func registerUnaryMinus() {
	register(&Spec{
		Type: "UnaryMinus", MinIn: 1, MaxIn: 1, NumOut: 1,
		OutKind:  func(in *Info) types.Kind { return in.InKinds[0] },
		OutWidth: maxInWidth,
		Eval: func(ec *EvalCtx) {
			v, res := types.Neg(ec.Info.OutKind(), ec.In[0])
			ec.Flags.Merge(res)
			ec.SetOut(v)
		},
		Gen: func(gc *GenCtx) error {
			k := gc.Info.OutKind()
			gc.ForEachOut(func(ix string) {
				// (0 - x), not -x: keeps -0.0 handling identical to the
				// interpreter's Sub-from-zero definition.
				gc.L("%s = %s", gc.OutElem(0, ix),
					binExpr(k, goZero(k), "-", castIn(gc, 0, ix, k)))
			})
			return nil
		},
		DiagRules: negOverflowRules,
		DiagGen:   diagNegOverflow,
	})
}

var mathOperators = []string{
	"exp", "log", "log10", "log2", "sqrt", "sin", "cos", "tan",
	"asin", "acos", "atan", "sinh", "cosh", "tanh", "reciprocal", "square",
}

func registerMath() {
	register(&Spec{
		Type: "Math", MinIn: 1, MaxIn: 1, NumOut: 1,
		OutWidth:        maxInWidth,
		Operators:       mathOperators,
		DefaultOperator: "exp",
		OutKind:         func(in *Info) types.Kind { return floatOrF64(in.InKinds[0]) },
		Eval:            evalMathUnary,
		Gen:             genMathUnary,
		DiagRules:       mathRules,
		DiagGen:         diagMathUnary,
	})
}

func registerSqrt() {
	register(&Spec{
		Type: "Sqrt", MinIn: 1, MaxIn: 1, NumOut: 1,
		OutWidth:        maxInWidth,
		Operators:       []string{"sqrt"},
		DefaultOperator: "sqrt",
		OutKind:         func(in *Info) types.Kind { return floatOrF64(in.InKinds[0]) },
		Eval:            evalMathUnary,
		Gen:             genMathUnary,
		DiagRules:       mathRules,
		DiagGen:         diagMathUnary,
	})
}

// floatOrF64 keeps float input kinds and widens everything else to F64.
func floatOrF64(k types.Kind) types.Kind {
	if k.IsFloat() {
		return k
	}
	if k == types.Invalid {
		return types.Invalid
	}
	return types.F64
}

func evalMathUnary(ec *EvalCtx) {
	v, res := types.MathUnary(ec.Info.Operator, ec.Info.OutKind(), ec.In[0])
	ec.Flags.Merge(res)
	ec.SetOut(v)
}

func genMathUnary(gc *GenCtx) error {
	k := gc.Info.OutKind()
	op := gc.Info.Operator
	if op != "reciprocal" && op != "square" {
		gc.Prog.Import("math")
	}
	gc.ForEachOut(func(ix string) {
		x := castToF64(gc.InElem(0, ix), gc.Info.InKinds[0])
		expr := types.MathGoExpr(op, x)
		if expr == "" {
			gc.Errf("Math: no Go template for operator %q", op)
			return
		}
		gc.L("%s = %s", gc.OutElem(0, ix), Cast(expr, types.F64, k))
	})
	return gc.Err()
}

// mathRules is the rule set of Math, Sqrt and Rounding: the operator's
// domain or zero-divisor error, and NaN/Inf on a float output.
func mathRules(in *Info) []diagnose.Kind {
	var ks []diagnose.Kind
	switch in.Operator {
	case "log", "log10", "log2", "sqrt", "asin", "acos":
		ks = append(ks, diagnose.DomainError)
	case "reciprocal":
		ks = append(ks, diagnose.DivisionByZero)
	}
	if in.OutKind().IsFloat() {
		ks = append(ks, diagnose.NaNOrInf)
	}
	return ks
}

// diagMathUnary checks each element's argument against the operator's
// domain and its result for NaN/Inf.
func diagMathUnary(dc *DiagCtx) {
	if dc.outputNaN() {
		return
	}
	in := dc.Info
	x := dc.tmp("x")
	dc.forWidth(in.OutWidth(), func(ix string) {
		dc.L("%s := %s", x, castToF64(elem("in0", in.InWidths[0], ix), in.InKinds[0]))
		switch in.Operator {
		case "log", "log10", "log2":
			dc.raise("dom", x+" <= 0")
		case "sqrt":
			dc.raise("dom", x+" < 0")
		case "asin", "acos":
			dc.raise("dom", fmt.Sprintf("%s < -1 || %s > 1", x, x))
		case "reciprocal":
			dc.raise("dbz", x+" == 0")
		default:
			dc.L("_ = %s", x)
		}
		dc.nanCheck(elem("out", in.OutWidth(), ix))
		x = dc.tmp("x")
	})
}

func registerMinMax() {
	register(&Spec{
		Type: "MinMax", MinIn: 1, MaxIn: 8, NumOut: 1,
		ScalarOnly:      true,
		Operators:       []string{"min", "max"},
		DefaultOperator: "min",
		OutKind:         func(in *Info) types.Kind { return promoteInputs(in) },
		Eval: func(ec *EvalCtx) {
			k := ec.Info.OutKind()
			acc, cr := types.Convert(ec.In[0], k)
			ec.Flags.OutOfRange = ec.Flags.OutOfRange || cr.OutOfRange
			for i := 1; i < len(ec.In); i++ {
				v, r := types.Convert(ec.In[i], k)
				ec.Flags.OutOfRange = ec.Flags.OutOfRange || r.OutOfRange
				c := types.Compare(v, acc)
				if (ec.Info.Operator == "min" && c == -1) || (ec.Info.Operator == "max" && c == 1) {
					acc = v
				}
			}
			ec.SetOut(acc)
		},
		Gen: func(gc *GenCtx) error {
			k := gc.Info.OutKind()
			rel := "<"
			if gc.Info.Operator == "max" {
				rel = ">"
			}
			gc.ForEachOut(func(ix string) {
				out := gc.OutElem(0, ix)
				gc.L("%s = %s", out, castIn(gc, 0, ix, k))
				for i := 1; i < len(gc.In); i++ {
					c := gc.V(fmt.Sprintf("mm%d%s", i, loopSuffix(ix)))
					gc.L("%s := %s", c, castIn(gc, i, ix, k))
					gc.Block(fmt.Sprintf("if %s %s %s", c, rel, out), func() {
						gc.L("%s = %s", out, c)
					})
				}
			})
			return nil
		},
	})
}

func registerSign() {
	register(&Spec{
		Type: "Sign", MinIn: 1, MaxIn: 1, NumOut: 1,
		OutKind:  func(in *Info) types.Kind { return in.InKinds[0] },
		OutWidth: maxInWidth,
		Eval: func(ec *EvalCtx) {
			k := ec.Info.OutKind()
			apply := func(e types.Value) types.Value {
				switch types.Compare(e, types.Zero(e.Kind)) {
				case 1:
					v, _ := types.ParseValue(k, "1")
					return v
				case -1:
					if k.IsUnsigned() || k == types.Bool {
						return types.Zero(k)
					}
					v, _ := types.ParseValue(k, "-1")
					return v
				default:
					return types.Zero(k)
				}
			}
			in := ec.In[0]
			if in.IsVector() {
				out := types.Value{Kind: k, Elems: make([]types.Value, in.Width())}
				for i := range out.Elems {
					out.Elems[i] = apply(in.Elem(i))
				}
				ec.SetOut(out)
				return
			}
			ec.SetOut(apply(in))
		},
		Gen: func(gc *GenCtx) error {
			k := gc.Info.OutKind()
			gc.ForEachOut(func(ix string) {
				out := gc.OutElem(0, ix)
				in := gc.InElem(0, ix)
				zero := goZero(gc.Info.InKinds[0])
				gc.Block(fmt.Sprintf("if %s > %s", in, zero), func() {
					gc.L("%s = %s(1)", out, k.GoType())
				})
				if k.IsUnsigned() {
					gc.Block("else", func() {
						gc.L("%s = 0", out)
					})
					return
				}
				gc.Block(fmt.Sprintf("else if %s < %s", in, zero), func() {
					gc.L("%s = %s(0) - %s(1)", out, k.GoType(), k.GoType())
				})
				gc.Block("else", func() {
					gc.L("%s = 0", out)
				})
			})
			return nil
		},
	})
}

func registerRounding() {
	register(&Spec{
		Type: "Rounding", MinIn: 1, MaxIn: 1, NumOut: 1,
		OutWidth:        maxInWidth,
		Operators:       []string{"floor", "ceil", "round", "fix"},
		DefaultOperator: "round",
		OutKind:         func(in *Info) types.Kind { return floatOrF64(in.InKinds[0]) },
		Eval:            evalMathUnary,
		Gen:             genMathUnary,
		DiagRules:       mathRules,
		DiagGen:         diagMathUnary,
	})
}

func registerPolynomial() {
	register(&Spec{
		Type: "Polynomial", MinIn: 1, MaxIn: 1, NumOut: 1,
		ScalarOnly: true,
		OutKind:    func(in *Info) types.Kind { return floatOrF64(in.InKinds[0]) },
		Prepare: func(in *Info) error {
			coeffs, err := paramF64Slice(in, "Coeffs")
			if err != nil {
				return err
			}
			in.Aux = coeffs
			return nil
		},
		Eval: func(ec *EvalCtx) {
			coeffs := ec.Info.Aux.([]float64)
			x := ec.In[0].AsFloat()
			p := coeffs[0]
			for _, c := range coeffs[1:] {
				p = p*x + c
			}
			v, cr := types.Convert(types.FloatVal(types.F64, p), ec.Info.OutKind())
			ec.Flags.OutOfRange = ec.Flags.OutOfRange || cr.OutOfRange
			if v.Kind == types.F32 {
				p = v.F // flag the output, as types.MathUnary does
			}
			if math.IsNaN(p) || math.IsInf(p, 0) {
				ec.Flags.NaNOrInf = true
			}
			ec.SetOut(v)
		},
		Gen: func(gc *GenCtx) error {
			coeffs := gc.Info.Aux.([]float64)
			x := castToF64(gc.In[0], gc.Info.InKinds[0])
			xv := gc.V("px")
			gc.L("%s := %s", xv, x)
			expr := f64Lit(coeffs[0])
			for _, c := range coeffs[1:] {
				expr = fmt.Sprintf("(%s*%s + %s)", expr, xv, f64Lit(c))
			}
			gc.L("%s = %s", gc.Out[0], Cast(expr, types.F64, gc.Info.OutKind()))
			return nil
		},
		DiagRules: func(in *Info) []diagnose.Kind {
			return ruleIf(in.OutKind().IsFloat(), diagnose.NaNOrInf)
		},
		DiagGen: func(dc *DiagCtx) { dc.outputNaN() },
	})
}

func registerDotProduct() {
	register(&Spec{
		Type: "DotProduct", MinIn: 2, MaxIn: 2, NumOut: 1,
		OutKind:  func(in *Info) types.Kind { return promoteInputs(in) },
		OutWidth: func(in *Info) int { return 1 },
		Eval: func(ec *EvalCtx) {
			k := ec.Info.OutKind()
			a, b := ec.In[0], ec.In[1]
			width := a.Width()
			if b.Width() > width {
				width = b.Width()
			}
			acc := types.Zero(k)
			for i := 0; i < width; i++ {
				prod, r1 := types.Mul(k, a.Elem(i), b.Elem(i))
				var r2 types.OpResult
				acc, r2 = types.Add(k, acc, prod)
				ec.Flags.Merge(r1)
				ec.Flags.Merge(r2)
			}
			ec.SetOut(acc)
		},
		Gen: func(gc *GenCtx) error {
			k := gc.Info.OutKind()
			width := gc.Info.InWidths[0]
			if gc.Info.InWidths[1] > width {
				width = gc.Info.InWidths[1]
			}
			gc.L("%s = %s", gc.Out[0], goZero(k))
			body := func(ix string) {
				prod := binExpr(k, castIn(gc, 0, ix, k), "*", castIn(gc, 1, ix, k))
				gc.L("%s = %s", gc.Out[0], binExpr(k, gc.Out[0], "+", prod))
			}
			if width <= 1 {
				body("")
			} else {
				gc.Block(fmt.Sprintf("for i := 0; i < %d; i++", width), func() { body("[i]") })
			}
			return nil
		},
		DiagRules: arithRules(true),
		DiagGen: func(dc *DiagCtx) {
			k := dc.Info.OutKind()
			if !k.IsInteger() && !k.IsFloat() {
				return
			}
			acc := dc.tmp("acc")
			dc.L("var %s %s", acc, k.GoType())
			dc.forWidth(max(dc.Info.InWidths[0], dc.Info.InWidths[1]), func(ix string) {
				p := dc.tmp("p")
				n := dc.tmp("n")
				dc.L("var %s %s", p, k.GoType())
				dc.L("var %s %s", n, k.GoType())
				dc.arith(p, dc.castElem(0, ix), '*', dc.castElem(1, ix))
				dc.arith(n, acc, '+', p)
				dc.L("%s = %s", acc, n)
			})
			dc.L("_ = %s", acc)
		},
	})
}

func registerReduce() {
	type reduceCfg struct {
		typ  string
		op   string // "+" or "*"
		init string
		// downcast: the type reports a downcast once.
		downcast bool
	}
	for _, cfg := range []reduceCfg{
		{"SumOfElements", "+", "0", true},
		{"ProductOfElements", "*", "1", false},
	} {
		cfg := cfg
		register(&Spec{
			Type: model.ActorType(cfg.typ), MinIn: 1, MaxIn: 1, NumOut: 1,
			OutKind:  func(in *Info) types.Kind { return in.InKinds[0] },
			OutWidth: func(in *Info) int { return 1 },
			Eval: func(ec *EvalCtx) {
				k := ec.Info.OutKind()
				acc, _ := types.ParseValue(k, cfg.init)
				in := ec.In[0]
				for i := 0; i < in.Width(); i++ {
					var r types.OpResult
					if cfg.op == "+" {
						acc, r = types.Add(k, acc, in.Elem(i))
					} else {
						acc, r = types.Mul(k, acc, in.Elem(i))
					}
					ec.Flags.Merge(r)
				}
				ec.SetOut(acc)
			},
			Gen: func(gc *GenCtx) error {
				k := gc.Info.OutKind()
				width := gc.Info.InWidths[0]
				init, _ := types.ParseValue(k, cfg.init)
				gc.L("%s = %s", gc.Out[0], init.GoLiteral())
				body := func(ix string) {
					gc.L("%s = %s", gc.Out[0], binExpr(k, gc.Out[0], cfg.op, castIn(gc, 0, ix, k)))
				}
				if width <= 1 {
					body("")
				} else {
					gc.Block(fmt.Sprintf("for i := 0; i < %d; i++", width), func() { body("[i]") })
				}
				return nil
			},
			DiagRules: arithRules(cfg.downcast),
			DiagGen: func(dc *DiagCtx) {
				k := dc.Info.OutKind()
				if !k.IsInteger() && !k.IsFloat() {
					return
				}
				acc := dc.tmp("acc")
				if cfg.op == "+" {
					dc.L("var %s %s", acc, k.GoType())
				} else {
					init, _ := types.ParseValue(k, cfg.init)
					dc.L("%s := %s", acc, init.GoLiteral())
				}
				dc.forWidth(dc.Info.InWidths[0], func(ix string) {
					n := dc.tmp("n")
					dc.L("var %s %s", n, k.GoType())
					dc.arith(n, acc, cfg.op[0], dc.castElem(0, ix))
					dc.L("%s = %s", acc, n)
				})
				dc.L("_ = %s", acc)
			},
		})
	}
}

func registerMod() {
	register(&Spec{
		Type: "Mod", MinIn: 2, MaxIn: 2, NumOut: 1,
		OutKind:  func(in *Info) types.Kind { return promoteInputs(in) },
		OutWidth: maxInWidth,
		Eval: func(ec *EvalCtx) {
			v, res := types.Mod(ec.Info.OutKind(), ec.In[0], ec.In[1])
			ec.Flags.Merge(res)
			ec.SetOut(v)
		},
		Gen: func(gc *GenCtx) error {
			k := gc.Info.OutKind()
			gc.ForEachOut(func(ix string) {
				out := gc.OutElem(0, ix)
				a := castIn(gc, 0, ix, k)
				b := castIn(gc, 1, ix, k)
				if k.IsFloat() {
					gc.Prog.Import("math")
					expr := fmt.Sprintf("math.Mod(float64(%s), float64(%s))", a, b)
					gc.L("%s = %s", out, Cast(expr, types.F64, k))
					return
				}
				d := gc.V("md" + loopSuffix(ix))
				gc.L("%s := %s", d, b)
				gc.Block(fmt.Sprintf("if %s == 0", d), func() {
					gc.L("%s = 0", out)
				})
				gc.Block("else", func() {
					gc.L("%s = %s %% %s", out, a, d)
				})
			})
			return nil
		},
		DiagRules: func(*Info) []diagnose.Kind { return []diagnose.Kind{diagnose.DivisionByZero} },
		DiagGen: func(dc *DiagCtx) {
			dc.forWidth(dc.Info.OutWidth(), func(ix string) {
				dc.raise("dbz", fmt.Sprintf("%s == %s", dc.castElem(1, ix), goZero(dc.Info.OutKind())))
			})
		},
	})
}
