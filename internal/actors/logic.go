package actors

import (
	"fmt"

	"accmos/internal/diagnose"
	"accmos/internal/types"
)

// Logic actors: Boolean combination and relational operators. These carry
// the decision-coverage and MC/DC instrumentation in the paper's Algorithm
// 1 (containBooleanLogic / isCombinationCondition).

func init() {
	registerLogic()
	registerRelational()
	registerCompareToConstant()
	registerCompareToZero()
	registerBitwise()
	registerShift()
}

var logicOps = []string{"AND", "OR", "NAND", "NOR", "XOR", "NXOR", "NOT"}

// logicEval computes the combination result over condition values.
func logicEval(op string, conds []bool) bool {
	switch op {
	case "AND", "NAND":
		out := true
		for _, c := range conds {
			out = out && c
		}
		if op == "NAND" {
			return !out
		}
		return out
	case "OR", "NOR":
		out := false
		for _, c := range conds {
			out = out || c
		}
		if op == "NOR" {
			return !out
		}
		return out
	case "XOR", "NXOR":
		out := false
		for _, c := range conds {
			out = out != c
		}
		if op == "NXOR" {
			return !out
		}
		return out
	case "NOT":
		return !conds[0]
	}
	return false
}

func registerLogic() {
	register(&Spec{
		Type: "Logic", MinIn: 1, MaxIn: 8, NumOut: 1,
		ScalarOnly:      true,
		Operators:       logicOps,
		DefaultOperator: "AND",
		BooleanOut:      true,
		Combination:     true,
		OutKind:         func(*Info) types.Kind { return types.Bool },
		Prepare: func(in *Info) error {
			if in.Operator == "NOT" && in.NumIn() != 1 {
				return fmt.Errorf("Logic NOT takes exactly 1 input, got %d", in.NumIn())
			}
			return nil
		},
		Eval: func(ec *EvalCtx) {
			for _, v := range ec.In {
				ec.Conds = append(ec.Conds, v.AsBool())
			}
			out := logicEval(ec.Info.Operator, ec.Conds)
			ec.setDecision(out)
			ec.SetOut(types.BoolVal(out))
		},
		Gen: func(gc *GenCtx) error {
			op := gc.Info.Operator
			n := len(gc.In)
			// Bind each condition to a variable: reused by the decision
			// expression and by the MC/DC masking instrumentation.
			cv := make([]string, n)
			for i := range gc.In {
				cv[i] = gc.V(fmt.Sprintf("c%d", i))
				gc.L("%s := %s", cv[i], TruthExpr(gc.In[i], gc.Info.InKinds[i]))
			}
			var expr string
			inner, joiner, negate := "", "", false
			switch op {
			case "AND":
				joiner = " && "
			case "NAND":
				joiner, negate = " && ", true
			case "OR":
				joiner = " || "
			case "NOR":
				joiner, negate = " || ", true
			case "XOR":
				joiner = " != "
			case "NXOR":
				joiner, negate = " != ", true
			case "NOT":
				expr = "!" + cv[0]
			}
			if expr == "" {
				for i, v := range cv {
					if i > 0 {
						inner += joiner
					}
					inner += v
				}
				expr = "(" + inner + ")"
				if negate {
					expr = "!" + expr
				}
			}
			gc.L("%s = %s", gc.Out[0], expr)
			gc.DecCov(gc.Out[0])
			genMCDC(gc, op, cv)
			return nil
		},
	})
}

// genMCDC emits masking MC/DC instrumentation: condition i is marked as
// "determines with value v" when, under the masking rule for the operator,
// flipping condition i alone would flip the decision. Two bitmap slots per
// condition: [2i] = determined while true, [2i+1] = determined while false.
func genMCDC(gc *GenCtx, op string, cv []string) {
	if !gc.CoverageOn || gc.MCDCBase < 0 || len(cv) < 2 {
		return
	}
	mark := func(i int, cond string) {
		emit := func() {
			gc.Block(fmt.Sprintf("if %s", cv[i]), func() {
				gc.L("mcdcBitmap[%d] = 1", gc.MCDCBase+2*i)
			})
			gc.Block("else", func() {
				gc.L("mcdcBitmap[%d] = 1", gc.MCDCBase+2*i+1)
			})
		}
		if cond == "" {
			emit()
			return
		}
		gc.Block(fmt.Sprintf("if %s", cond), emit)
	}
	for i := range cv {
		var guard string
		switch op {
		case "AND", "NAND":
			// i determines the outcome when every other condition is true.
			for j := range cv {
				if j == i {
					continue
				}
				if guard != "" {
					guard += " && "
				}
				guard += cv[j]
			}
		case "OR", "NOR":
			// i determines the outcome when every other condition is false.
			for j := range cv {
				if j == i {
					continue
				}
				if guard != "" {
					guard += " && "
				}
				guard += "!" + cv[j]
			}
		case "XOR", "NXOR":
			// every condition always determines the outcome.
			guard = ""
		}
		mark(i, guard)
	}
}

var relationalOps = []string{"==", "~=", "<", "<=", ">", ">="}

// relationalHolds applies a relational operator to a Compare result
// (types.Compare returns -2 for NaN-incomparable pairs).
func relationalHolds(op string, c int) bool {
	switch op {
	case "==":
		return c == 0
	case "~=":
		return c != 0 // NaN != anything, matching IEEE and Go
	case "<":
		return c == -1
	case "<=":
		return c == -1 || c == 0
	case ">":
		return c == 1
	case ">=":
		return c == 1 || c == 0
	}
	return false
}

// relGoOp maps the model operator to the Go operator.
func relGoOp(op string) string {
	if op == "~=" {
		return "!="
	}
	return op
}

func registerRelational() {
	register(&Spec{
		Type: "RelationalOperator", MinIn: 2, MaxIn: 2, NumOut: 1,
		ScalarOnly:      true,
		Operators:       relationalOps,
		DefaultOperator: "==",
		BooleanOut:      true,
		OutKind:         func(*Info) types.Kind { return types.Bool },
		Eval: func(ec *EvalCtx) {
			out := relationalHolds(ec.Info.Operator, types.Compare(ec.In[0], ec.In[1]))
			ec.setDecision(out)
			ec.SetOut(types.BoolVal(out))
		},
		Gen: func(gc *GenCtx) error {
			k := types.Promote(gc.Info.InKinds[0], gc.Info.InKinds[1])
			a := Cast(gc.In[0], gc.Info.InKinds[0], k)
			b := Cast(gc.In[1], gc.Info.InKinds[1], k)
			if k == types.Bool {
				// Booleans only support (in)equality; order relations go
				// through 0/1 integers.
				switch gc.Info.Operator {
				case "==", "~=":
					gc.L("%s = (%s %s %s)", gc.Out[0], a, relGoOp(gc.Info.Operator), b)
				default:
					gc.L("%s = (b2i(%s) %s b2i(%s))", gc.Out[0], a, relGoOp(gc.Info.Operator), b)
				}
			} else {
				gc.L("%s = (%s %s %s)", gc.Out[0], a, relGoOp(gc.Info.Operator), b)
			}
			gc.DecCov(gc.Out[0])
			return nil
		},
	})
}

func registerCompareToConstant() {
	register(&Spec{
		Type: "CompareToConstant", MinIn: 1, MaxIn: 1, NumOut: 1,
		ScalarOnly:      true,
		Operators:       relationalOps,
		DefaultOperator: ">=",
		BooleanOut:      true,
		OutKind:         func(*Info) types.Kind { return types.Bool },
		Prepare: func(in *Info) error {
			k := in.InKinds[0]
			if k == types.Invalid {
				k = types.F64
			}
			c, err := paramValue(in, "Constant", k, "0")
			if err != nil {
				return err
			}
			in.Aux = c
			return nil
		},
		Eval: func(ec *EvalCtx) {
			out := relationalHolds(ec.Info.Operator, types.Compare(ec.In[0], ec.Info.Aux.(types.Value)))
			ec.setDecision(out)
			ec.SetOut(types.BoolVal(out))
		},
		Gen: func(gc *GenCtx) error {
			c := gc.Info.Aux.(types.Value)
			k := types.Promote(gc.Info.InKinds[0], c.Kind)
			a := Cast(gc.In[0], gc.Info.InKinds[0], k)
			b := Cast(c.GoLiteral(), c.Kind, k)
			gc.L("%s = (%s %s %s)", gc.Out[0], a, relGoOp(gc.Info.Operator), b)
			gc.DecCov(gc.Out[0])
			return nil
		},
	})
}

func registerCompareToZero() {
	register(&Spec{
		Type: "CompareToZero", MinIn: 1, MaxIn: 1, NumOut: 1,
		ScalarOnly:      true,
		Operators:       relationalOps,
		DefaultOperator: ">=",
		BooleanOut:      true,
		OutKind:         func(*Info) types.Kind { return types.Bool },
		Eval: func(ec *EvalCtx) {
			out := relationalHolds(ec.Info.Operator, types.Compare(ec.In[0], types.Zero(ec.In[0].Kind)))
			ec.setDecision(out)
			ec.SetOut(types.BoolVal(out))
		},
		Gen: func(gc *GenCtx) error {
			k := gc.Info.InKinds[0]
			if k == types.Bool {
				switch gc.Info.Operator {
				case "==", "~=":
					gc.L("%s = (%s %s false)", gc.Out[0], gc.In[0], relGoOp(gc.Info.Operator))
				default:
					gc.L("%s = (b2i(%s) %s 0)", gc.Out[0], gc.In[0], relGoOp(gc.Info.Operator))
				}
			} else {
				gc.L("%s = (%s %s %s)", gc.Out[0], gc.In[0], relGoOp(gc.Info.Operator), goZero(k))
			}
			gc.DecCov(gc.Out[0])
			return nil
		},
	})
}

func registerBitwise() {
	register(&Spec{
		Type: "BitwiseOperator", MinIn: 1, MaxIn: 8, NumOut: 1,
		ScalarOnly:      true,
		Operators:       []string{"AND", "OR", "XOR", "NOT"},
		DefaultOperator: "AND",
		OutKind:         func(in *Info) types.Kind { return in.InKinds[0] },
		Prepare: func(in *Info) error {
			if !in.OutKind().IsInteger() {
				return fmt.Errorf("BitwiseOperator needs an integer type, got %s", in.OutKind())
			}
			if in.Operator == "NOT" && in.NumIn() != 1 {
				return fmt.Errorf("BitwiseOperator NOT takes exactly 1 input, got %d", in.NumIn())
			}
			if in.Operator != "NOT" && in.NumIn() < 2 {
				return fmt.Errorf("BitwiseOperator %s needs >= 2 inputs", in.Operator)
			}
			return nil
		},
		Eval: func(ec *EvalCtx) {
			k := ec.Info.OutKind()
			if ec.Info.Operator == "NOT" {
				v, _ := types.Convert(ec.In[0], k)
				if k.IsSigned() {
					ec.SetOut(types.IntVal(k, ^v.I))
				} else {
					ec.SetOut(types.UintVal(k, ^v.U))
				}
				return
			}
			acc, _ := types.Convert(ec.In[0], k)
			for i := 1; i < len(ec.In); i++ {
				v, _ := types.Convert(ec.In[i], k)
				if k.IsSigned() {
					switch ec.Info.Operator {
					case "AND":
						acc.I &= v.I
					case "OR":
						acc.I |= v.I
					case "XOR":
						acc.I ^= v.I
					}
				} else {
					switch ec.Info.Operator {
					case "AND":
						acc.U &= v.U
					case "OR":
						acc.U |= v.U
					case "XOR":
						acc.U ^= v.U
					}
				}
			}
			ec.SetOut(acc)
		},
		Gen: func(gc *GenCtx) error {
			k := gc.Info.OutKind()
			if gc.Info.Operator == "NOT" {
				gc.L("%s = ^%s", gc.Out[0], castIn(gc, 0, "", k))
				return nil
			}
			goOp := map[string]string{"AND": "&", "OR": "|", "XOR": "^"}[gc.Info.Operator]
			expr := castIn(gc, 0, "", k)
			for i := 1; i < len(gc.In); i++ {
				expr = fmt.Sprintf("(%s %s %s)", expr, goOp, castIn(gc, i, "", k))
			}
			gc.L("%s = %s", gc.Out[0], expr)
			return nil
		},
	})
}

func registerShift() {
	register(&Spec{
		Type: "Shift", MinIn: 1, MaxIn: 1, NumOut: 1,
		ScalarOnly:      true,
		Operators:       []string{"left", "right"},
		DefaultOperator: "left",
		OutKind:         func(in *Info) types.Kind { return in.InKinds[0] },
		Prepare: func(in *Info) error {
			if !in.OutKind().IsInteger() {
				return fmt.Errorf("Shift needs an integer type, got %s", in.OutKind())
			}
			n, err := paramI64(in, "Bits", 1)
			if err != nil {
				return err
			}
			if n < 0 || n > 63 {
				return fmt.Errorf("Shift Bits=%d out of range [0,63]", n)
			}
			in.Aux = n
			return nil
		},
		Eval: func(ec *EvalCtx) {
			k := ec.Info.OutKind()
			n := ec.Info.Aux.(int64)
			v, _ := types.Convert(ec.In[0], k)
			if ec.Info.Operator == "left" {
				if k.IsSigned() {
					shifted := types.WrapInt(k, v.I<<uint(n))
					// Wrap on overflow: shifting back does not restore the
					// value.
					if types.WrapInt(k, shifted>>uint(n)) != v.I {
						ec.Flags.Overflow = true
					}
					ec.SetOut(types.Value{Kind: k, I: shifted})
				} else {
					shifted := types.WrapUint(k, v.U<<uint(n))
					if shifted>>uint(n) != v.U {
						ec.Flags.Overflow = true
					}
					ec.SetOut(types.Value{Kind: k, U: shifted})
				}
				return
			}
			if k.IsSigned() {
				ec.SetOut(types.Value{Kind: k, I: v.I >> uint(n)})
			} else {
				ec.SetOut(types.Value{Kind: k, U: v.U >> uint(n)})
			}
		},
		Gen: func(gc *GenCtx) error {
			k := gc.Info.OutKind()
			n := gc.Info.Aux.(int64)
			op := "<<"
			if gc.Info.Operator == "right" {
				op = ">>"
			}
			gc.L("%s = %s %s %d", gc.Out[0], castIn(gc, 0, "", k), op, n)
			return nil
		},
		DiagRules: func(in *Info) []diagnose.Kind {
			return ruleIf(in.Operator == "left", diagnose.WrapOnOverflow)
		},
		DiagGen: func(dc *DiagCtx) {
			in := dc.Info
			dc.raise("ovf", fmt.Sprintf("(out >> %d) != %s", in.Aux.(int64), Cast("in0", in.InKinds[0], in.OutKind())))
		},
	})
}
