package codegen

import (
	"fmt"
	"strings"

	"accmos/internal/actors"
	"accmos/internal/diagnose"
	"accmos/internal/types"
)

// Diagnosis generation (paper Figures 4-5). An actor whose NaN/Inf
// diagnosis reduces to a test of its output (outputNaNCheck) gets one call
// to the shared runtime checker on the value the step code already
// computed. Every other actor on the diagnose list gets a generated
// function, called right after the actor's code (Figure 5, line 7), that
// re-derives the error conditions from the actor's runtime inputs and
// output. Detection conditions mirror the interpreter's flag semantics
// exactly, so both engines find the same errors at the same steps.

// diagWriter accumulates one diagnosis function body.
type diagWriter struct {
	actors.LineWriter
	flags map[string]bool
	tmpN  int
}

// Ls emits each statement on its own line.
func (d *diagWriter) Ls(stmts []string) {
	for _, s := range stmts {
		d.L("%s", s)
	}
}

// flag returns the named flag variable, recording that it must be declared.
func (d *diagWriter) flag(name string) string {
	d.flags[name] = true
	return name
}

func (d *diagWriter) tmp(prefix string) string {
	d.tmpN++
	return fmt.Sprintf("%s%d", prefix, d.tmpN)
}

// emitDiagnose emits the call and the implementation of one actor's
// diagnosis function. DiscreteIntegrator and Counter diagnose inside their
// state-update code instead (their errors arise there), so they are
// skipped here.
func (g *Generator) emitDiagnose(info *actors.Info, rules []diagnose.Kind, inExprs []string) error {
	switch info.Actor.Type {
	case "DiscreteIntegrator", "Counter":
		return nil
	}
	if outputNaNCheck(info, rules) {
		checker := "diagNaN64"
		if info.OutKind() == types.F32 {
			checker = "diagNaN32"
		}
		fmt.Fprintf(g.body, "\t%s(%d, step, %s)\n",
			checker, g.DiagSlotFor(info.Actor.Name, diagnose.NaNOrInf), g.varName(info, 0))
		return nil
	}
	fname := "diagnose_" + sanitize(info.Path)

	// Build the parameter list: step, out (if any), then every input.
	params := []string{"step int64"}
	args := []string{"step"}
	outParam := ""
	if len(info.Actor.Outputs) > 0 {
		outParam = "out"
		params = append(params, fmt.Sprintf("out %s", actors.GoVarType(info.OutKind(), info.OutWidth())))
		args = append(args, g.varName(info, 0))
	}
	for p := range inExprs {
		params = append(params, fmt.Sprintf("in%d %s", p, actors.GoVarType(info.InKinds[p], info.InWidths[p])))
		args = append(args, inExprs[p])
	}

	d := &diagWriter{flags: map[string]bool{}}
	if err := g.diagBody(d, info, rules, outParam); err != nil {
		return err
	}
	reports := g.diagReports(d, info, rules)
	if reports == "" {
		return nil // nothing reportable: e.g. a single-input "+" Sum performs no operation
	}

	// Call site.
	fmt.Fprintf(g.body, "\t%s(%s)\n", fname, strings.Join(args, ", "))

	// Function text.
	fmt.Fprintf(&g.diagFuncs, "\n// %s checks %s for: %s\n",
		fname, actorComment(info), kindList(rules))
	fmt.Fprintf(&g.diagFuncs, "func %s(%s) {\n", fname, strings.Join(params, ", "))
	for _, f := range []string{"ovf", "dbz", "dom", "nan", "oor", "ploss"} {
		if d.flags[f] {
			fmt.Fprintf(&g.diagFuncs, "\t%s := false\n", f)
		}
	}
	g.diagFuncs.WriteString(d.Body())
	g.diagFuncs.WriteString(reports)
	g.diagFuncs.WriteString("}\n")
	return nil
}

// outputNaNCheck reports whether an actor's diagnosis reduces to testing
// its computed output for NaN/Inf: its rule set is exactly {NaNOrInf}, its
// output is a scalar float, and the interpreter's flag fires exactly when
// that output is NaN or ±Inf. NaN and ±Inf are absorbing under +, - and *,
// so for a Sum, Bias, Gain or *-only Product chain with at least one
// operation, some operation yields NaN/Inf exactly when the last one does.
// Division is not absorbing (x/Inf = 0), and any "/" adds DivisionByZero
// to the rules. Math, Rounding and Polynomial flag their output value.
func outputNaNCheck(info *actors.Info, rules []diagnose.Kind) bool {
	if len(rules) != 1 || rules[0] != diagnose.NaNOrInf || !info.OutKind().IsFloat() || info.OutWidth() > 1 {
		return false
	}
	switch info.Actor.Type {
	case "Sum", "Product":
		signs := info.Aux.(string)
		return len(signs) > 1 || signs[0] == '-'
	case "Gain", "Bias", "Math", "Rounding", "Polynomial":
		return true
	}
	return false
}

func kindList(rules []diagnose.Kind) string {
	parts := make([]string, len(rules))
	for i, r := range rules {
		parts[i] = string(r)
	}
	return strings.Join(parts, ", ")
}

// diagReports renders the report statements in the interpreter's canonical
// flag order, followed by the once-only downcast report.
func (g *Generator) diagReports(d *diagWriter, info *actors.Info, rules []diagnose.Kind) string {
	has := func(k diagnose.Kind) bool {
		for _, r := range rules {
			if r == k {
				return true
			}
		}
		return false
	}
	var sb strings.Builder
	rep := func(flagVar string, kind diagnose.Kind) {
		if !d.flags[flagVar] || !has(kind) {
			return
		}
		slot := g.DiagSlotFor(info.Actor.Name, kind)
		fmt.Fprintf(&sb, "\tif %s {\n\t\treportDiag(%d, step, \"\")\n\t}\n", flagVar, slot)
	}
	rep("ovf", diagnose.WrapOnOverflow)
	rep("dbz", diagnose.DivisionByZero)
	rep("dom", diagnose.DomainError)
	rep("nan", diagnose.NaNOrInf)
	rep("oor", diagnose.IndexOutOfBounds)
	if !has(diagnose.IndexOutOfBounds) {
		rep("oor", diagnose.OutOfRange)
	}
	rep("ploss", diagnose.PrecisionLoss)
	if has(diagnose.Downcast) {
		seen := fmt.Sprintf("dcSeen%d", info.Index)
		g.Global(fmt.Sprintf("var %s bool", seen))
		g.InitStmt(fmt.Sprintf("%s = false", seen))
		slot := g.DiagSlotFor(info.Actor.Name, diagnose.Downcast)
		fmt.Fprintf(&sb, "\tif !%s {\n\t\t%s = true\n\t\treportDiag(%d, step, \"output type narrower than input type\")\n\t}\n",
			seen, seen, slot)
	}
	return sb.String()
}

// elem renders parameter p's element expression under loop index ix.
func elem(name string, width int, ix string) string {
	if width > 1 {
		return name + ix
	}
	return name
}

// forWidth wraps fn in an element loop when the actor output is a vector.
func (d *diagWriter) forWidth(width int, fn func(ix string)) {
	if width <= 1 {
		fn("")
		return
	}
	d.Block(fmt.Sprintf("for i := 0; i < %d; i++", width), func() { fn("[i]") })
}

// diagBody dispatches recompute emission by actor type.
func (g *Generator) diagBody(d *diagWriter, info *actors.Info, rules []diagnose.Kind, outParam string) error {
	has := func(k diagnose.Kind) bool {
		for _, r := range rules {
			if r == k {
				return true
			}
		}
		return false
	}
	k := info.OutKind()
	inW := func(p int) int { return info.InWidths[p] }
	castElem := func(p int, ix string) string {
		return actors.Cast(elem(fmt.Sprintf("in%d", p), inW(p), ix), info.InKinds[p], k)
	}
	nanCheck := func(expr string) {
		if k.IsFloat() && has(diagnose.NaNOrInf) {
			d.L("%s = %s || %s", d.flag("nan"), "nan", actors.NaNOrInfCond(expr))
		}
	}

	switch info.Actor.Type {
	case "Sum":
		signs := info.Aux.(string)
		if !k.IsInteger() && !k.IsFloat() {
			return nil
		}
		d.forWidth(info.OutWidth(), func(ix string) {
			t := d.tmp("t")
			if signs[0] == '+' {
				d.L("%s := %s", t, castElem(0, ix))
			} else if k.IsInteger() {
				d.L("var %s %s", t, k.GoType())
				d.Ls(actors.CheckedSubStmts(k, t, actors.GoZero(k), castElem(0, ix), d.flag("ovf")))
			} else {
				d.L("%s := %s", t, binE(k, actors.GoZero(k), "-", castElem(0, ix)))
				nanCheck(t)
			}
			for i := 1; i < len(signs); i++ {
				nt := d.tmp("t")
				d.L("var %s %s", nt, k.GoType())
				if k.IsInteger() {
					if signs[i] == '+' {
						d.Ls(actors.CheckedAddStmts(k, nt, t, castElem(i, ix), d.flag("ovf")))
					} else {
						d.Ls(actors.CheckedSubStmts(k, nt, t, castElem(i, ix), d.flag("ovf")))
					}
				} else {
					d.L("%s = %s", nt, binE(k, t, string(signs[i]), castElem(i, ix)))
					nanCheck(nt)
				}
				t = nt
			}
			d.L("_ = %s", t)
		})

	case "Product":
		signs := info.Aux.(string)
		if !k.IsInteger() && !k.IsFloat() {
			return nil
		}
		d.forWidth(info.OutWidth(), func(ix string) {
			t := d.tmp("t")
			d.L("var %s %s", t, k.GoType())
			if signs[0] == '*' {
				d.L("%s = %s", t, castElem(0, ix))
			} else {
				one := oneLit(k)
				if k.IsInteger() {
					d.Ls(actors.CheckedDivStmts(k, t, one, castElem(0, ix), d.flag("dbz"), d.flag("ovf")))
				} else {
					d.Ls(actors.CheckedDivStmts(k, t, actors.Cast("1.0", types.F64, k), castElem(0, ix), d.flag("dbz"), ""))
					nanCheck(t)
				}
			}
			for i := 1; i < len(signs); i++ {
				nt := d.tmp("t")
				d.L("var %s %s", nt, k.GoType())
				if signs[i] == '*' {
					if k.IsInteger() {
						d.Ls(actors.CheckedMulStmts(k, nt, t, castElem(i, ix), d.flag("ovf"), d.tmp("m")))
					} else {
						d.L("%s = %s", nt, binE(k, t, "*", castElem(i, ix)))
						nanCheck(nt)
					}
				} else {
					if k.IsInteger() {
						d.Ls(actors.CheckedDivStmts(k, nt, t, castElem(i, ix), d.flag("dbz"), d.flag("ovf")))
					} else {
						d.Ls(actors.CheckedDivStmts(k, nt, t, castElem(i, ix), d.flag("dbz"), ""))
						nanCheck(nt)
					}
				}
				t = nt
			}
			d.L("_ = %s", t)
		})

	case "Gain", "Bias":
		lit := info.Aux.(types.Value).GoLiteral()
		op := "*"
		if info.Actor.Type == "Bias" {
			op = "+"
		}
		d.forWidth(info.OutWidth(), func(ix string) {
			t := d.tmp("t")
			d.L("var %s %s", t, k.GoType())
			if k.IsInteger() {
				if op == "*" {
					d.Ls(actors.CheckedMulStmts(k, t, castElem(0, ix), lit, d.flag("ovf"), d.tmp("m")))
				} else {
					d.Ls(actors.CheckedAddStmts(k, t, castElem(0, ix), lit, d.flag("ovf")))
				}
			} else {
				d.L("%s = %s", t, binE(k, castElem(0, ix), op, lit))
				nanCheck(t)
			}
			d.L("_ = %s", t)
		})

	case "Abs", "UnaryMinus":
		if !k.IsSigned() {
			return nil
		}
		d.forWidth(info.OutWidth(), func(ix string) {
			d.L("%s = %s || (%s < 0 && %s < 0)", d.flag("ovf"), "ovf",
				castElem(0, ix), elem(outParam, info.OutWidth(), ix))
		})

	case "Math", "Sqrt", "Rounding":
		x := d.tmp("x")
		d.forWidth(info.OutWidth(), func(ix string) {
			xe := actors.CastToF64(elem("in0", inW(0), ix), info.InKinds[0])
			d.L("%s := %s", x, xe)
			switch info.Operator {
			case "log", "log10", "log2":
				d.L("%s = %s || %s <= 0", d.flag("dom"), "dom", x)
			case "sqrt":
				d.L("%s = %s || %s < 0", d.flag("dom"), "dom", x)
			case "asin", "acos":
				d.L("%s = %s || %s < -1 || %s > 1", d.flag("dom"), "dom", x, x)
			case "reciprocal":
				d.L("%s = %s || %s == 0", d.flag("dbz"), "dbz", x)
			default:
				d.L("_ = %s", x)
			}
			nanCheck(elem(outParam, info.OutWidth(), ix))
			x = d.tmp("x")
		})

	case "Mod":
		d.forWidth(info.OutWidth(), func(ix string) {
			d.L("%s = %s || %s == %s", d.flag("dbz"), "dbz", castElem(1, ix), actors.GoZero(k))
		})

	case "DataTypeConversion":
		g.dtcChecks(d, info, has, outParam)

	case "Shift":
		if info.Operator != "left" {
			return nil
		}
		n := info.Aux.(int64)
		d.L("%s = %s || (%s >> %d) != %s", d.flag("ovf"), "ovf", outParam, n, actors.Cast("in0", info.InKinds[0], k))

	case "LookupDirect", "MultiportSwitch", "Selector":
		var n int
		ctrl := "in0"
		ctrlKind := info.InKinds[0]
		switch info.Actor.Type {
		case "LookupDirect":
			n = actors.LookupDirectTableLen(info)
		case "MultiportSwitch":
			n = info.NumIn() - 1
		case "Selector":
			if info.NumIn() != 2 {
				return nil
			}
			n = info.InWidths[0]
			ctrl = "in1"
			ctrlKind = info.InKinds[1]
		}
		iv := d.tmp("idx")
		d.L("%s := %s", iv, actors.Cast(ctrl, ctrlKind, types.I64))
		d.L("%s = %s || %s < 1 || %s > %d", d.flag("oor"), "oor", iv, iv, n)

	case "DotProduct", "SumOfElements", "ProductOfElements", "DeadZone":
		g.miscChecks(d, info, castElem, nanCheck)
	}
	return nil
}

// binE is a local alias for the kind-correct binary expression.
func binE(k types.Kind, a, op, b string) string {
	if k == types.F32 {
		return fmt.Sprintf("float32(float64(%s) %s float64(%s))", a, op, b)
	}
	return fmt.Sprintf("(%s %s %s)", a, op, b)
}

func oneLit(k types.Kind) string {
	v, _ := types.ParseValue(k, "1")
	return v.GoLiteral()
}
