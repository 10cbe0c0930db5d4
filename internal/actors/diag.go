package actors

import (
	"fmt"
	"slices"
	"strings"

	"accmos/internal/diagnose"
	"accmos/internal/types"
)

// Calculation diagnosis (paper §3.2.B, Algorithm 1). Each diagnosable
// actor type states its diagnosis on its Spec: DiagRules picks the error
// classes an instance is checked for, from its type, operator and port
// kinds, and DiagGen emits the body of the instance's generated check
// function. Most types re-derive their error conditions there, after the
// actor's code (Figure 5); DiscreteIntegrator and Counter raise theirs in
// their own state-update code (Gen) and have no DiagGen. Detection
// conditions mirror the interpreter's flag semantics exactly, so both
// engines find the same errors at the same steps.

// DiagRules returns the error classes diagnosed for the actor: empty when
// it gets no diagnosis.
func (in *Info) DiagRules() []diagnose.Kind {
	if in.Spec.DiagRules == nil {
		return nil
	}
	return in.Spec.DiagRules(in)
}

// DiagCtx is passed to Spec.DiagGen. The body it collects runs in a
// function whose parameters are step, out (output 0) and in0, in1, ...
// (the inputs). It sets the boolean flag variables named in Flags, which
// the code generator declares and reports in the interpreter's order.
type DiagCtx struct {
	Info  *Info
	Rules []diagnose.Kind
	Prog  ProgramSink

	// Flags holds the flag variables the body sets: ovf, dbz, dom, nan,
	// oor or ploss.
	Flags map[string]bool
	// SharedNaN is set, with an empty body, when the diagnosis reduces to
	// testing the computed output with the program's shared NaN checker.
	SharedNaN bool

	LineWriter
	tmpN int
}

// has reports whether the instance is diagnosed for kind k.
func (dc *DiagCtx) has(k diagnose.Kind) bool { return slices.Contains(dc.Rules, k) }

// flag returns the named flag variable, recording that it must be declared.
func (dc *DiagCtx) flag(name string) string {
	dc.Flags[name] = true
	return name
}

// raise emits "flag = flag || cond".
func (dc *DiagCtx) raise(flag, cond string) {
	dc.L("%s = %s || %s", dc.flag(flag), flag, cond)
}

// tmp returns a fresh temporary name with the given prefix.
func (dc *DiagCtx) tmp(prefix string) string {
	dc.tmpN++
	return fmt.Sprintf("%s%d", prefix, dc.tmpN)
}

// ls emits each statement on its own line.
func (dc *DiagCtx) ls(stmts []string) {
	for _, s := range stmts {
		dc.L("%s", s)
	}
}

// forWidth runs fn once with ix "" when width is 1, or inside an element
// loop with ix "[i]".
func (dc *DiagCtx) forWidth(width int, fn func(ix string)) {
	if width <= 1 {
		fn("")
		return
	}
	dc.Block(fmt.Sprintf("for i := 0; i < %d; i++", width), func() { fn("[i]") })
}

// elem renders parameter name's element expression under loop index ix.
func elem(name string, width int, ix string) string {
	if width > 1 {
		return name + ix
	}
	return name
}

// castElem renders input p's element under ix, converted to the output
// kind.
func (dc *DiagCtx) castElem(p int, ix string) string {
	in := dc.Info
	return Cast(elem(fmt.Sprintf("in%d", p), in.InWidths[p], ix), in.InKinds[p], in.OutKind())
}

// nanCheck raises nan when expr is NaN or ±Inf, for a float output
// diagnosed for NaNOrInf.
func (dc *DiagCtx) nanCheck(expr string) {
	if dc.Info.OutKind().IsFloat() && dc.has(diagnose.NaNOrInf) {
		dc.raise("nan", nanOrInfCond(expr))
	}
}

// arith emits res = a op b in the output kind: an integer operation
// raises ovf (and dbz for "/"), a float one dbz for "/" and nan on a
// NaN or ±Inf result. res must be declared.
func (dc *DiagCtx) arith(res, a string, op byte, b string) {
	k := dc.Info.OutKind()
	switch {
	case !k.IsInteger() && op == '/':
		dc.ls(checkedDivStmts(k, res, a, b, dc.flag("dbz"), ""))
	case !k.IsInteger():
		dc.L("%s = %s", res, binExpr(k, a, string(op), b))
	case op == '+':
		dc.ls(checkedAddStmts(k, res, a, b, dc.flag("ovf")))
	case op == '-':
		dc.ls(checkedSubStmts(k, res, a, b, dc.flag("ovf")))
	case op == '*':
		dc.ls(checkedMulStmts(k, res, a, b, dc.flag("ovf"), dc.tmp("m")))
	case op == '/':
		dc.ls(checkedDivStmts(k, res, a, b, dc.flag("dbz"), dc.flag("ovf")))
	}
	if !k.IsInteger() {
		dc.nanCheck(res)
	}
}

// outputNaN reports, and records in SharedNaN, whether the diagnosis
// reduces to testing the computed output for NaN/Inf: the rule set is
// exactly {NaNOrInf} and the output is a scalar float. The caller vouches
// that the interpreter's flag fires exactly when that output is NaN or
// ±Inf: NaN and ±Inf are absorbing under +, - and *, so for a Sum, Bias,
// Gain or *-only Product chain with at least one operation, some
// operation yields NaN/Inf exactly when the last one does. Division is
// not absorbing (x/Inf = 0), and any "/" adds DivisionByZero to the rules.
func (dc *DiagCtx) outputNaN() bool {
	dc.SharedNaN = len(dc.Rules) == 1 && dc.Rules[0] == diagnose.NaNOrInf &&
		dc.Info.OutKind().IsFloat() && dc.Info.OutWidth() <= 1
	return dc.SharedNaN
}

// indexRules is the rule set of an actor that clamps a 1-based index.
func indexRules(*Info) []diagnose.Kind { return []diagnose.Kind{diagnose.IndexOutOfBounds} }

// index flags a 1-based index on input ctrl outside [1, n].
func (dc *DiagCtx) index(ctrl, n int) {
	iv := dc.tmp("idx")
	dc.L("%s := %s", iv, Cast(fmt.Sprintf("in%d", ctrl), dc.Info.InKinds[ctrl], types.I64))
	dc.raise("oor", fmt.Sprintf("%s < 1 || %s > %d", iv, iv, n))
}

// ruleIf returns the one-kind rule set {k} when cond holds, else none.
func ruleIf(cond bool, k diagnose.Kind) []diagnose.Kind {
	if cond {
		return []diagnose.Kind{k}
	}
	return nil
}

// arithRules is the rule set of an arithmetic actor: overflow for an
// integer output, NaN/Inf for a float one, division by zero when its
// operator divides and, with downcast, a once-only Downcast report when
// an input is wider than the output.
func arithRules(downcast bool) func(*Info) []diagnose.Kind {
	return func(in *Info) []diagnose.Kind {
		var ks []diagnose.Kind
		if in.OutKind().IsInteger() {
			ks = append(ks, diagnose.WrapOnOverflow)
		}
		if in.OutKind().IsFloat() {
			ks = append(ks, diagnose.NaNOrInf)
		}
		if strings.Contains(in.Operator, "/") {
			ks = append(ks, diagnose.DivisionByZero)
		}
		if downcast && hasDowncast(in) {
			ks = append(ks, diagnose.Downcast)
		}
		return ks
	}
}

// hasDowncast reports whether any input kind is strictly wider than the
// output kind — the paper's sizeof()-based downcast condition.
func hasDowncast(in *Info) bool {
	out := in.OutKind()
	for _, ik := range in.InKinds {
		if ik != types.Invalid && !out.Wider(ik) {
			return true
		}
	}
	return false
}

// Checked-arithmetic emission helpers. These produce Go statements that
// compute an operation in kind k while updating an overflow (or
// division-by-zero) boolean variable, with detection conditions exactly
// matching the flags types.Add/Sub/Mul/Div raise — so generated diagnosis
// functions and the interpreter report identical findings. DiagCtx.arith
// uses them in check functions; DiscreteIntegrator and Counter use them
// in their state-update code.

// checkedAddStmts emits `res = a + b` in kind k, or-ing overflow into
// ovfVar. res must be a declared variable of kind k; a and b must be
// side-effect-free expressions of kind k.
func checkedAddStmts(k types.Kind, res, a, b, ovfVar string) []string {
	switch {
	case k.IsSigned():
		return []string{
			fmt.Sprintf("%s = %s + %s", res, a, b),
			fmt.Sprintf("%s = %s || ((%s^%s)&(%s^%s)) < 0", ovfVar, ovfVar, a, res, b, res),
		}
	case k.IsUnsigned():
		return []string{
			fmt.Sprintf("%s = %s + %s", res, a, b),
			fmt.Sprintf("%s = %s || %s < %s", ovfVar, ovfVar, res, a),
		}
	case k == types.Bool:
		return []string{fmt.Sprintf("%s = %s != %s", res, a, b)}
	default:
		return []string{fmt.Sprintf("%s = %s", res, binExpr(k, a, "+", b))}
	}
}

// checkedSubStmts emits `res = a - b` in kind k with overflow detection.
func checkedSubStmts(k types.Kind, res, a, b, ovfVar string) []string {
	switch {
	case k.IsSigned():
		return []string{
			fmt.Sprintf("%s = %s - %s", res, a, b),
			fmt.Sprintf("%s = %s || ((%s^%s)&(%s^%s)) < 0", ovfVar, ovfVar, a, b, a, res),
		}
	case k.IsUnsigned():
		return []string{
			fmt.Sprintf("%s = %s - %s", res, a, b),
			fmt.Sprintf("%s = %s || %s > %s", ovfVar, ovfVar, b, a),
		}
	case k == types.Bool:
		return []string{fmt.Sprintf("%s = %s != %s", res, a, b)}
	default:
		return []string{fmt.Sprintf("%s = %s", res, binExpr(k, a, "-", b))}
	}
}

// checkedMulStmts emits `res = a * b` in kind k with overflow detection.
// tmp is a unique prefix for scratch variables.
func checkedMulStmts(k types.Kind, res, a, b, ovfVar, tmp string) []string {
	switch k {
	case types.I8, types.I16, types.I32:
		w := tmp + "w"
		return []string{
			fmt.Sprintf("%s := int64(%s) * int64(%s)", w, a, b),
			fmt.Sprintf("%s = %s || int64(%s(%s)) != %s", ovfVar, ovfVar, k.GoType(), w, w),
			fmt.Sprintf("%s = %s(%s)", res, k.GoType(), w),
		}
	case types.I64:
		return []string{
			fmt.Sprintf("%s = %s * %s", res, a, b),
			fmt.Sprintf("%s = %s || (%s != 0 && %s != 0 && %s/%s != %s)", ovfVar, ovfVar, a, b, res, a, b),
		}
	case types.U8, types.U16, types.U32:
		w := tmp + "w"
		return []string{
			fmt.Sprintf("%s := uint64(%s) * uint64(%s)", w, a, b),
			fmt.Sprintf("%s = %s || uint64(%s(%s)) != %s", ovfVar, ovfVar, k.GoType(), w, w),
			fmt.Sprintf("%s = %s(%s)", res, k.GoType(), w),
		}
	case types.U64:
		return []string{
			fmt.Sprintf("%s = %s * %s", res, a, b),
			fmt.Sprintf("%s = %s || (%s != 0 && %s != 0 && %s/%s != %s)", ovfVar, ovfVar, a, b, res, a, b),
		}
	case types.Bool:
		return []string{fmt.Sprintf("%s = %s && %s", res, a, b)}
	default:
		return []string{fmt.Sprintf("%s = %s", res, binExpr(k, a, "*", b))}
	}
}

// checkedDivStmts emits `res = a / b` in kind k, or-ing division-by-zero
// into dbzVar and overflow (signed MIN / -1) into ovfVar. Float kinds get
// the IEEE result with the zero divisor flagged.
func checkedDivStmts(k types.Kind, res, a, b, dbzVar, ovfVar string) []string {
	switch {
	case k.IsSigned():
		return []string{
			fmt.Sprintf("if %s == 0 { %s = true; %s = 0 } else { if %s == %d && %s == -1 { %s = true }; %s = %s / %s }",
				b, dbzVar, res, a, k.MinInt(), b, ovfVar, res, a, b),
		}
	case k.IsUnsigned():
		return []string{
			fmt.Sprintf("if %s == 0 { %s = true; %s = 0 } else { %s = %s / %s }", b, dbzVar, res, res, a, b),
		}
	case k == types.Bool:
		return []string{
			fmt.Sprintf("if !%s { %s = true; %s = false } else { %s = %s }", b, dbzVar, res, res, a),
		}
	default:
		return []string{
			fmt.Sprintf("if %s == 0 { %s = true }", b, dbzVar),
			fmt.Sprintf("%s = %s", res, binExpr(k, a, "/", b)),
		}
	}
}

// nanOrInfCond returns the Go condition evidencing a NaN/Inf result for a
// float expression: x-x is NaN exactly when x is NaN or ±Inf, and 0
// otherwise, in either float width.
func nanOrInfCond(expr string) string {
	return fmt.Sprintf("(%s-%s != 0)", expr, expr)
}
