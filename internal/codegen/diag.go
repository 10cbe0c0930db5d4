package codegen

import (
	"fmt"
	"slices"
	"strings"

	"accmos/internal/actors"
	"accmos/internal/diagnose"
	"accmos/internal/types"
)

// Diagnosis generation (paper Figures 4-5). Each actor type's checks live
// on its actors.Spec, whose DiagGen emits the body of the actor's check
// function. This file wraps that body in the generic frame: the function
// signature, the call placed right after the actor's code (Figure 5,
// line 7), the flag declarations, the reports in the interpreter's flag
// order and the once-only downcast report. An actor whose NaN/Inf
// diagnosis reduces to a test of its output (DiagCtx.SharedNaN) gets one
// call to the shared runtime checker on the value the step code already
// computed instead.

// emitDiagnose emits the call and the implementation of one actor's
// diagnosis function. A type without DiagGen (DiscreteIntegrator,
// Counter) diagnoses inside its own state-update code instead.
func (g *Generator) emitDiagnose(info *actors.Info, rules []diagnose.Kind, inExprs []string) error {
	if info.Spec.DiagGen == nil {
		return nil
	}
	d := &actors.DiagCtx{Info: info, Rules: rules, Prog: g, Flags: map[string]bool{}}
	info.Spec.DiagGen(d)
	if d.SharedNaN {
		checker := "diagNaN64"
		if info.OutKind() == types.F32 {
			checker = "diagNaN32"
		}
		fmt.Fprintf(g.body, "\t%s(%d, step, %s)\n",
			checker, g.DiagSlot(info, diagnose.NaNOrInf), g.varName(info, 0))
		return nil
	}
	reports := g.diagReports(d.Flags, info, rules)
	if reports == "" {
		return nil // nothing reportable: e.g. a single-input "+" Sum performs no operation
	}

	// Call site. The parameters are step, out (if any), then every input.
	fname := "diagnose_" + sanitize(info.Path)
	params := []string{"step int64"}
	args := []string{"step"}
	if len(info.Actor.Outputs) > 0 {
		params = append(params, fmt.Sprintf("out %s", actors.GoVarType(info.OutKind(), info.OutWidth())))
		args = append(args, g.varName(info, 0))
	}
	for p := range inExprs {
		params = append(params, fmt.Sprintf("in%d %s", p, actors.GoVarType(info.InKinds[p], info.InWidths[p])))
		args = append(args, inExprs[p])
	}
	fmt.Fprintf(g.body, "\t%s(%s)\n", fname, strings.Join(args, ", "))

	// Function text.
	fmt.Fprintf(&g.diagFuncs, "\n// %s checks %s for: %s\n",
		fname, actorComment(info), kindList(rules))
	fmt.Fprintf(&g.diagFuncs, "func %s(%s) {\n", fname, strings.Join(params, ", "))
	for _, f := range []string{"ovf", "dbz", "dom", "nan", "oor", "ploss"} {
		if d.Flags[f] {
			fmt.Fprintf(&g.diagFuncs, "\t%s := false\n", f)
		}
	}
	g.diagFuncs.WriteString(d.Body())
	g.diagFuncs.WriteString(reports)
	g.diagFuncs.WriteString("}\n")
	return nil
}

func kindList(rules []diagnose.Kind) string {
	parts := make([]string, len(rules))
	for i, r := range rules {
		parts[i] = string(r)
	}
	return strings.Join(parts, ", ")
}

// diagReports renders the report statements for the raised flags in the
// interpreter's canonical flag order, followed by the once-only downcast
// report.
func (g *Generator) diagReports(flags map[string]bool, info *actors.Info, rules []diagnose.Kind) string {
	var sb strings.Builder
	rep := func(flagVar string, kind diagnose.Kind) {
		if !flags[flagVar] || !slices.Contains(rules, kind) {
			return
		}
		fmt.Fprintf(&sb, "\tif %s {\n\t\treportDiag(%d, step, \"\")\n\t}\n", flagVar, g.DiagSlot(info, kind))
	}
	rep("ovf", diagnose.WrapOnOverflow)
	rep("dbz", diagnose.DivisionByZero)
	rep("dom", diagnose.DomainError)
	rep("nan", diagnose.NaNOrInf)
	rep("oor", diagnose.IndexOutOfBounds)
	if !slices.Contains(rules, diagnose.IndexOutOfBounds) {
		rep("oor", diagnose.OutOfRange)
	}
	rep("ploss", diagnose.PrecisionLoss)
	if slices.Contains(rules, diagnose.Downcast) {
		seen := fmt.Sprintf("dcSeen%d", info.Index)
		g.Global(fmt.Sprintf("var %s bool", seen))
		g.InitStmt(fmt.Sprintf("%s = false", seen))
		fmt.Fprintf(&sb, "\tif !%s {\n\t\t%s = true\n\t\treportDiag(%d, step, \"output type narrower than input type\")\n\t}\n",
			seen, seen, g.DiagSlot(info, diagnose.Downcast))
	}
	return sb.String()
}
