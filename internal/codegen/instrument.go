package codegen

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"accmos/internal/actors"
	"accmos/internal/diagnose"
	"accmos/internal/opt/irplan"
	"accmos/internal/types"
)

// instrumentActors is the paper's Algorithm 1: traverse actors in
// execution order, generate each actor's code from its template, then
// attach actor coverage, condition coverage (branch actors), decision
// coverage (boolean logic), MC/DC (combination conditions), the signal
// collect call, and the diagnosis function call — generating the
// diagnosis implementation alongside.
func (g *Generator) instrumentActors() error {
	for _, info := range g.c.Order {
		if err := g.instrumentActor(info); err != nil {
			return fmt.Errorf("actor %s (%s): %w", info.Actor.Name, info.Actor.Type, err)
		}
	}
	return nil
}

func (g *Generator) instrumentActor(info *actors.Info) error {
	// O2: actors the plan fused or materialized as fused expressions
	// bypass the template path entirely.
	if p := g.opts.Plan; p != nil {
		if p.Inlined[info.Actor.Name] {
			return g.instrumentFused(info)
		}
		if root := p.Roots[info.Actor.Name]; root != nil {
			return g.instrumentRoot(info, root)
		}
	}
	// Declare output variables. Declarations stay outside any enable
	// gate: a disabled actor's outputs are the type's zero values.
	for p := range info.Actor.Outputs {
		name := g.varName(info, p)
		g.outVar[info.Actor.Name] = append(g.outVar[info.Actor.Name], name)
		fmt.Fprintf(g.body, "\tvar %s %s\n", name, actors.GoVarType(info.OutKinds[p], info.OutWidths[p]))
	}

	// Conditional execution: the actor's entire instrumented body runs
	// under its enable signal; end-of-step state updates are gated too.
	prevGate := g.gateCond
	prevBody := g.body
	if info.Gated() {
		enInfo := g.c.Info(info.EnabledBy.Actor)
		enVar := g.varName(enInfo, info.EnabledBy.Port)
		g.gateCond = actors.TruthExpr(enVar, enInfo.OutKinds[info.EnabledBy.Port])
		g.body = &strings.Builder{}
	}

	// Resolve input expressions (driver output variables).
	inExprs := make([]string, info.NumIn())
	for p, src := range info.InSrc {
		drv := g.c.Info(src.Actor)
		inExprs[p] = g.varName(drv, src.Port)
	}

	// Generate the actor's computation (genCodeFromTemp).
	gc := &actors.GenCtx{
		Info:       info,
		In:         inExprs,
		Out:        g.outVar[info.Actor.Name],
		CoverageOn: g.opts.Coverage,
		CondBase:   g.layout.CondBase(info.Actor.Name),
		DecBase:    g.layout.DecBase(info.Actor.Name),
		MCDCBase:   g.layout.MCDCBase(info.Actor.Name),
		Prog:       g,
	}
	fmt.Fprintf(g.body, "\t// -- %s\n", actorComment(info))
	if err := info.Spec.Gen(gc); err != nil {
		return err
	}
	g.body.WriteString(gc.Body())

	// Actor coverage at the end of the actor's code.
	if g.opts.Coverage {
		fmt.Fprintf(g.body, "\tactorBitmap[%d] = 1\n", g.layout.ActorIndex[info.Actor.Name])
	}

	// Signal collect call (collectList).
	for slot, name := range g.monSlots {
		if name == info.Actor.Name {
			g.emitMonitorCall(info, slot)
		}
	}

	// Diagnosis function call + implementation (diagnoseList).
	if rules := g.rules[info.Actor.Name]; len(rules) > 0 {
		if err := g.emitDiagnose(info, rules, inExprs); err != nil {
			return err
		}
	}

	// Custom signal diagnoses on this actor's output.
	for ci := range g.opts.Custom {
		chk := &g.opts.Custom[ci]
		if chk.Actor == info.Actor.Name {
			g.emitCustomCheck(info, chk)
		}
	}

	// Close the enable gate: indent the gated body one level inside the
	// enable condition and restore the surrounding stream.
	if info.Gated() {
		gated := g.body.String()
		g.body = prevBody
		fmt.Fprintf(g.body, "\tif %s {\n", g.gateCond)
		for _, line := range strings.Split(strings.TrimRight(gated, "\n"), "\n") {
			g.body.WriteString("\t" + line + "\n")
		}
		g.body.WriteString("\t}\n")
	}
	g.gateCond = prevGate
	return nil
}

// actorComment is the "path (type operator)" text of an actor's
// generated section header.
func actorComment(info *actors.Info) string {
	return commentText(fmt.Sprintf("%s (%s %s)", info.Path, info.Actor.Type, info.Operator))
}

// instrumentFused emits an actor whose expression the O2 planner inlined
// into its single consumer: no variable, no statement — only the actor
// coverage mark at the actor's own schedule position, so the bitmap's
// end-of-step state is identical to an O0 run (the bit is monotone and
// the fused consumer evaluates the same expression later this step).
func (g *Generator) instrumentFused(info *actors.Info) error {
	fmt.Fprintf(g.body, "\t// -- %s [fused into consumer]\n", actorComment(info))
	if g.opts.Coverage {
		fmt.Fprintf(g.body, "\tactorBitmap[%d] = 1\n", g.layout.ActorIndex[info.Actor.Name])
	}
	return nil
}

// instrumentRoot emits a materialized O2 root: one variable declared in
// the (possibly narrowed) storage kind, assigned from the fused
// expression, followed by the same actor-coverage / monitor / custom
// instrumentation the template path would attach. Lowered actors are
// never gated and never carry diagnosis rules or decision coverage, so
// those hooks cannot apply here.
func (g *Generator) instrumentRoot(info *actors.Info, root *irplan.Root) error {
	name := g.varName(info, 0)
	g.outVar[info.Actor.Name] = append(g.outVar[info.Actor.Name], name)
	fmt.Fprintf(g.body, "\tvar %s %s\n", name, actors.GoVarType(root.Store, root.Width))

	tag := "fused expr"
	if root.Store != root.Kind {
		tag = fmt.Sprintf("fused expr, %s stored as %s", root.Kind, root.Store)
	}
	fmt.Fprintf(g.body, "\t// -- %s [%s]\n", actorComment(info), tag)
	for _, line := range g.emitter.RootAssign(root) {
		g.body.WriteString("\t" + line + "\n")
	}

	if g.opts.Coverage {
		fmt.Fprintf(g.body, "\tactorBitmap[%d] = 1\n", g.layout.ActorIndex[info.Actor.Name])
	}
	for slot, mon := range g.monSlots {
		if mon == info.Actor.Name {
			g.emitMonitorCall(info, slot)
		}
	}
	for ci := range g.opts.Custom {
		chk := &g.opts.Custom[ci]
		if chk.Actor == info.Actor.Name {
			g.emitCustomCheck(info, chk)
		}
	}
	return nil
}

// emitMonitorCall emits the outputCollect instrumentation (rt.Collect)
// for one actor, formatting the value exactly as the interpreter's value
// printer does.
func (g *Generator) emitMonitorCall(info *actors.Info, slot int) {
	out := g.varName(info, 0)
	k := info.OutKind()
	var fmtd string
	if info.OutWidth() > 1 {
		switch {
		case k == types.Bool:
			fmtd = fmt.Sprintf("simrt.FmtVecB(%s[:])", out)
		case k.IsSigned():
			fmtd = fmt.Sprintf("simrt.FmtVecI(%s[:])", out)
		case k.IsUnsigned():
			fmtd = fmt.Sprintf("simrt.FmtVecU(%s[:])", out)
		case k == types.F32:
			fmtd = fmt.Sprintf("simrt.FmtVecF32(%s[:])", out)
		default:
			fmtd = fmt.Sprintf("simrt.FmtVecF64(%s[:])", out)
		}
		fmt.Fprintf(g.body, "\trt.Collect(%d, step, %s)\n", slot, fmtd)
		return
	}
	switch {
	case k == types.Bool:
		fmtd = fmt.Sprintf("fmtBool(%s)", out)
	case k.IsSigned():
		fmtd = fmt.Sprintf("fmtI64(int64(%s))", out)
	case k.IsUnsigned():
		fmtd = fmt.Sprintf("fmtU64(uint64(%s))", out)
	case k == types.F32:
		fmtd = fmt.Sprintf("fmtF64(float64(%s))", out)
	default:
		fmtd = fmt.Sprintf("fmtF64(float64(%s))", out)
	}
	fmt.Fprintf(g.body, "\trt.Collect(%d, step, %s)\n", slot, fmtd)
}

// emitCustomCheck inlines a range or delta custom signal diagnosis.
func (g *Generator) emitCustomCheck(info *actors.Info, chk *diagnose.CustomCheck) {
	slot := g.DiagSlotFor(info.Actor.Name, diagnose.Custom)
	out := fmt.Sprintf("float64(%s)", g.varName(info, 0))
	if info.OutKind() == types.Bool {
		out = fmt.Sprintf("b2f(%s)", g.varName(info, 0))
	}
	// The finding's detail is formatted by the runtime, so the program
	// does not link fmt.
	switch chk.Kind {
	case diagnose.RangeCheck:
		fmt.Fprintf(g.body,
			"\tif %s < %s || %s > %s {\n\t\treportDiag(%d, step, simrt.RangeDetail(%q, %s, %s, %s))\n\t}\n",
			out, fLit(chk.Lo), out, fLit(chk.Hi), slot, chk.Name, out, fLit(chk.Lo), fLit(chk.Hi))
	case diagnose.DeltaCheck:
		prev := fmt.Sprintf("cc%d_prev", slot)
		seen := fmt.Sprintf("cc%d_seen", slot)
		g.Global(fmt.Sprintf("var %s float64", prev))
		g.Global(fmt.Sprintf("var %s bool", seen))
		g.Import("math")
		fmt.Fprintf(g.body,
			"\tif %s {\n\t\tif d := math.Abs(%s - %s); d > %s {\n\t\t\treportDiag(%d, step, simrt.DeltaDetail(%q, d, %s))\n\t\t}\n\t}\n\t%s = %s\n\t%s = true\n",
			seen, out, prev, fLit(chk.MaxDelta), slot, chk.Name, fLit(chk.MaxDelta), prev, out, seen)
	}
}

// fLit formats a float64 Go literal (exact round-trip).
func fLit(f float64) string {
	switch {
	case math.IsNaN(f):
		return "math.NaN()"
	case math.IsInf(f, 1):
		return "math.Inf(1)"
	case math.IsInf(f, -1):
		return "math.Inf(-1)"
	}
	s := strconv.FormatFloat(f, 'g', -1, 64)
	if !strings.ContainsAny(s, ".eE") {
		s += ".0"
	}
	return s
}
