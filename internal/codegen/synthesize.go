package codegen

import (
	"fmt"
	"strings"

	"accmos/internal/diagnose"
	"accmos/internal/simrt"
	"accmos/internal/testcase"
	"accmos/internal/types"
)

// synthesize assembles the final simulation program (paper §3.3): the
// step-code support, instrumentation tables, generated state, the model
// system function holding every actor's instrumented code, the generated
// diagnosis functions, the model's step loop with its test-case import,
// and the main function. Request handling, the main simulation loop and
// result output come from the simrt runtime the program links.
func (g *Generator) synthesize() (string, error) {
	// Test-case sources (import code).
	// Uniform sources read their seed and range from tcUniform, which
	// the runtime fills from the params file beside the binary.
	tcExprs := make([]string, len(g.opts.TestCases.Sources))
	uniforms := 0
	for i := range g.opts.TestCases.Sources {
		src := &g.opts.TestCases.Sources[i]
		params := fmt.Sprintf("tcUniform[%d]", uniforms)
		if src.Kind == testcase.Uniform {
			uniforms++
		}
		globals, inits, expr := testcase.EmitGo(src, fmt.Sprintf("tc%d", i), params)
		for _, decl := range globals {
			g.Global(decl)
		}
		g.inits = append(g.inits, inits...)
		tcExprs[i] = expr
		if testcase.NeedsMath(src) {
			g.Import("math")
		}
	}
	// The output hash and the value formatters of runtimeSrc.
	g.Import("math")
	g.Import("strconv")

	var sb strings.Builder
	fmt.Fprintf(&sb, "// Code generated by AccMoS for model %s. DO NOT EDIT.\n", commentText(g.c.Model.Name))
	sb.WriteString("package main\n\nimport (\n")
	for _, p := range g.sortedImports() {
		fmt.Fprintf(&sb, "\t%q\n", p)
	}
	sb.WriteString(")\n")

	// Configuration constants.
	fmt.Fprintf(&sb, "\nconst maxDiagRecords = %d\n", diagnose.MaxRecords)
	fmt.Fprintf(&sb, "const maxMonitorSamples = %d\n", g.opts.MaxMonitorSamples)
	fmt.Fprintf(&sb, "const optLevel = %q\n", g.opts.Opt)

	sb.WriteString(runtimeSrc)

	// Diagnosis tables.
	m := len(g.diagNames)
	fmt.Fprintf(&sb, "\nvar diagCounts [%d]int64\n", m)
	fmt.Fprintf(&sb, "var diagFirst [%d]int64\n", m)
	fmt.Fprintf(&sb, "var diagActors = [%d]string{", m)
	for i, name := range g.diagNames {
		if i > 0 {
			sb.WriteString(", ")
		}
		actor, _, _ := strings.Cut(name, "|")
		fmt.Fprintf(&sb, "%q", actor)
	}
	sb.WriteString("}\n")
	fmt.Fprintf(&sb, "var diagKinds = [%d]string{", m)
	for i, name := range g.diagNames {
		if i > 0 {
			sb.WriteString(", ")
		}
		_, kind, _ := strings.Cut(name, "|")
		fmt.Fprintf(&sb, "%q", kind)
	}
	sb.WriteString("}\n")
	fmt.Fprintf(&sb, "var diagStop = [%d]bool{", m)
	for i, stop := range g.diagStop {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "%v", stop)
	}
	sb.WriteString("}\n")

	// Monitor tables.
	mk := len(g.monSlots)
	fmt.Fprintf(&sb, "var monHits [%d]int64\n", mk)
	fmt.Fprintf(&sb, "var monSamples [%d][]monitorSample\n", mk)
	fmt.Fprintf(&sb, "var monNames = [%d]string{", mk)
	for i, name := range g.monSlots {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "%q", name)
	}
	sb.WriteString("}\n")

	// Coverage bitmaps, sized by the shared layout.
	fmt.Fprintf(&sb, "\nvar actorBitmap [%d]uint8\n", len(g.layout.ActorPaths))
	fmt.Fprintf(&sb, "var condBitmap [%d]uint8\n", g.layout.CondBits)
	fmt.Fprintf(&sb, "var decBitmap [%d]uint8\n", g.layout.DecBits)
	fmt.Fprintf(&sb, "var mcdcBitmap [%d]uint8\n", g.layout.MCDCBits)
	if g.opts.Coverage {
		g.emitAlwaysRun(&sb)
	}
	g.emitRuntimeView(&sb, uniforms)

	// Actor/program state globals.
	sb.WriteString("\n")
	for _, decl := range g.globals {
		sb.WriteString(decl)
		sb.WriteString("\n")
	}

	// modelInit.
	sb.WriteString("\nfunc modelInit() {\n")
	sb.WriteString("\tfor i := range diagFirst {\n\t\tdiagFirst[i] = -1\n\t}\n")
	for _, stmt := range g.inits {
		fmt.Fprintf(&sb, "\t%s\n", stmt)
	}
	if g.opts.Coverage && g.opts.Premark != nil {
		// Coverage bits the optimizer proved statically for removed
		// instrumentation sites.
		for _, pm := range []struct {
			name string
			bits []byte
		}{
			{"actorBitmap", g.opts.Premark.Actor},
			{"condBitmap", g.opts.Premark.Cond},
			{"decBitmap", g.opts.Premark.Dec},
			{"mcdcBitmap", g.opts.Premark.MCDC},
		} {
			name, bm := pm.name, pm.bits
			for i, b := range bm {
				if b != 0 {
					fmt.Fprintf(&sb, "\t%s[%d] = 1\n", name, i)
				}
			}
		}
	}
	sb.WriteString("}\n")

	// modelReset: restore every piece of mutable program state except the
	// coverage bitmaps to its fresh-process value, then replay modelInit.
	// The runtime calls this at the start of every request, so each run
	// observes exactly the state a newly exec'd process would — the
	// bit-identical-to-one-shot guarantee. The runtime clears the bitmaps
	// itself, just before, so the premark bits modelInit sets survive.
	// seedXor is set first, because modelInit derives the
	// uniform sources' RNG seeds from it and from tcUniform, which no
	// reset touches: it holds the run parameters the runtime read.
	sb.WriteString("\nfunc modelReset(seed uint64) {\n")
	sb.WriteString("\tseedXor = seed\n")
	sb.WriteString("\toutputHash = 14695981039346656037\n")
	sb.WriteString("\tdiagTotal = 0\n")
	sb.WriteString("\tdiagRecords = diagRecords[:0]\n")
	sb.WriteString("\tstopRequested = false\n")
	fmt.Fprintf(&sb, "\tdiagCounts = [%d]int64{}\n", m)
	fmt.Fprintf(&sb, "\tdiagFirst = [%d]int64{}\n", m)
	fmt.Fprintf(&sb, "\tmonHits = [%d]int64{}\n", mk)
	sb.WriteString("\tfor i := range monSamples {\n\t\tmonSamples[i] = monSamples[i][:0]\n\t}\n")
	for _, sv := range g.stateVars {
		fmt.Fprintf(&sb, "\t%s = *new(%s)\n", sv.name, sv.typ)
	}
	sb.WriteString("\tmodelInit()\n}\n")

	// Generated diagnosis functions.
	sb.WriteString(g.diagFuncs.String())

	// Model system function.
	sb.WriteString("\n// modelExe executes one simulation step of the model.\n")
	sb.WriteString("func modelExe(step int64")
	for i := range tcExprs {
		fmt.Fprintf(&sb, ", tcIn%d float64", i)
	}
	sb.WriteString(") {\n")
	sb.WriteString(g.body.String())
	sb.WriteString("\t// end-of-step state updates\n")
	for _, stmt := range g.updates {
		fmt.Fprintf(&sb, "\t%s\n", stmt)
	}
	sb.WriteString("\t// fold root outputs into the equivalence hash\n")
	for _, op := range g.c.Outports {
		expr, ok := g.outBindings[op.Actor.Name]
		if !ok {
			return "", fmt.Errorf("codegen: outport %s was not bound", op.Actor.Name)
		}
		g.emitHash(&sb, expr, op.InKinds[0], op.InWidths[0])
	}
	sb.WriteString("\t// silence signals consumed only by position\n")
	seen := map[string]bool{}
	for _, info := range g.c.Order {
		if g.opts.Plan != nil && g.opts.Plan.Inlined[info.Actor.Name] {
			continue // fused actors declare no variable
		}
		for p := range info.Actor.Outputs {
			v := g.varName(info, p)
			if !seen[v] {
				seen[v] = true
				fmt.Fprintf(&sb, "\t_ = %s\n", v)
			}
		}
	}
	for i := range tcExprs {
		fmt.Fprintf(&sb, "\t_ = tcIn%d\n", i)
	}
	sb.WriteString("}\n")

	// main.
	g.emitMain(&sb, tcExprs)
	return sb.String(), nil
}

// emitHash folds one outport value into the output hash.
func (g *Generator) emitHash(sb *strings.Builder, expr string, k types.Kind, width int) {
	one := func(e string) string {
		switch {
		case k == types.Bool:
			return fmt.Sprintf("\thashB(%s)\n", e)
		case k.IsSigned():
			return fmt.Sprintf("\thashI(int64(%s))\n", e)
		case k.IsUnsigned():
			return fmt.Sprintf("\thashU(uint64(%s))\n", e)
		case k == types.F32:
			return fmt.Sprintf("\thashF32(%s)\n", e)
		default:
			return fmt.Sprintf("\thashF64(%s)\n", e)
		}
	}
	if width <= 1 {
		sb.WriteString(one(expr))
		return
	}
	fmt.Fprintf(sb, "\tfor i := 0; i < %d; i++ {\n\t%s\t}\n", width, one(expr+"[i]"))
}

// emitAlwaysRun renders alwaysRun, the actor-coverage indices of the
// actors that run on every step (see markActor).
func (g *Generator) emitAlwaysRun(sb *strings.Builder) {
	sb.WriteString("\n// alwaysRun lists the actors that run on every step: modelRun sets\n")
	sb.WriteString("// their coverage bits once per call, before its first step.\n")
	fmt.Fprintf(sb, "var alwaysRun = [%d]int32{", len(g.alwaysRun))
	for i, idx := range g.alwaysRun {
		if i%16 == 0 {
			sb.WriteString("\n\t")
		} else {
			sb.WriteString(" ")
		}
		fmt.Fprintf(sb, "%d,", idx)
	}
	sb.WriteString("\n}\n")
}

// emitMain renders modelRun, the model's step loop, and the main
// function, which hands the model's hooks to the runtime. The runtime's
// entry point runs every request through them: -serve answers NDJSON
// requests on stdin, one run each, and a plain -steps run is a request
// for seed 0 whose bare result document goes to stdout. The runtime
// calls modelRun once per chunk of steps and does the budget and
// heartbeat accounting between chunks, so no step pays an indirect
// call.
func (g *Generator) emitMain(sb *strings.Builder, tcExprs []string) {
	sb.WriteString(`
// modelRun executes steps from, ..., to-1 against the current model
// state, drawing each step's test inputs, and returns the step after the
// last one it ran: to, or earlier when a stop-on diagnosis fires. A stop
// outlives the call until modelReset, so a run stopped on the last step
// of a chunk runs nothing in the next one.
func modelRun(from, to int64) int64 {
	if stopRequested {
		return from
	}
`)
	if g.opts.Coverage {
		// The runtime calls modelRun only with from < to, so a call that
		// gets past the stop check runs at least one step.
		sb.WriteString("\tfor _, i := range alwaysRun {\n\t\tactorBitmap[i] = 1\n\t}\n")
	}
	sb.WriteString("\tfor step := from; step < to; step++ {\n")
	args := "step"
	for i, expr := range tcExprs {
		fmt.Fprintf(sb, "\t\tin%d := %s\n", i, expr)
		args += fmt.Sprintf(", in%d", i)
	}
	fmt.Fprintf(sb, `		modelExe(%s)
		if stopRequested {
			return step + 1
		}
	}
	return to
}

func main() {
	rt.Reset, rt.Run = modelReset, modelRun
	rt.Main()
}
`, args)
}

// params renders the program's run parameters: the -steps default and
// the seed and range of each uniform source, in inport order.
func (g *Generator) params() string {
	var uniform []simrt.Uniform
	for _, src := range g.opts.TestCases.Sources {
		if src.Kind == testcase.Uniform {
			uniform = append(uniform, simrt.Uniform{Seed: src.Seed, Lo: src.Lo, Hi: src.Hi})
		}
	}
	return simrt.FormatParams(g.opts.DefaultSteps, uniform)
}

// emitRuntimeView renders rt, the program as the simrt runtime sees it:
// views of the result state above (the slices alias the arrays, the
// pointers the variables), of the uniform sources' parameters, and the
// model name. main sets the hooks. The uniform sources' parameters are
// not in the source: the runtime reads them from the params file beside
// the binary, so a program compiles and links once per model and
// options, whatever its run parameters.
func (g *Generator) emitRuntimeView(sb *strings.Builder, uniforms int) {
	fmt.Fprintf(sb, "\nconst modelName = %q\n", g.c.Model.Name)
	fmt.Fprintf(sb, "\nvar tcUniform [%d]simrt.Uniform\n", uniforms)
	sb.WriteString(`
var rt = &simrt.Program{
	Model:             modelName,
	OutputHash:        &outputHash,
	DiagTotal:         &diagTotal,
	Diags:             &diagRecords,
	DiagCounts:        diagCounts[:],
	DiagFirst:         diagFirst[:],
	DiagActors:        diagActors[:],
	DiagKinds:         diagKinds[:],
	MonHits:           monHits[:],
	MonSamples:        monSamples[:],
	MonNames:          monNames[:],
	MaxMonitorSamples: maxMonitorSamples,
	Uniform:           tcUniform[:],
`)
	if g.opts.Coverage {
		sb.WriteString("\tCoverage:          &simrt.Coverage{Actor: actorBitmap[:], Cond: condBitmap[:], Dec: decBitmap[:], MCDC: mcdcBitmap[:]},\n")
	}
	sb.WriteString("}\n")
}
