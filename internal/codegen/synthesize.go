package codegen

import (
	"fmt"
	"strings"

	"accmos/internal/testcase"
	"accmos/internal/types"
)

// synthesize assembles the final simulation program (paper §3.3): the
// step-code support, instrumentation tables, generated state, the model
// system function holding every actor's instrumented code, the generated
// diagnosis functions, and the main function with its simulation loop
// and test-case import. Request handling and result output come from
// the simrt runtime the program links.
func (g *Generator) synthesize() (string, error) {
	// Test-case sources (import code).
	tcExprs := make([]string, len(g.opts.TestCases.Sources))
	for i := range g.opts.TestCases.Sources {
		src := &g.opts.TestCases.Sources[i]
		globals, inits, expr := testcase.EmitGo(src, fmt.Sprintf("tc%d", i))
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
	fmt.Fprintf(&sb, "\nconst maxDiagRecords = %d\n", g.opts.MaxDiagRecords)
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
	g.emitRuntimeView(&sb)

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

	// modelReset: restore every piece of mutable program state to its
	// fresh-process value, then replay modelInit. Serve mode calls this
	// between runs so each request observes exactly the state a newly
	// exec'd process would — the bit-identical-to-one-shot guarantee.
	// seedXor is set first, because modelInit derives the embedded RNG
	// seeds from it.
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
	fmt.Fprintf(&sb, "\tactorBitmap = [%d]uint8{}\n", len(g.layout.ActorPaths))
	fmt.Fprintf(&sb, "\tcondBitmap = [%d]uint8{}\n", g.layout.CondBits)
	fmt.Fprintf(&sb, "\tdecBitmap = [%d]uint8{}\n", g.layout.DecBits)
	fmt.Fprintf(&sb, "\tmcdcBitmap = [%d]uint8{}\n", g.layout.MCDCBits)
	for _, sv := range g.stateVars {
		fmt.Fprintf(&sb, "\t%s = *new(%s)\n", sv.name, sv.typ)
	}
	sb.WriteString("\tmodelInit()\n}\n")

	// Batched lane execution: the laneState snapshot of every piece of
	// per-run mutable state, the save/load swaps, and the runBatch entry
	// point stepping N seed lanes through one shared loop.
	g.emitBatch(&sb, tcExprs)

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

// emitMain renders the main function and runSim, the simulation loop
// (step-bounded or wall-clock-budgeted). main hands the model's hooks to
// the runtime, whose entry point runs every request through one handler:
// -serve answers NDJSON requests on stdin, and a plain -steps run is one
// request whose bare result document goes to stdout.
func (g *Generator) emitMain(sb *strings.Builder, tcExprs []string) {
	fmt.Fprintf(sb, `
func main() {
	rt.Reset, rt.Run, rt.Batch = modelReset, runSim, runBatch
	rt.Main(%d)
}
`, g.opts.DefaultSteps)
	g.emitRunSim(sb, tcExprs)
}

// emitRunSim renders runSim, the step loop every run executes.
func (g *Generator) emitRunSim(sb *strings.Builder, tcExprs []string) {
	sb.WriteString(`
// runSim runs the simulation loop against the current model state and
// returns executed steps and wall time. Callers initialize state first
// (modelInit or modelReset). runID tags heartbeats in serve mode.
// With budgetMS > 0 the loop stops when the budget elapses OR — when
// steps > 0 — when the step bound is reached, whichever comes first;
// steps <= 0 under a budget means budget-only.
func runSim(steps, budgetMS int64, hbEvery time.Duration, runID string) (int64, time.Duration) {
	executed := int64(0)
	hbEnabled := hbEvery > 0
	start := time.Now()
	hbNext := start.Add(hbEvery)
	if budgetMS > 0 {
		budget := time.Duration(budgetMS) * time.Millisecond
		for step := int64(0); steps <= 0 || step < steps; step++ {
			if step%1024 == 0 && time.Since(start) >= budget {
				break
			}
`)
	g.emitLoopBody(sb, tcExprs, "\t\t\t")
	sb.WriteString(`		}
	} else {
		for step := int64(0); step < steps; step++ {
`)
	g.emitLoopBody(sb, tcExprs, "\t\t\t")
	sb.WriteString(`		}
	}
	elapsed := time.Since(start)
	if hbEnabled {
		rt.Heartbeat(runID, executed, elapsed, true)
	}
	return executed, elapsed
}
`)
}

func (g *Generator) emitLoopBody(sb *strings.Builder, tcExprs []string, ind string) {
	args := "step"
	for i, expr := range tcExprs {
		fmt.Fprintf(sb, "%sin%d := %s\n", ind, i, expr)
		args += fmt.Sprintf(", in%d", i)
	}
	fmt.Fprintf(sb, "%smodelExe(%s)\n", ind, args)
	fmt.Fprintf(sb, "%sexecuted = step + 1\n", ind)
	// Heartbeat check: the flag guard evaluates first, so a run with
	// heartbeats off (the default) pays only one predictable branch per
	// 1024 steps.
	fmt.Fprintf(sb, "%sif hbEnabled && step&1023 == 0 {\n", ind)
	fmt.Fprintf(sb, "%s\tif now := time.Now(); !now.Before(hbNext) {\n", ind)
	fmt.Fprintf(sb, "%s\t\trt.Heartbeat(runID, executed, now.Sub(start), false)\n", ind)
	fmt.Fprintf(sb, "%s\t\thbNext = now.Add(hbEvery)\n", ind)
	fmt.Fprintf(sb, "%s\t}\n%s}\n", ind, ind)
	fmt.Fprintf(sb, "%sif stopRequested {\n%s\tbreak\n%s}\n", ind, ind, ind)
}

// emitBatch renders the batched lane-execution support: laneState (one
// field per piece of per-run mutable state — structure-of-arrays across
// the lane slice), laneSave/laneLoad (swap the active lane's state in
// and out of the package globals the instrumented actor code addresses),
// and runBatch, the batch entry point stepping every seed lane through
// one shared loop in batchChunk-step rotations. Each lane executes
// exactly the step sequence a sequential run with its seedXor would, so
// hashes, coverage bitmaps and diag aggregates are bit-identical to
// spawn-per-run — the schedule, the instrumentation tables and every
// read-only lookup table stay shared across lanes.
func (g *Generator) emitBatch(sb *strings.Builder, tcExprs []string) {
	m, mk := len(g.diagNames), len(g.monSlots)
	fmt.Fprintf(sb, `
// laneState snapshots one seed lane's complete mutable program state.
type laneState struct {
	laneSeedXor uint64
	laneSteps   int64
	laneDone    bool

	laneHash       uint64
	laneDiagTotal  int64
	laneDiagRecs   []diagRecord
	laneStop       bool
	laneDiagCounts [%d]int64
	laneDiagFirst  [%d]int64
	laneMonHits    [%d]int64
	laneMonSamples [%d][]monitorSample
`, m, m, mk, mk)
	for _, sv := range g.stateVars {
		fmt.Fprintf(sb, "\t%s %s\n", sv.name, sv.typ)
	}
	sb.WriteString("}\n")

	sb.WriteString("\n// laneSave copies the active globals into ls.\nfunc laneSave(ls *laneState) {\n")
	sb.WriteString("\tls.laneHash = outputHash\n")
	sb.WriteString("\tls.laneDiagTotal = diagTotal\n")
	sb.WriteString("\tls.laneDiagRecs = diagRecords\n")
	sb.WriteString("\tls.laneStop = stopRequested\n")
	sb.WriteString("\tls.laneDiagCounts = diagCounts\n")
	sb.WriteString("\tls.laneDiagFirst = diagFirst\n")
	sb.WriteString("\tls.laneMonHits = monHits\n")
	sb.WriteString("\tls.laneMonSamples = monSamples\n")
	for _, sv := range g.stateVars {
		fmt.Fprintf(sb, "\tls.%s = %s\n", sv.name, sv.name)
	}
	sb.WriteString("}\n")

	sb.WriteString("\n// laneLoad copies ls into the active globals.\nfunc laneLoad(ls *laneState) {\n")
	sb.WriteString("\toutputHash = ls.laneHash\n")
	sb.WriteString("\tdiagTotal = ls.laneDiagTotal\n")
	sb.WriteString("\tdiagRecords = ls.laneDiagRecs\n")
	sb.WriteString("\tstopRequested = ls.laneStop\n")
	sb.WriteString("\tdiagCounts = ls.laneDiagCounts\n")
	sb.WriteString("\tdiagFirst = ls.laneDiagFirst\n")
	sb.WriteString("\tmonHits = ls.laneMonHits\n")
	sb.WriteString("\tmonSamples = ls.laneMonSamples\n")
	for _, sv := range g.stateVars {
		fmt.Fprintf(sb, "\t%s = ls.%s\n", sv.name, sv.name)
	}
	sb.WriteString("}\n")

	sb.WriteString(`
// runBatch steps one lane per seedXor to the shared step bound in a
// single cache-hot loop, rotating between lanes every batchChunk steps
// to amortize the state swap. Lane slices (diag records, monitor
// samples) are nil'ed before each lane's reset so appends never share a
// backing array across lanes. Heartbeats aggregate executed steps over
// all lanes; per-lane execNanos is the batch wall clock split evenly.
// Returns one rendered result document per lane, in seedXors order —
// callers frame them as a small header line plus one line per lane, so
// the host never has to scan one giant JSON value.
func runBatch(seedXors []uint64, steps int64, hbEvery time.Duration, runID string) [][]byte {
	lanes := make([]laneState, len(seedXors))
	for i := range lanes {
		ls := &lanes[i]
		ls.laneSeedXor = seedXors[i]
		diagRecords = nil
		for j := range monSamples {
			monSamples[j] = nil
		}
		modelReset(seedXors[i])
		laneSave(ls)
	}
	hbEnabled := hbEvery > 0
	start := time.Now()
	hbNext := start.Add(hbEvery)
	total := int64(0)
	live := len(lanes)
	for base := int64(0); base < steps && live > 0; base += batchChunk {
		end := base + batchChunk
		if end > steps {
			end = steps
		}
		for l := range lanes {
			ls := &lanes[l]
			if ls.laneDone {
				continue
			}
			laneLoad(ls)
			executed := ls.laneSteps
			for step := base; step < end; step++ {
`)
	args := "step"
	for i, expr := range tcExprs {
		fmt.Fprintf(sb, "\t\t\t\tin%d := %s\n", i, expr)
		args += fmt.Sprintf(", in%d", i)
	}
	fmt.Fprintf(sb, "\t\t\t\tmodelExe(%s)\n", args)
	sb.WriteString(`				executed = step + 1
				if stopRequested {
					break
				}
			}
			laneSave(ls)
			total += executed - ls.laneSteps
			ls.laneSteps = executed
			if ls.laneStop || executed >= steps {
				ls.laneDone = true
				live--
			}
			if hbEnabled {
				if now := time.Now(); !now.Before(hbNext) {
					rt.Heartbeat(runID, total, now.Sub(start), false)
					hbNext = now.Add(hbEvery)
				}
			}
		}
	}
	elapsed := time.Since(start)
	if hbEnabled {
		rt.Heartbeat(runID, total, elapsed, true)
	}
	perLane := elapsed.Nanoseconds()
	if len(lanes) > 0 {
		perLane /= int64(len(lanes))
	}
	out := make([][]byte, len(lanes))
	for i := range lanes {
		laneLoad(&lanes[i])
		out[i] = rt.Result(lanes[i].laneSteps, perLane, false)
	}
	return out
}
`)
}

// emitRuntimeView renders rt, the program as the simrt runtime sees it:
// views of the result state above (the slices alias the arrays, the
// pointers the variables) and the model name. main sets the hooks.
func (g *Generator) emitRuntimeView(sb *strings.Builder) {
	fmt.Fprintf(sb, "\nconst modelName = %q\n", g.c.Model.Name)
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
`)
	if g.opts.Coverage {
		sb.WriteString("\tCoverage:          &simrt.Coverage{Actor: actorBitmap[:], Cond: condBitmap[:], Dec: decBitmap[:], MCDC: mcdcBitmap[:]},\n")
	}
	sb.WriteString("}\n")
}
