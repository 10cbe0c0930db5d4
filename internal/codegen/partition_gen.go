package codegen

import (
	"fmt"
	"regexp"
	"sort"
	"strconv"
	"strings"

	"accmos/internal/actors"
)

// Pipelined step-body emission. A partitioned build slices the schedule
// into contiguous stages (internal/opt/partition) and emits one step
// function per stage over a pipeChunk-step frame: stage p binds the
// cross-partition signals earlier stages produced from the frame, runs
// its statement block and end-of-step updates verbatim, and writes the
// signals later stages consume back into the frame. Because stages are
// contiguous schedule segments, concatenating the stage streams
// reproduces the sequential step body exactly — modelExe drives the
// singleton seqFrame through every stage in order, which is what batch
// lanes and serve requests call, while the pipelined runSim flows ring
// frames through one goroutine per stage.

var (
	reSigVar   = regexp.MustCompile(`\bv\d+_\d+\b`)
	reTCVar    = regexp.MustCompile(`\btcIn(\d+)\b`)
	reDiagFn   = regexp.MustCompile(`^func (diagnose_\w+)\(`)
	reDiagCall = regexp.MustCompile(`\bdiagnose_\w+\(`)
	reDiagSite = regexp.MustCompile(`\b(?:reportDiag|diagNaN64|diagNaN32)\((\d+),`)
)

// pipeChunk is the steps-per-frame granularity of the pipeline: large
// enough to amortize one channel handoff over many steps, small enough
// that budget checks and heartbeats stay responsive. pipeDepth bounds
// frames in flight (ring-allocated; exactly one goroutine owns a frame
// at any moment, so frame state needs no locks).
const pipeChunkSteps = 64
const pipeDepthFrames = 4

// stageText is the assembled source of one pipeline stage.
type stageText struct {
	body    string   // instrumented statement stream (schedule segment)
	updates []string // this stage's end-of-step state commits
	hash    string   // output-hash folds (final stage only)

	declared []string        // signal vars declared here, emission order
	consumed map[string]bool // cross-partition vars read here
	tcUsed   map[int]bool    // stimulus inputs read here
}

// emitPartitioned renders the partitioned model system: the pframe type,
// fillStimulus, one partStep function per stage, the stage dispatcher,
// the frame-composing modelExe, the diag call-site order table and
// mergeDiags. The caller has already routed instrumentation into
// g.partBodies/g.updateParts.
func (g *Generator) emitPartitioned(sb *strings.Builder, tcExprs []string) error {
	stages, err := g.buildStages(tcExprs)
	if err != nil {
		return err
	}
	declStage, declType := g.declTable()

	// Cross-partition signals: used in a stage after the one declaring
	// them. The frame carries one lane array per shipped signal.
	shipped := map[string]bool{}
	for p, st := range stages {
		for v := range st.consumed {
			owner, ok := declStage[v]
			if !ok {
				return fmt.Errorf("codegen: partition stage %d references unknown signal %s", p, v)
			}
			if owner > p {
				return fmt.Errorf("codegen: partition stage %d references signal %s of later stage %d (illegal cut)", p, v, owner)
			}
			shipped[v] = true
		}
	}
	shipList := make([]string, 0, len(shipped))
	for v := range shipped {
		shipList = append(shipList, v)
	}
	sort.Slice(shipList, func(a, b int) bool {
		if declStage[shipList[a]] != declStage[shipList[b]] {
			return declStage[shipList[a]] < declStage[shipList[b]]
		}
		return shipList[a] < shipList[b]
	})

	// Frame type and ring.
	fmt.Fprintf(sb, `
// pframe is one pipeline frame: a pipeChunk-step slab of stimulus and
// cross-partition signal lanes. Frames flow stage 0 -> %d through SPSC
// channels and recycle through a free list; ownership transfers with the
// send, so no frame field is ever accessed concurrently.
const pipeChunk = %d
const pipeDepth = %d

type pframe struct {
	base int64
	n    int32
	last bool
`, g.parts-1, pipeChunkSteps, pipeDepthFrames)
	for i := range tcExprs {
		fmt.Fprintf(sb, "\ttc%d [pipeChunk]float64\n", i)
	}
	for _, v := range shipList {
		fmt.Fprintf(sb, "\tx_%s [pipeChunk]%s\n", v, declType[v])
	}
	sb.WriteString("}\n\nvar pipeRing [pipeDepth]pframe\nvar seqFrame pframe\n")

	// fillStimulus: the issuing goroutine computes the stimulus exprs, so
	// embedded RNG state advances exactly as the sequential loop would.
	sb.WriteString("\n// fillStimulus computes the test-case stimulus for every step in f\n// on the issuing goroutine (RNG state stays single-owner).\nfunc fillStimulus(f *pframe) {\n")
	sb.WriteString("\tfor fi := int32(0); fi < f.n; fi++ {\n")
	sb.WriteString("\t\tstep := f.base + int64(fi)\n")
	for i, expr := range tcExprs {
		fmt.Fprintf(sb, "\t\tf.tc%d[fi] = %s\n", i, expr)
	}
	sb.WriteString("\t\t_ = step\n\t}\n}\n")

	// Per-stage step functions.
	for p, st := range stages {
		fmt.Fprintf(sb, "\n// partStep%d steps pipeline stage %d (schedule segment %d) over f.\nfunc partStep%d(f *pframe) {\n", p, p, p, p)
		sb.WriteString("\tfor fi := int32(0); fi < f.n; fi++ {\n")
		sb.WriteString("\t\tstep := f.base + int64(fi)\n")
		for i := range tcExprs {
			if st.tcUsed[i] {
				fmt.Fprintf(sb, "\t\ttcIn%d := f.tc%d[fi]\n", i, i)
			}
		}
		binds := make([]string, 0, len(st.consumed))
		for v := range st.consumed {
			binds = append(binds, v)
		}
		sort.Strings(binds)
		for _, v := range binds {
			fmt.Fprintf(sb, "\t\t%s := f.x_%s[fi]\n", v, v)
		}
		writeIndented(sb, st.body)
		sb.WriteString("\t\t// end-of-step state updates\n")
		for _, stmt := range st.updates {
			fmt.Fprintf(sb, "\t\t%s\n", stmt)
		}
		if st.hash != "" {
			sb.WriteString("\t\t// fold root outputs into the equivalence hash\n")
			writeIndented(sb, st.hash)
		}
		produced := 0
		for _, v := range shipList {
			if declStage[v] == p {
				if produced == 0 {
					sb.WriteString("\t\t// ship signals later stages consume\n")
				}
				produced++
				fmt.Fprintf(sb, "\t\tf.x_%s[fi] = %s\n", v, v)
			}
		}
		sb.WriteString("\t\t// silence signals consumed only by position\n")
		sb.WriteString("\t\t_ = step\n")
		for _, v := range st.declared {
			fmt.Fprintf(sb, "\t\t_ = %s\n", v)
		}
		sb.WriteString("\t}\n}\n")
	}

	// Dispatcher for the pipelined runSim workers.
	sb.WriteString("\n// partStep dispatches one stage over a frame.\nfunc partStep(p int, f *pframe) {\n\tswitch p {\n")
	for p := range stages {
		fmt.Fprintf(sb, "\tcase %d:\n\t\tpartStep%d(f)\n", p, p)
	}
	sb.WriteString("\t}\n}\n")

	// modelExe: sequential composition over the singleton frame.
	sb.WriteString("\n// modelExe executes one simulation step by driving the singleton\n// frame through every pipeline stage in schedule order — the stage\n// concatenation is exactly the sequential step body, so batch lanes and\n// serve requests compose with partitioned builds unchanged.\n")
	sb.WriteString("func modelExe(step int64")
	for i := range tcExprs {
		fmt.Fprintf(sb, ", tcIn%d float64", i)
	}
	sb.WriteString(") {\n\tf := &seqFrame\n\tf.base, f.n, f.last = step, 1, false\n")
	for i := range tcExprs {
		fmt.Fprintf(sb, "\tf.tc%d[0] = tcIn%d\n", i, i)
	}
	for p := range stages {
		fmt.Fprintf(sb, "\tpartStep%d(f)\n", p)
	}
	sb.WriteString("}\n")

	g.emitMergeDiags(sb, stages)
	return nil
}

// buildStages assembles each stage's body, updates, hash section and the
// signal/stimulus reference sets driving frame layout.
func (g *Generator) buildStages(tcExprs []string) ([]*stageText, error) {
	stages := make([]*stageText, g.parts)
	for p := range stages {
		stages[p] = &stageText{
			body:     g.partBodies[p].String(),
			consumed: map[string]bool{},
			tcUsed:   map[int]bool{},
		}
	}
	for i, stmt := range g.updates {
		p := g.updateParts[i]
		stages[p].updates = append(stages[p].updates, stmt)
	}
	var hash strings.Builder
	for _, op := range g.c.Outports {
		expr, ok := g.outBindings[op.Actor.Name]
		if !ok {
			return nil, fmt.Errorf("codegen: outport %s was not bound", op.Actor.Name)
		}
		g.emitHash(&hash, expr, op.InKinds[0], op.InWidths[0])
	}
	stages[g.parts-1].hash = hash.String()

	declStage, _ := g.declTable()
	for p, st := range stages {
		text := st.body + "\n" + strings.Join(st.updates, "\n") + "\n" + st.hash
		for _, line := range strings.Split(text, "\n") {
			if strings.HasPrefix(strings.TrimLeft(line, "\t "), "//") {
				continue // instrumentation comments can embed actor paths
			}
			for _, v := range reSigVar.FindAllString(line, -1) {
				if owner, ok := declStage[v]; ok && owner != p {
					st.consumed[v] = true
				}
			}
			for _, m := range reTCVar.FindAllStringSubmatch(line, -1) {
				idx, err := strconv.Atoi(m[1])
				if err == nil && idx < len(tcExprs) {
					st.tcUsed[idx] = true
				}
			}
		}
	}

	// Declared-var silencing list, mirroring the sequential emission.
	for i, info := range g.c.Order {
		p := g.partAssign[i]
		if g.opts.Plan != nil && g.opts.Plan.Inlined[info.Actor.Name] {
			continue // fused actors declare no variable
		}
		for port := range info.Actor.Outputs {
			stages[p].declared = append(stages[p].declared, g.varName(info, port))
		}
	}
	return stages, nil
}

// declTable maps every signal variable to its declaring stage and Go
// storage type (the O2 plan can narrow a root's storage).
func (g *Generator) declTable() (map[string]int, map[string]string) {
	declStage := map[string]int{}
	declType := map[string]string{}
	for i, info := range g.c.Order {
		p := g.partAssign[i]
		if g.opts.Plan != nil {
			if g.opts.Plan.Inlined[info.Actor.Name] {
				continue
			}
			if root := g.opts.Plan.Roots[info.Actor.Name]; root != nil {
				v := g.varName(info, 0)
				declStage[v] = p
				declType[v] = actors.GoVarType(root.Store, root.Width)
				continue
			}
		}
		for port := range info.Actor.Outputs {
			v := g.varName(info, port)
			declStage[v] = p
			declType[v] = actors.GoVarType(info.OutKinds[port], info.OutWidths[port])
		}
	}
	return declStage, declType
}

// writeIndented re-emits a statement stream one tab deeper (stage bodies
// were instrumented at modelExe depth; partStep loops sit one deeper).
func writeIndented(sb *strings.Builder, text string) {
	for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		if line == "" {
			continue
		}
		sb.WriteString("\t")
		sb.WriteString(line)
		sb.WriteString("\n")
	}
}

// emitMergeDiags renders the call-site order table and the merge that
// reconstructs the sequential diagnosis stream from per-slot buffers.
func (g *Generator) emitMergeDiags(sb *strings.Builder, stages []*stageText) {
	m := len(g.diagNames)
	pos := g.diagSitePositions(stages)
	fmt.Fprintf(sb, "\n// diagPos orders diagnosis call sites as the sequential step body\n// visits them (bodies in schedule order, then state updates).\nvar diagPos = [%d]int32{", m)
	for i, p := range pos {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(sb, "%d", p)
	}
	sb.WriteString("}\n")
	sb.WriteString(`
// mergeDiags folds the per-slot partition-local buffers back into the
// sequential diagnosis stream: records sort by (step, call-site order)
// — exactly the order a sequential run appends them — and the global
// first-maxDiagRecords window is a subset of the per-slot windows, so
// the truncated merge is bit-identical to a sequential run. diagTotal
// is the sum of the per-slot counters. Idempotent.
func mergeDiags() {
	total := int64(0)
	for i := range diagCounts {
		total += diagCounts[i]
	}
	diagTotal = total
	type taggedRec struct {
		rec diagRecord
		pos int32
	}
	var all []taggedRec
	for i := range diagBuf {
		for _, r := range diagBuf[i] {
			all = append(all, taggedRec{rec: r, pos: diagPos[i]})
		}
	}
	sort.SliceStable(all, func(a, b int) bool {
		if all[a].rec.Step != all[b].rec.Step {
			return all[a].rec.Step < all[b].rec.Step
		}
		return all[a].pos < all[b].pos
	})
	if len(all) > maxDiagRecords {
		all = all[:maxDiagRecords]
	}
	diagRecords = diagRecords[:0]
	for _, t := range all {
		diagRecords = append(diagRecords, t.rec)
	}
}
`)
}

// diagSitePositions scans the assembled sequential statement stream
// (stage bodies in order, then updates) for diagnosis call sites: direct
// reportDiag statements (custom checks, stateful update-site rules),
// shared diagNaN64/diagNaN32 checker calls, and diagnose_* function
// calls, whose slots come from the generated function text in
// reportDiag-appearance order.
func (g *Generator) diagSitePositions(stages []*stageText) []int32 {
	m := len(g.diagNames)
	pos := make([]int32, m)
	for i := range pos {
		pos[i] = -1
	}
	fnSlots := g.diagFuncSlots()
	counter := int32(0)
	place := func(slot int) {
		if slot >= 0 && slot < m && pos[slot] < 0 {
			pos[slot] = counter
		}
		counter++
	}
	scan := func(text string) {
		for _, line := range strings.Split(text, "\n") {
			for _, s := range reDiagSite.FindAllStringSubmatch(line, -1) {
				slot, err := strconv.Atoi(s[1])
				if err == nil {
					place(slot)
				}
			}
			for _, call := range reDiagCall.FindAllString(line, -1) {
				name := strings.TrimSuffix(call, "(")
				for _, slot := range fnSlots[name] {
					place(slot)
				}
			}
		}
	}
	for _, st := range stages {
		scan(st.body)
	}
	for _, st := range stages {
		scan(strings.Join(st.updates, "\n"))
	}
	// Slots with no scanned site (defensive) order after all real sites.
	for i := range pos {
		if pos[i] < 0 {
			pos[i] = counter
			counter++
		}
	}
	return pos
}

// diagFuncSlots maps each generated diagnose_* function to the slots it
// reports, in appearance order.
func (g *Generator) diagFuncSlots() map[string][]int {
	out := map[string][]int{}
	cur := ""
	for _, line := range strings.Split(g.diagFuncs.String(), "\n") {
		if mm := reDiagFn.FindStringSubmatch(line); mm != nil {
			cur = mm[1]
			continue
		}
		if cur == "" {
			continue
		}
		for _, s := range reDiagSite.FindAllStringSubmatch(line, -1) {
			if slot, err := strconv.Atoi(s[1]); err == nil {
				out[cur] = append(out[cur], slot)
			}
		}
	}
	return out
}

// emitRunSimPipelined renders the partitioned runSim: the main goroutine
// fills stimulus chunks and steps stage 0, one worker goroutine steps
// each later stage, and frames hand off through buffered SPSC channels.
// The signature matches the sequential runSim, so main() and serveLoop
// are oblivious to partitioning.
func (g *Generator) emitRunSimPipelined(sb *strings.Builder, tcExprs []string) {
	_ = tcExprs
	sb.WriteString(`
// runSim (pipelined build) drives the simulation through partitionCount
// pipeline stages. A step counts as executed only when the final stage
// finishes it; budget checks run once per chunk on the issuing
// goroutine. Exactly one goroutine owns a frame at any moment (SPSC
// handoff + free-list recycling), so stage-private state, index-disjoint
// coverage bytes and per-slot diag/monitor buffers never race; the final
// stage alone folds the output hash. Mid-run heartbeats come from the
// final stage (emitHeartbeatPartial, no shared-state scan); the final
// heartbeat and all result reads happen after the join.
func runSim(steps, budgetMS int64, hbEvery time.Duration, runID string) (int64, time.Duration) {
	hbEnabled := hbEvery > 0
	start := time.Now()
	hbNext := start.Add(hbEvery)
	free := make(chan *pframe, pipeDepth)
	for i := range pipeRing {
		free <- &pipeRing[i]
	}
	var stageCh [partitionCount - 1]chan *pframe
	for i := range stageCh {
		stageCh[i] = make(chan *pframe, pipeDepth)
	}
	finalSteps := int64(0)
	var wg sync.WaitGroup
	for p := 1; p < partitionCount; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			last := p == partitionCount-1
			for f := range stageCh[p-1] {
				partStep(p, f)
				done := f.last
				if !last {
					stageCh[p] <- f
				} else {
					if f.n > 0 {
						finalSteps = f.base + int64(f.n)
					}
					if hbEnabled {
						if now := time.Now(); !now.Before(hbNext) {
							emitHeartbeatPartial(runID, finalSteps, now.Sub(start))
							hbNext = now.Add(hbEvery)
						}
					}
					free <- f
				}
				if done {
					return
				}
			}
		}(p)
	}
	var budget time.Duration
	if budgetMS > 0 {
		budget = time.Duration(budgetMS) * time.Millisecond
	}
	for base := int64(0); steps > 0 || budget > 0; base += pipeChunk {
		if steps > 0 && base >= steps {
			break
		}
		if budget > 0 && time.Since(start) >= budget {
			break
		}
		n := int64(pipeChunk)
		if steps > 0 && base+n > steps {
			n = steps - base
		}
		f := <-free
		f.base, f.n, f.last = base, int32(n), false
		fillStimulus(f)
		partStep(0, f)
		stageCh[0] <- f
	}
	fin := <-free
	fin.base, fin.n, fin.last = 0, 0, true
	stageCh[0] <- fin
	wg.Wait()
	elapsed := time.Since(start)
	if hbEnabled {
		emitHeartbeat(runID, finalSteps, elapsed, true)
	}
	return finalSteps, elapsed
}
`)
}
