package codegen

// runtimeSrc is the static support code embedded in every generated
// program: deterministic conversions (matching types.Convert), the FNV-1a
// output hash (matching simresult.HashU64), value formatting (matching
// types.Value.String), the bounded diagnosis reporter, the signal monitor
// (the paper's outputCollect), and 1-D table interpolation (matching
// actors.Lookup1DInterp — keep in sync).
const runtimeSrc = `
// b2i converts a bool to 0/1.
func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// b2f converts a bool to 0/1 as float64.
func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// cvtF2I is the deterministic float->int64 conversion: NaN -> 0,
// out-of-range saturates at the int64 bounds, otherwise truncation.
func cvtF2I(f float64) int64 {
	switch {
	case f != f: // NaN
		return 0
	case f >= 9223372036854775807:
		return 9223372036854775807
	case f <= -9223372036854775808:
		return -9223372036854775808
	default:
		return int64(f)
	}
}

// cvtF2U is the deterministic float->uint64 conversion.
func cvtF2U(f float64) uint64 {
	switch {
	case f != f: // NaN
		return 0
	case f >= 18446744073709551615:
		return 18446744073709551615
	case f < 0:
		return 0
	default:
		return uint64(f)
	}
}

// lookup1D is clamped linear interpolation over ascending breakpoints.
func lookup1D(bp, table []float64, x float64) float64 {
	n := len(bp)
	if x <= bp[0] {
		return table[0]
	}
	if x >= bp[n-1] {
		return table[n-1]
	}
	lo, hi := 0, n-1
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		if bp[mid] <= x {
			lo = mid
		} else {
			hi = mid
		}
	}
	t := (x - bp[lo]) / (bp[lo+1] - bp[lo])
	return table[lo] + t*(table[lo+1]-table[lo])
}

// hashU64 folds one 64-bit word into the FNV-1a output hash.
func hashU64(h, x uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= (x >> (8 * uint(i))) & 0xff
		h *= 1099511628211
	}
	return h
}

var outputHash uint64 = 14695981039346656037

func hashF64(v float64) { outputHash = hashU64(outputHash, math.Float64bits(v)) }
func hashF32(v float32) { outputHash = hashU64(outputHash, uint64(math.Float32bits(v))) }
func hashI(v int64)     { outputHash = hashU64(outputHash, uint64(v)) }
func hashU(v uint64)    { outputHash = hashU64(outputHash, v) }
func hashB(v bool)      { outputHash = hashU64(outputHash, uint64(b2i(v))) }

// fmtF64 formats a float like the interpreter's value printer.
func fmtF64(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
func fmtI64(v int64) string   { return strconv.FormatInt(v, 10) }
func fmtU64(v uint64) string  { return strconv.FormatUint(v, 10) }
func fmtBool(v bool) string   { return strconv.FormatBool(v) }

// Vector formatters mirror the interpreter's "[e1 e2 ...]" rendering.
func fmtVecF64(v []float64) string {
	s := "["
	for i, x := range v {
		if i > 0 {
			s += " "
		}
		s += fmtF64(x)
	}
	return s + "]"
}

func fmtVecF32(v []float32) string {
	s := "["
	for i, x := range v {
		if i > 0 {
			s += " "
		}
		s += fmtF64(float64(x))
	}
	return s + "]"
}

func fmtVecI[T int8 | int16 | int32 | int64](v []T) string {
	s := "["
	for i, x := range v {
		if i > 0 {
			s += " "
		}
		s += fmtI64(int64(x))
	}
	return s + "]"
}

func fmtVecU[T uint8 | uint16 | uint32 | uint64](v []T) string {
	s := "["
	for i, x := range v {
		if i > 0 {
			s += " "
		}
		s += fmtU64(uint64(x))
	}
	return s + "]"
}

func fmtVecB(v []bool) string {
	s := "["
	for i, x := range v {
		if i > 0 {
			s += " "
		}
		s += fmtBool(x)
	}
	return s + "]"
}

// diagRecord is one verbatim diagnosis finding (simresult "diags").
type diagRecord struct {
	Step   int64
	Actor  string
	Kind   string
	Detail string
}

// monitorSample is one recorded monitor observation (simresult "monitor").
type monitorSample struct {
	Step  int64
	Value string
}

var (
	diagTotal     int64
	diagRecords   []diagRecord
	stopRequested bool

	// seedXor perturbs every embedded uniform test-case seed, so one
	// compiled binary can run many random test suites (a request's
	// seedXor).
	seedXor uint64
)

// reportDiag records one diagnostic finding in slot's counters.
func reportDiag(slot int, step int64, detail string) {
	if partitionCount > 1 {
		// Pipelined build: every slot belongs to exactly one pipeline
		// stage, so per-slot counters and buffers are index-disjoint
		// across goroutines. Verbatim records buffer per slot and merge
		// into the sequential stream at result time (mergeDiags), and
		// diagTotal is reconstructed from the counters there. Stop-on-
		// diagnosis requests decline partitioning at generation time, so
		// diagStop/stopRequested are never touched on this path.
		diagCounts[slot]++
		if diagFirst[slot] < 0 {
			diagFirst[slot] = step
		}
		if len(diagBuf[slot]) < maxDiagRecords {
			diagBuf[slot] = append(diagBuf[slot], diagRecord{
				Step: step, Actor: diagActors[slot], Kind: diagKinds[slot], Detail: detail,
			})
		}
		return
	}
	diagTotal++
	diagCounts[slot]++
	if diagFirst[slot] < 0 {
		diagFirst[slot] = step
	}
	if len(diagRecords) < maxDiagRecords {
		diagRecords = append(diagRecords, diagRecord{
			Step: step, Actor: diagActors[slot], Kind: diagKinds[slot], Detail: detail,
		})
	}
	if diagStop[slot] {
		stopRequested = true
	}
}

// outputCollect is the signal-monitor instrumentation: it records the
// actor's output value (bounded) and counts every observation.
func outputCollect(slot int, step int64, value string) {
	monHits[slot]++
	if len(monSamples[slot]) < maxMonitorSamples {
		monSamples[slot] = append(monSamples[slot], monitorSample{Step: step, Value: value})
	}
}

// jsonFloat formats a float for a heartbeat record, mapping the values
// JSON cannot carry (NaN, ±Inf) to 0.
func jsonFloat(f float64) string {
	if f != f || f > math.MaxFloat64 || f < -math.MaxFloat64 {
		return "0"
	}
	return strconv.FormatFloat(f, 'g', -1, 64)
}

// emitHeartbeat writes one NDJSON progress record to stderr. The line
// shape is the contract obs.ParseHeartbeat decodes — keep in sync with
// internal/obs. covEnabled is a generated constant; when false the
// coverage field reports -1. runID tags serve-mode heartbeats with the
// request they belong to ("" — and no "run" field — in a -steps run).
func emitHeartbeat(runID string, steps int64, elapsed time.Duration, final bool) {
	sps := 0.0
	if elapsed > 0 {
		sps = float64(steps) / elapsed.Seconds()
	}
	cov := -1.0
	if covEnabled {
		set, total := 0, 0
		for _, bm := range [][]uint8{actorBitmap[:], condBitmap[:], decBitmap[:], mcdcBitmap[:]} {
			for _, b := range bm {
				if b != 0 {
					set++
				}
			}
			total += len(bm)
		}
		if total > 0 {
			cov = 100 * float64(set) / float64(total)
		} else {
			cov = 100
		}
	}
	fin := ""
	if final {
		fin = ",\"final\":true"
	}
	run := ""
	if runID != "" {
		run = ",\"run\":" + strconv.Quote(runID)
	}
	fmt.Fprintf(os.Stderr,
		"{\"accmosHB\":1,\"model\":%q,\"engine\":\"AccMoS\",\"steps\":%d,\"elapsedNanos\":%d,\"stepsPerSec\":%s,\"coverage\":%s,\"diags\":%d%s%s}\n",
		modelName, steps, elapsed.Nanoseconds(), jsonFloat(sps), jsonFloat(cov), diagTotal, fin, run)
}

// emitHeartbeatPartial is the mid-run heartbeat of a pipelined build: it
// is emitted from the final pipeline stage while earlier stages are still
// writing coverage bitmaps and diag counters, so it reports coverage -1
// and diags 0 instead of scanning shared state. The post-join final
// heartbeat uses emitHeartbeat as usual.
func emitHeartbeatPartial(runID string, steps int64, elapsed time.Duration) {
	sps := 0.0
	if elapsed > 0 {
		sps = float64(steps) / elapsed.Seconds()
	}
	run := ""
	if runID != "" {
		run = ",\"run\":" + strconv.Quote(runID)
	}
	fmt.Fprintf(os.Stderr,
		"{\"accmosHB\":1,\"model\":%q,\"engine\":\"AccMoS\",\"steps\":%d,\"elapsedNanos\":%d,\"stepsPerSec\":%s,\"coverage\":-1,\"diags\":0%s}\n",
		modelName, steps, elapsed.Nanoseconds(), jsonFloat(sps), run)
}

// batchChunk is how many steps a lane runs before runBatch rotates to
// the next lane: large enough to amortize the laneSave/laneLoad state
// swap (multi-KB on big models), small enough that lanes stay
// interleaved and the heartbeat cadence holds.
const batchChunk = 64

// appendStr appends s as a JSON string: quotes, backslashes and control
// bytes escaped, invalid UTF-8 replaced by U+FFFD, as encoding/json does.
func appendStr(b []byte, s string) []byte {
	const hex = "0123456789abcdef"
	b = append(b, '"')
	for _, r := range s {
		switch {
		case r == '"' || r == '\\':
			b = append(b, '\\', byte(r))
		case r < 0x20:
			b = append(b, '\\', 'u', '0', '0', hex[r>>4], hex[r&0xF])
		case r < 0x80:
			b = append(b, byte(r))
		default:
			b = append(b, string(r)...)
		}
	}
	return append(b, '"')
}

// appendCounts appends a JSON object mapping key(i) to vals[i] for every
// slot i whose hits are positive.
func appendCounts(b []byte, hits, vals []int64, key func(int) string) []byte {
	b = append(b, '{')
	n := 0
	for i := range hits {
		if hits[i] <= 0 {
			continue
		}
		if n > 0 {
			b = append(b, ',')
		}
		n++
		b = appendStr(b, key(i))
		b = append(b, ':')
		b = strconv.AppendInt(b, vals[i], 10)
	}
	return append(b, '}')
}

func anyPositive(xs []int64) bool {
	for _, x := range xs {
		if x > 0 {
			return true
		}
	}
	return false
}

// appendSections appends the optional result sections that carry
// anything: diagCounts+firstDetect keyed "actor|kind", the verbatim diag
// records, and monitor+monitorHits keyed by monitored actor.
func appendSections(b []byte) []byte {
	if anyPositive(diagCounts[:]) {
		diagKey := func(i int) string { return diagActors[i] + "|" + diagKinds[i] }
		b = append(b, ` + "`" + `,"diagCounts":` + "`" + `...)
		b = appendCounts(b, diagCounts[:], diagCounts[:], diagKey)
		b = append(b, ` + "`" + `,"firstDetect":` + "`" + `...)
		b = appendCounts(b, diagCounts[:], diagFirst[:], diagKey)
	}
	if len(diagRecords) > 0 {
		b = append(b, ` + "`" + `,"diags":[` + "`" + `...)
		for i, r := range diagRecords {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, ` + "`" + `{"step":` + "`" + `...)
			b = strconv.AppendInt(b, r.Step, 10)
			b = append(b, ` + "`" + `,"actor":` + "`" + `...)
			b = appendStr(b, r.Actor)
			b = append(b, ` + "`" + `,"kind":` + "`" + `...)
			b = appendStr(b, r.Kind)
			if r.Detail != "" {
				b = append(b, ` + "`" + `,"detail":` + "`" + `...)
				b = appendStr(b, r.Detail)
			}
			b = append(b, '}')
		}
		b = append(b, ']')
	}
	if anyPositive(monHits[:]) {
		b = append(b, ` + "`" + `,"monitor":{` + "`" + `...)
		n := 0
		for i := range monHits {
			if monHits[i] <= 0 {
				continue
			}
			if n > 0 {
				b = append(b, ',')
			}
			n++
			b = appendStr(b, monNames[i])
			if monSamples[i] == nil {
				b = append(b, ":null"...)
				continue
			}
			b = append(b, ":["...)
			for j, s := range monSamples[i] {
				if j > 0 {
					b = append(b, ',')
				}
				b = append(b, ` + "`" + `{"step":` + "`" + `...)
				b = strconv.AppendInt(b, s.Step, 10)
				b = append(b, ` + "`" + `,"value":` + "`" + `...)
				b = appendStr(b, s.Value)
				b = append(b, '}')
			}
			b = append(b, ']')
		}
		b = append(b, ` + "`" + `},"monitorHits":` + "`" + `...)
		b = appendCounts(b, monHits[:], monHits[:], func(i int) string { return monNames[i] })
	}
	return b
}

// covJSON renders the coverage section once per batch (nil when coverage
// is off): lanes share the monotone coverage bitmaps (every
// instrumentation write is an idempotent 1-set), so when the batch
// finishes the globals already hold the OR-merge of every lane.
func covJSON() []byte {
	if !covEnabled {
		return nil
	}
	return appendCov(make([]byte, 0, covEncodedLen))
}

// serveRequest is one run request — a single NDJSON line on stdin in
// serve mode. Keep in sync with the harness request encoder
// (internal/harness). A request with accmosBatch set runs one lane per
// seedXors entry through runBatch instead of a single run.
type serveRequest struct {
	Batch       int      ` + "`json:\"accmosBatch\"`" + `
	ID          string   ` + "`json:\"id\"`" + `
	Steps       int64    ` + "`json:\"steps\"`" + `
	BudgetMS    int64    ` + "`json:\"budgetMs\"`" + `
	SeedXor     uint64   ` + "`json:\"seedXor\"`" + `
	SeedXors    []uint64 ` + "`json:\"seedXors\"`" + `
	HeartbeatMS int64    ` + "`json:\"heartbeatMs\"`" + `
}

// runRequest executes one single-run request against freshly reset
// model state and returns its result document. steps and budgetMs each
// bound the run when positive — with both set, whichever is reached
// first wins; with both <= 0, the binary's -steps default applies.
// heartbeatMs <= 0 disables heartbeats.
func runRequest(req *serveRequest, defSteps int64) []byte {
	seedXor = req.SeedXor
	modelReset()
	steps := req.Steps
	if steps <= 0 && req.BudgetMS <= 0 {
		steps = defSteps
	}
	executed, elapsed := runSim(steps, req.BudgetMS, time.Duration(req.HeartbeatMS)*time.Millisecond, req.ID)
	return resultsJSON(executed, elapsed.Nanoseconds(), true)
}

// writeFrame emits one NDJSON response frame on stdout and flushes, so
// the host sees exactly one line per request as soon as the run ends.
func writeFrame(out *bufio.Writer, id string, result []byte, errMsg string) {
	out.WriteString("{\"accmosRun\":1,\"id\":")
	out.Write(appendStr(nil, id))
	if errMsg != "" {
		out.WriteString(",\"error\":")
		out.Write(appendStr(nil, errMsg))
	} else {
		out.WriteString(",\"result\":")
		out.Write(result)
	}
	out.WriteString("}\n")
	out.Flush()
}

// writeBatchFrame emits one batch response: a small header frame naming
// the request id, lane count and the batch's OR-merged coverage, then
// one line per lane result — so the host can split lanes with cheap
// line reads and decode them in parallel instead of scanning one giant
// JSON value.
func writeBatchFrame(out *bufio.Writer, id string, lanes [][]byte, cov []byte) {
	out.WriteString("{\"accmosRun\":1,\"id\":")
	out.Write(appendStr(nil, id))
	out.WriteString(",\"laneCount\":")
	out.WriteString(strconv.Itoa(len(lanes)))
	if cov != nil {
		out.WriteString(",\"coverage\":")
		out.Write(cov)
	}
	out.WriteString("}\n")
	for _, lane := range lanes {
		out.Write(lane)
		out.WriteByte('\n')
	}
	out.Flush()
}

// serveLoop is the -serve mode, the host's only way to run the program:
// read NDJSON run requests from stdin, execute each against fully
// re-initialized model state (modelReset), and answer with one NDJSON
// frame per request on stdout. Heartbeats stay on stderr, tagged with
// the request id. The process exits when stdin reaches EOF — the host
// closes the pipe to retire a worker, or right after the one request of
// an ephemeral run. Batch requests (accmosBatch set) run every seedXors
// lane through the batched loop and answer with a laneCount header frame
// followed by one result line per lane.
func serveLoop(defSteps int64) {
	in := bufio.NewScanner(os.Stdin)
	in.Buffer(make([]byte, 64*1024), 8*1024*1024)
	out := bufio.NewWriter(os.Stdout)
	for in.Scan() {
		line := in.Bytes()
		if len(line) == 0 {
			continue
		}
		var req serveRequest
		if err := json.Unmarshal(line, &req); err != nil {
			writeFrame(out, req.ID, nil, "decoding request: "+err.Error())
			continue
		}
		if req.Batch == 0 {
			writeFrame(out, req.ID, runRequest(&req, defSteps), "")
			continue
		}
		if len(req.SeedXors) == 0 {
			writeFrame(out, req.ID, nil, "batch request carries no seedXors")
			continue
		}
		if req.BudgetMS > 0 {
			writeFrame(out, req.ID, nil, "batch requests are step-bounded; budgetMs is unsupported")
			continue
		}
		steps := req.Steps
		if steps <= 0 {
			steps = defSteps
		}
		hb := time.Duration(req.HeartbeatMS) * time.Millisecond
		writeBatchFrame(out, req.ID, runBatch(req.SeedXors, steps, hb, req.ID), covJSON())
	}
	if err := in.Err(); err != nil {
		fmt.Fprintln(os.Stderr, "accmos: serve: reading requests:", err)
		os.Exit(1)
	}
}
`
