package codegen

// runtimeSrc is the support code every generated program carries in its
// own file: what modelExe calls or may inline. Deterministic conversions
// (matching types.Convert), the FNV-1a output hash (matching
// simresult.HashU64), scalar value formatting (matching
// types.Value.String), 1-D table interpolation (matching
// actors.Lookup1DInterp), the bounded diagnosis reporter and the shared
// NaN/Inf checkers. Editing any of it can reshape the compiled step code
// and flip a NaN payload in the output hash. Everything model-independent
// beyond that lives in internal/simrt, compiled once per process.
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

// diagRecord and monitorSample are the runtime's record types.
type diagRecord = simrt.DiagRecord
type monitorSample = simrt.MonitorSample

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
	diagTotal++
	diagCounts[slot]++
	if diagFirst[slot] >= 0 && len(diagRecords) >= maxDiagRecords {
		// Counters only: the first detection is recorded and the record
		// buffer is full. A stop-on request already fired at this slot's
		// first detection.
		return
	}
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

// diagNaN64 and diagNaN32 are the shared NaN/Inf checkers, called on an
// actor's computed output: v-v is NaN exactly when v is NaN or ±Inf. They
// stay out of line: inlining them into modelExe reshapes the step code
// around the checked value, which can change the NaN payloads the output
// hash folds.
//
//go:noinline
func diagNaN64(slot int, step int64, v float64) {
	if v-v != 0 {
		reportDiag(slot, step, "")
	}
}

//go:noinline
func diagNaN32(slot int, step int64, v float32) {
	if v-v != 0 {
		reportDiag(slot, step, "")
	}
}
`
