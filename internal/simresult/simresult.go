// Package simresult defines the simulation result record every engine
// produces and the generated program emits as JSON — so one decoder and
// one comparison path serve the interpreter, the accelerated engines, and
// AccMoS-generated binaries alike.
package simresult

import (
	"fmt"
	"sort"

	"accmos/internal/coverage"
	"accmos/internal/diagnose"
	"accmos/internal/obs"
)

// MonitorSample is one recorded signal-monitor observation (the paper's
// outputCollect instrumentation).
type MonitorSample struct {
	Step  int64  `json:"step"`
	Value string `json:"value"`
}

// Results captures one simulation run. OutputHash is the FNV-1a hash
// chained over every root outport value at every step — the cross-engine
// equivalence oracle.
type Results struct {
	Model  string `json:"model"`
	Engine string `json:"engine"`
	Steps  int64  `json:"steps"`

	ExecNanos    int64 `json:"execNanos"`
	CompileNanos int64 `json:"compileNanos,omitempty"`

	OutputHash uint64 `json:"outputHash"`

	Coverage *coverage.Raw `json:"coverage,omitempty"`

	DiagTotal   int64                      `json:"diagTotal"`
	DiagCounts  map[string]int64           `json:"diagCounts,omitempty"`
	FirstDetect map[string]int64           `json:"firstDetect,omitempty"`
	Diags       []diagnose.Record          `json:"diags,omitempty"`
	Monitor     map[string][]MonitorSample `json:"monitor,omitempty"`
	MonitorHits map[string]int64           `json:"monitorHits,omitempty"`

	// Timeline holds the progress snapshots observed while the run
	// executed (heartbeats of a generated binary, or engine progress
	// ticks) — the coverage-over-time record. Populated host-side; a
	// generated program does not include it in its own JSON output.
	Timeline []obs.Snapshot `json:"timeline,omitempty"`
}

// FNV-1a 64-bit parameters, shared with the generated runtime.
const (
	FNVOffset = 14695981039346656037
	FNVPrime  = 1099511628211
)

// HashU64 folds one 64-bit word into an FNV-1a hash state, byte by byte,
// little-endian — identical to the generated runtime's hashU64.
func HashU64(h, x uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= (x >> (8 * i)) & 0xff
		h *= FNVPrime
	}
	return h
}

// FromSink copies a diagnosis sink's aggregates into r.
func (r *Results) FromSink(s *diagnose.Sink) {
	r.DiagTotal = s.Total
	r.Diags = s.Records
	if len(s.Counts) > 0 {
		r.DiagCounts = s.Counts
	}
	if len(s.FirstDetect) > 0 {
		r.FirstDetect = s.FirstDetect
	}
}

// FirstDetectOf returns the earliest step at which any diagnosis of the
// given kind fired on any actor, or -1.
func (r *Results) FirstDetectOf(kind diagnose.Kind) int64 {
	best := int64(-1)
	for key, step := range r.FirstDetect {
		if matchKind(key, kind) && (best < 0 || step < best) {
			best = step
		}
	}
	return best
}

func matchKind(key string, kind diagnose.Kind) bool {
	suffix := "|" + string(kind)
	return len(key) >= len(suffix) && key[len(key)-len(suffix):] == suffix
}

// DiagSummary renders the per-(actor, kind) counts deterministically.
func (r *Results) DiagSummary() []string {
	keys := make([]string, 0, len(r.DiagCounts))
	for k := range r.DiagCounts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]string, len(keys))
	for i, k := range keys {
		out[i] = fmt.Sprintf("%s x%d (first at step %d)", k, r.DiagCounts[k], r.FirstDetect[k])
	}
	return out
}

// SameOutputs reports whether two runs produced identical output streams.
func SameOutputs(a, b *Results) bool {
	return a.Steps == b.Steps && a.OutputHash == b.OutputHash
}

// Diff is the equivalence oracle: it compares two runs on steps, output
// hash, coverage presence and the four coverage bitmaps, diagnosis total,
// per-(actor, kind) counts, first-detect steps, the verbatim diagnosis
// records, per-actor monitor hits and the recorded monitor samples, and
// names the first field that differs ("" when the runs agree). Timing,
// engine name and timelines are not compared.
func Diff(a, b *Results) string {
	if a.Steps != b.Steps {
		return fmt.Sprintf("steps: %d vs %d", a.Steps, b.Steps)
	}
	if a.OutputHash != b.OutputHash {
		return fmt.Sprintf("output hash: %016x vs %016x", a.OutputHash, b.OutputHash)
	}
	if (a.Coverage == nil) != (b.Coverage == nil) {
		return fmt.Sprintf("coverage presence: %v vs %v", a.Coverage != nil, b.Coverage != nil)
	}
	if a.Coverage != nil {
		for _, bm := range []struct {
			name string
			x, y []byte
		}{
			{"actor", a.Coverage.Actor, b.Coverage.Actor},
			{"cond", a.Coverage.Cond, b.Coverage.Cond},
			{"dec", a.Coverage.Dec, b.Coverage.Dec},
			{"mcdc", a.Coverage.MCDC, b.Coverage.MCDC},
		} {
			if d := diffBitmap(bm.x, bm.y); d != "" {
				return bm.name + " coverage bitmap: " + d
			}
		}
	}
	if a.DiagTotal != b.DiagTotal {
		return fmt.Sprintf("diag total: %d vs %d", a.DiagTotal, b.DiagTotal)
	}
	if d := diffMap(a.DiagCounts, b.DiagCounts); d != "" {
		return "diag count " + d
	}
	if d := diffMap(a.FirstDetect, b.FirstDetect); d != "" {
		return "first detect " + d
	}
	if len(a.Diags) != len(b.Diags) {
		return fmt.Sprintf("diag records: %d vs %d", len(a.Diags), len(b.Diags))
	}
	for i := range a.Diags {
		if a.Diags[i] != b.Diags[i] {
			return fmt.Sprintf("diag record %d: %q vs %q", i, a.Diags[i], b.Diags[i])
		}
	}
	if d := diffMap(a.MonitorHits, b.MonitorHits); d != "" {
		return "monitor hits " + d
	}
	for _, k := range unionKeys(a.Monitor, b.Monitor) {
		x, y := a.Monitor[k], b.Monitor[k]
		if len(x) != len(y) {
			return fmt.Sprintf("monitor %q samples: %d vs %d", k, len(x), len(y))
		}
		for i := range x {
			if x[i] != y[i] {
				return fmt.Sprintf("monitor %q sample %d: %+v vs %+v", k, i, x[i], y[i])
			}
		}
	}
	return ""
}

func diffBitmap(x, y []byte) string {
	if len(x) != len(y) {
		return fmt.Sprintf("length %d vs %d", len(x), len(y))
	}
	for i := range x {
		if x[i] != y[i] {
			return fmt.Sprintf("point %d: %d vs %d", i, x[i], y[i])
		}
	}
	return ""
}

// unionKeys returns the keys of x and y, sorted.
func unionKeys[V any](x, y map[string]V) []string {
	keys := make([]string, 0, len(x)+len(y))
	for k := range x {
		keys = append(keys, k)
	}
	for k := range y {
		if _, ok := x[k]; !ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	return keys
}

// diffMap names the first key, in sorted order, whose value or presence
// differs between x and y.
func diffMap(x, y map[string]int64) string {
	for _, k := range unionKeys(x, y) {
		vx, okx := x[k]
		vy, oky := y[k]
		switch {
		case !okx:
			return fmt.Sprintf("%q: absent vs %d", k, vy)
		case !oky:
			return fmt.Sprintf("%q: %d vs absent", k, vx)
		case vx != vy:
			return fmt.Sprintf("%q: %d vs %d", k, vx, vy)
		}
	}
	return ""
}
