package obs

import (
	"bytes"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"time"
)

// NewRunID generates a short random correlation ID for a run that has no
// externally assigned one (CLI invocations; daemon jobs reuse the job
// ID). The "r-" prefix keeps run IDs tell-apart from accmosd's "j-" job
// IDs in merged log streams.
func NewRunID() string {
	var b [6]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failing is unheard of; a fixed fallback still
		// yields a usable (if non-unique) ID rather than an error path
		// nobody handles.
		return "r-000000000000"
	}
	return "r-" + hex.EncodeToString(b[:])
}

// Snapshot is one live progress observation of a running simulation —
// the payload of a generated program's NDJSON heartbeat line and of the
// in-process engines' progress callbacks. Coverage is the percentage of
// raw coverage points set so far (-1 when coverage is not collected).
type Snapshot struct {
	Model        string  `json:"model,omitempty"`
	Engine       string  `json:"engine,omitempty"`
	Steps        int64   `json:"steps"`
	ElapsedNanos int64   `json:"elapsedNanos"`
	StepsPerSec  float64 `json:"stepsPerSec"`
	Coverage     float64 `json:"coverage"`
	Diags        int64   `json:"diags"`
	// Final marks the snapshot emitted after the simulation loop exits.
	Final bool `json:"final,omitempty"`

	// Worker and Suite attribute snapshots flowing out of a parallel
	// sweep: the 1-based worker that observed the snapshot and the
	// 1-based suite index within the sweep. Both are zero (and omitted
	// from the JSON encoding) outside a sweep, so single-run heartbeat
	// streams are unchanged.
	Worker int `json:"worker,omitempty"`
	Suite  int `json:"suite,omitempty"`

	// Run is the request id that produced this snapshot when it came out
	// of a serve-mode worker (empty — and omitted — in one-shot runs,
	// where the process itself identifies the run).
	Run string `json:"run,omitempty"`

	// Corr is the correlation ID of the run that produced this snapshot —
	// the job ID under accmosd, a generated run ID for CLI runs — stamped
	// host-side by the harness, so every NDJSON event is joinable with
	// the run's log lines and trace spans.
	Corr string `json:"corr,omitempty"`
}

// Elapsed returns the run time at the snapshot.
func (s Snapshot) Elapsed() time.Duration { return time.Duration(s.ElapsedNanos) }

// heartbeatPrefix starts every NDJSON heartbeat line a generated program
// writes to stdout ahead of its response frame, distinguishing a
// heartbeat from the frame header.
var heartbeatPrefix = []byte(`{"accmosHB":`)

// IsHeartbeat reports whether a line is a heartbeat record.
func IsHeartbeat(line []byte) bool { return bytes.HasPrefix(line, heartbeatPrefix) }

// ParseHeartbeat decodes one heartbeat line; ok is false for any other
// line, a malformed heartbeat included.
func ParseHeartbeat(line []byte) (Snapshot, bool) {
	if !IsHeartbeat(line) {
		return Snapshot{}, false
	}
	var s Snapshot
	if err := json.Unmarshal(line, &s); err != nil {
		return Snapshot{}, false
	}
	return s, true
}

// DefaultInterval is the heartbeat / progress-tick interval used when a
// caller enables progress reporting without choosing one.
const DefaultInterval = 500 * time.Millisecond

// Reporter throttles progress snapshots for the in-process engines: the
// step loop offers a tick every few thousand steps, and the reporter
// materialises a Snapshot — invoking the callback and appending to the
// timeline — only when the interval has elapsed. A nil *Reporter no-ops,
// so engines create one only when progress reporting is requested.
type Reporter struct {
	Model    string
	Engine   string
	Interval time.Duration
	Callback func(Snapshot)

	// Timeline accumulates every emitted snapshot (the coverage-over-time
	// record surfaced in the final Result).
	Timeline []Snapshot

	start time.Time
	next  time.Time
}

// NewReporter builds a reporter; a non-positive interval selects
// DefaultInterval. The clock starts immediately.
func NewReporter(model, engine string, interval time.Duration, cb func(Snapshot)) *Reporter {
	if interval <= 0 {
		interval = DefaultInterval
	}
	now := time.Now()
	return &Reporter{
		Model: model, Engine: engine, Interval: interval, Callback: cb,
		start: now, next: now.Add(interval),
	}
}

// MaybeTick emits a snapshot if the interval has elapsed. The lazy
// closure supplies coverage % (-1 when uncollected) and the diagnosis
// count, and is only invoked when a snapshot is actually due — keeping
// the per-tick cost of an idle reporter to one time read.
func (r *Reporter) MaybeTick(steps int64, lazy func() (coverage float64, diags int64)) {
	if r == nil {
		return
	}
	now := time.Now()
	if now.Before(r.next) {
		return
	}
	r.next = now.Add(r.Interval)
	cov, diags := lazy()
	r.emit(steps, now, cov, diags, false)
}

// Final emits the end-of-run snapshot unconditionally, so every enabled
// run yields at least one timeline point.
func (r *Reporter) Final(steps int64, coverage float64, diags int64) {
	if r == nil {
		return
	}
	r.emit(steps, time.Now(), coverage, diags, true)
}

func (r *Reporter) emit(steps int64, now time.Time, coverage float64, diags int64, final bool) {
	elapsed := now.Sub(r.start)
	sps := 0.0
	if elapsed > 0 {
		sps = float64(steps) / elapsed.Seconds()
	}
	s := Snapshot{
		Model: r.Model, Engine: r.Engine,
		Steps: steps, ElapsedNanos: elapsed.Nanoseconds(), StepsPerSec: sps,
		Coverage: coverage, Diags: diags, Final: final,
	}
	r.Timeline = append(r.Timeline, s)
	if r.Callback != nil {
		r.Callback(s)
	}
}
