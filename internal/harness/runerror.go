package harness

import (
	"fmt"
	"time"

	"accmos/internal/obs"
)

// Failure reasons recorded on a RunError — the machine-readable
// classification a debug bundle or metrics label keys on, next to the
// human-oriented Error() text.
const (
	// ReasonTimeout: the run (or worker request) exceeded its wall-clock
	// deadline and its process group was killed.
	ReasonTimeout = "timeout"
	// ReasonCanceled: the caller's context was canceled mid-run.
	ReasonCanceled = "canceled"
	// ReasonExit: the generated binary exited non-zero on its own, either
	// after answering or, ephemeral or pooled, by dying mid-request.
	ReasonExit = "exit"
	// ReasonProtocol: a serve-mode worker broke the NDJSON frame protocol
	// (unreadable frame, marker/id mismatch) and was destroyed.
	ReasonProtocol = "protocol"
	// ReasonWorker: a serve-mode worker answered with an error frame.
	ReasonWorker = "worker-error"
	// ReasonDecode: the binary exited cleanly but its result document did
	// not decode.
	ReasonDecode = "decode"
)

// errHeartbeats bounds how many trailing heartbeats a RunError retains —
// enough to see what the simulation was doing when it died without
// carrying a whole timeline.
const errHeartbeats = 8

// RunError is the structured form of a generated-binary execution
// failure: what died (model, suite, binary, correlation ID), why
// (Reason, exit code, deadline), and the bounded evidence (stderr tail,
// last heartbeats) a caller needs to debug the run after the fact — the
// raw material of accmosd's per-job debug bundles. Error() renders the
// same human-readable message the harness has always produced, so
// callers that only print keep working.
type RunError struct {
	// Model and Suite identify the run (RunOptions.Model / .Suite).
	Model string
	Suite int
	// Bin is the binary path that was executing.
	Bin string
	// Corr is the run's correlation ID (RunOptions.RunID).
	Corr string
	// Reason is one of the Reason* constants.
	Reason string
	// Timeout is the deadline that fired when Reason == ReasonTimeout.
	Timeout time.Duration
	// ExitCode is the process exit code (-1 when unknown, e.g. killed by
	// signal or still attributed to a live worker).
	ExitCode int
	// StderrTail holds the last stderr lines (bounded by errTailLines).
	StderrTail []string
	// Heartbeats holds the last progress snapshots seen before the
	// failure (bounded by errHeartbeats).
	Heartbeats []obs.Snapshot
	// Err is the underlying cause (context.Canceled,
	// context.DeadlineExceeded, the exec wait error, ...).
	Err error

	msg string
}

// Error returns the preformatted harness error message. An externally
// constructed RunError (a stub runner, a test) has no preformatted text
// and falls back to a minimal rendering of its fields.
func (e *RunError) Error() string {
	if e.msg != "" {
		return e.msg
	}
	return fmt.Sprintf("harness: running %s: %s", e.Bin, e.Reason)
}

// Unwrap exposes the underlying cause to errors.Is / errors.As.
func (e *RunError) Unwrap() error { return e.Err }

// heartbeatTail bounds a timeline to its last errHeartbeats entries.
func heartbeatTail(timeline []obs.Snapshot) []obs.Snapshot {
	if len(timeline) <= errHeartbeats {
		return append([]obs.Snapshot(nil), timeline...)
	}
	return append([]obs.Snapshot(nil), timeline[len(timeline)-errHeartbeats:]...)
}
