// Package obs is the stdlib-only telemetry subsystem threaded through the
// AccMoS pipeline: phase tracing (a lightweight nested-span API over the
// monotonic clock, exportable as a JSON trace and a human summary) and
// live step-loop progress snapshots (decoded from the NDJSON heartbeat
// stream generated programs emit on stderr, or produced directly by the
// in-process engines). It imports nothing from the rest of the repository
// so every layer — codegen, harness, engines, CLIs — can depend on it.
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"
)

// Span is one traced pipeline phase. Timestamps are monotonic nanosecond
// offsets from the owning Tracer's construction, so a serialized trace is
// self-consistent regardless of wall-clock adjustments.
type Span struct {
	Name       string  `json:"name"`
	StartNanos int64   `json:"startNanos"`
	EndNanos   int64   `json:"endNanos"`
	Children   []*Span `json:"children,omitempty"`
	// Attrs qualifies the phase (e.g. memo=hit on a "frontend" span).
	Attrs map[string]string `json:"attrs,omitempty"`

	tracer *Tracer
}

// Duration returns the span length (zero while the span is still open).
func (s *Span) Duration() time.Duration {
	if s == nil || s.EndNanos < s.StartNanos {
		return 0
	}
	return time.Duration(s.EndNanos - s.StartNanos)
}

// End closes the span. A nil receiver is a no-op so call sites can write
// `defer tr.Start("phase").End()` without checking whether tracing is on.
func (s *Span) End() {
	if s == nil || s.tracer == nil {
		return
	}
	s.tracer.end(s)
}

// Set attaches an attribute to the span. Nil-safe like End.
func (s *Span) Set(key, value string) {
	if s == nil || s.tracer == nil {
		return
	}
	s.tracer.mu.Lock()
	defer s.tracer.mu.Unlock()
	if s.Attrs == nil {
		s.Attrs = make(map[string]string)
	}
	s.Attrs[key] = value
}

// Tracer records a tree of phase spans. The zero value is not usable; a
// nil *Tracer is: every method no-ops, so the pipeline threads an optional
// tracer without nil checks.
type Tracer struct {
	mu    sync.Mutex
	start time.Time
	corr  string
	roots []*Span
	stack []*Span
}

// SetCorr attaches a correlation ID (a job ID under accmosd, a generated
// run ID for CLI runs) to the trace, so its serialized form is joinable
// with log lines, heartbeats and debug bundles carrying the same ID.
// Nil-safe.
func (t *Tracer) SetCorr(id string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.corr = id
	t.mu.Unlock()
}

// Corr returns the trace's correlation ID ("" when unset). Nil-safe.
func (t *Tracer) Corr() string {
	if t == nil {
		return ""
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.corr
}

// NewTracer starts a tracer; all span offsets are relative to this call.
func NewTracer() *Tracer { return &Tracer{start: time.Now()} }

// Start opens a span nested under the innermost still-open span (or at the
// root). Returns nil — safely End()-able — on a nil tracer.
func (t *Tracer) Start(name string) *Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &Span{Name: name, StartNanos: time.Since(t.start).Nanoseconds(), EndNanos: -1, tracer: t}
	if n := len(t.stack); n > 0 {
		p := t.stack[n-1]
		p.Children = append(p.Children, s)
	} else {
		t.roots = append(t.roots, s)
	}
	t.stack = append(t.stack, s)
	return s
}

// end closes s, implicitly closing any deeper spans left open (a phase
// that returns early via error paths still yields a well-formed tree).
func (t *Tracer) end(s *Span) {
	t.mu.Lock()
	defer t.mu.Unlock()
	now := time.Since(t.start).Nanoseconds()
	for i := len(t.stack) - 1; i >= 0; i-- {
		sp := t.stack[i]
		if sp.EndNanos < 0 {
			sp.EndNanos = now
		}
		if sp == s {
			t.stack = t.stack[:i]
			return
		}
	}
	// s was not on the stack (already ended): nothing to pop.
}

// Trace is the serializable form of a tracer's span tree. Corr is the
// correlation ID shared with the run's log lines and heartbeats.
type Trace struct {
	Corr  string  `json:"corr,omitempty"`
	Spans []*Span `json:"spans"`
}

// Trace snapshots the current span tree. Open spans appear with
// EndNanos -1.
func (t *Tracer) Trace() *Trace {
	if t == nil {
		return &Trace{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return &Trace{Corr: t.corr, Spans: t.roots}
}

// WriteJSON serializes the trace as indented JSON.
func (t *Tracer) WriteJSON(w io.Writer) error {
	b, err := json.MarshalIndent(t.Trace(), "", "  ")
	if err != nil {
		return fmt.Errorf("obs: encoding trace: %w", err)
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}

// Summary renders the span tree as indented human-readable lines
// ("schedule 1.2ms", nested phases indented beneath their parent, each
// followed by its attributes in key order).
func (t *Tracer) Summary() string {
	var sb strings.Builder
	var walk func(spans []*Span, depth int)
	walk = func(spans []*Span, depth int) {
		for _, s := range spans {
			fmt.Fprintf(&sb, "%s%-12s %v", strings.Repeat("  ", depth), s.Name, s.Duration())
			keys := make([]string, 0, len(s.Attrs))
			for k := range s.Attrs {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for _, k := range keys {
				fmt.Fprintf(&sb, " %s=%s", k, s.Attrs[k])
			}
			sb.WriteByte('\n')
			walk(s.Children, depth+1)
		}
	}
	walk(t.Trace().Spans, 0)
	return sb.String()
}

// Find returns the spans with the given name anywhere in the trace, in
// depth-first order.
func (tr *Trace) Find(name string) []*Span {
	var out []*Span
	var walk func(spans []*Span)
	walk = func(spans []*Span) {
		for _, s := range spans {
			if s.Name == name {
				out = append(out, s)
			}
			walk(s.Children)
		}
	}
	walk(tr.Spans)
	return out
}
