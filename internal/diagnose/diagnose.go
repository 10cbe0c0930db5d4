// Package diagnose holds the vocabulary of the paper's calculation
// diagnosis (§3.2.B): the error classes (Kind), the records checks
// produce and the sink that aggregates them, the translation of raised
// operation flags into error classes, and the custom signal diagnosis
// mechanism (range, delta and callback checks). Which classes an actor is
// checked for, and the generated check that finds them, are stated per
// actor type on its actors.Spec.
package diagnose

import (
	"fmt"
	"slices"

	"accmos/internal/types"
)

// Kind names one diagnosable error class.
type Kind string

// The error classes AccMoS diagnoses — the set SSE enables by default per
// the paper, plus NaN/Inf propagation for float models.
const (
	WrapOnOverflow   Kind = "WrapOnOverflow"
	Downcast         Kind = "Downcast"
	DivisionByZero   Kind = "DivisionByZero"
	PrecisionLoss    Kind = "PrecisionLoss"
	IndexOutOfBounds Kind = "IndexOutOfBounds"
	DomainError      Kind = "DomainError"
	NaNOrInf         Kind = "NaNOrInf"
	OutOfRange       Kind = "OutOfRange"
	Custom           Kind = "Custom"
)

// Record is one diagnostic finding.
type Record struct {
	Step   int64  `json:"step"`
	Actor  string `json:"actor"` // paper-style actor path
	Kind   Kind   `json:"kind"`
	Detail string `json:"detail,omitempty"`
}

// String renders the record in the paper's warning style.
func (r Record) String() string {
	return fmt.Sprintf("WARNING: %s occur on %s at step %d%s", r.Kind, r.Actor, r.Step, optDetail(r.Detail))
}

func optDetail(d string) string {
	if d == "" {
		return ""
	}
	return " (" + d + ")"
}

// FlagKinds translates raised operation flags into the error classes they
// evidence, filtered by the actor's rule set. The order is fixed so both
// engines report findings identically.
func FlagKinds(rules []Kind, flags types.OpResult) []Kind {
	has := func(k Kind) bool { return slices.Contains(rules, k) }
	var out []Kind
	if flags.Overflow && has(WrapOnOverflow) {
		out = append(out, WrapOnOverflow)
	}
	if flags.DivByZero && has(DivisionByZero) {
		out = append(out, DivisionByZero)
	}
	if flags.DomainErr && has(DomainError) {
		out = append(out, DomainError)
	}
	if flags.NaNOrInf && has(NaNOrInf) {
		out = append(out, NaNOrInf)
	}
	if flags.OutOfRange {
		switch {
		case has(IndexOutOfBounds):
			out = append(out, IndexOutOfBounds)
		case has(OutOfRange):
			out = append(out, OutOfRange)
		}
	}
	if flags.PrecisionLoss && has(PrecisionLoss) {
		out = append(out, PrecisionLoss)
	}
	return out
}

// CustomKind selects a custom signal diagnosis flavor (§3.2.B Custom
// Signal Diagnose).
type CustomKind int

// Custom check flavors.
const (
	// RangeCheck fires when the monitored value leaves [Lo, Hi].
	RangeCheck CustomKind = iota
	// DeltaCheck fires when the value jumps by more than MaxDelta between
	// consecutive steps (sudden signal change detection).
	DeltaCheck
	// CallbackCheck delegates to a user Go callback. Interpreter only: a
	// Go closure cannot be serialised into generated code.
	CallbackCheck
)

// CustomCheck is a user-defined signal diagnosis attached to one actor's
// output. Name appears in the produced records.
type CustomCheck struct {
	Actor    string // actor name within the model
	Name     string
	Kind     CustomKind
	Lo, Hi   float64 // RangeCheck bounds
	MaxDelta float64 // DeltaCheck threshold
	// Callback returns (fired, detail). Only used with CallbackCheck.
	Callback func(step int64, v types.Value) (bool, string)
}

// Validate rejects ill-formed checks early.
func (c *CustomCheck) Validate() error {
	if c.Actor == "" {
		return fmt.Errorf("diagnose: custom check %q has no actor", c.Name)
	}
	switch c.Kind {
	case RangeCheck:
		if c.Lo > c.Hi {
			return fmt.Errorf("diagnose: custom check %q has Lo > Hi", c.Name)
		}
	case DeltaCheck:
		if c.MaxDelta < 0 {
			return fmt.Errorf("diagnose: custom check %q has negative MaxDelta", c.Name)
		}
	case CallbackCheck:
		if c.Callback == nil {
			return fmt.Errorf("diagnose: custom check %q has nil callback", c.Name)
		}
	default:
		return fmt.Errorf("diagnose: custom check %q has unknown kind %d", c.Name, c.Kind)
	}
	return nil
}

// Sink accumulates findings with bounded storage: the first Cap records
// are kept verbatim, all findings are counted per (actor, kind), and the
// first step at which each (actor, kind) fired is recorded — that first
// step is the error-detection metric the paper's case study measures.
type Sink struct {
	Cap         int
	Records     []Record
	Counts      map[string]int64
	FirstDetect map[string]int64
	Total       int64
}

// MaxRecords is the number of verbatim records a run keeps, in the
// interpreter's sink and in a generated program alike.
const MaxRecords = 64

// NewSink creates a sink keeping at most cap verbatim records.
func NewSink(cap int) *Sink {
	return &Sink{
		Cap:         cap,
		Counts:      make(map[string]int64),
		FirstDetect: make(map[string]int64),
	}
}

// Key builds the canonical "<actor>|<kind>" aggregation key.
func Key(actor string, kind Kind) string { return actor + "|" + string(kind) }

// Report records one finding.
func (s *Sink) Report(r Record) {
	s.Total++
	k := Key(r.Actor, r.Kind)
	s.Counts[k]++
	if _, seen := s.FirstDetect[k]; !seen {
		s.FirstDetect[k] = r.Step
	}
	if len(s.Records) < s.Cap {
		s.Records = append(s.Records, r)
	}
}
