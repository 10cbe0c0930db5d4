// Package diagnose implements the paper's calculation-diagnosis layer
// (§3.2.B): a rule library keyed by actor type and operator that decides
// which error classes each actor is checked for, the runtime records those
// checks produce, and the custom signal diagnosis mechanism (range, delta,
// and callback checks). The same rules drive the interpreter's flag
// filtering and the code generator's diagnosis-function emission, keeping
// the two engines' findings identical.
package diagnose

import (
	"fmt"

	"accmos/internal/actors"
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

// RulesFor returns the error classes diagnosed for an actor, derived from
// its type and operator exactly as the paper describes: a Product actor
// with a "/" operator is checked for division by zero, the same actor with
// only "*" is not, and so on. An empty result means the actor gets no
// diagnosis function.
func RulesFor(info *actors.Info) []Kind {
	var ks []Kind
	add := func(k Kind) { ks = append(ks, k) }
	outInt := info.OutKind().IsInteger()
	outFloat := info.OutKind().IsFloat()

	switch info.Actor.Type {
	case "Sum", "Bias", "DotProduct", "SumOfElements":
		if outInt {
			add(WrapOnOverflow)
		}
		if outFloat {
			add(NaNOrInf)
		}
		if hasDowncast(info) {
			add(Downcast)
		}
	case "Product", "ProductOfElements":
		if outInt {
			add(WrapOnOverflow)
		}
		if outFloat {
			add(NaNOrInf)
		}
		for i := 0; i < len(info.Operator); i++ {
			if info.Operator[i] == '/' {
				add(DivisionByZero)
				break
			}
		}
		if info.Actor.Type == "Product" && hasDowncast(info) {
			add(Downcast)
		}
	case "Gain", "DiscreteIntegrator", "Counter":
		if outInt {
			add(WrapOnOverflow)
		}
		if outFloat {
			add(NaNOrInf)
		}
	case "Abs", "UnaryMinus":
		if info.OutKind().IsSigned() {
			add(WrapOnOverflow)
		}
	case "Math", "Sqrt", "Rounding":
		switch info.Operator {
		case "log", "log10", "log2", "sqrt", "asin", "acos":
			add(DomainError)
		case "reciprocal":
			add(DivisionByZero)
		}
		if outFloat {
			add(NaNOrInf)
		}
	case "Mod":
		add(DivisionByZero)
	case "DataTypeConversion":
		if hasDowncast(info) {
			add(Downcast)
			add(OutOfRange)
		}
		if info.InKinds[0].IsFloat() && info.OutKind().IsInteger() {
			add(PrecisionLoss)
		}
		if info.InKinds[0] == types.I64 || info.InKinds[0] == types.U64 {
			if info.OutKind().IsFloat() {
				add(PrecisionLoss)
			}
		}
	case "Shift":
		if info.Operator == "left" {
			add(WrapOnOverflow)
		}
	case "LookupDirect", "MultiportSwitch":
		add(IndexOutOfBounds)
	case "Selector":
		if info.NumIn() == 2 {
			add(IndexOutOfBounds)
		}
	case "Polynomial":
		if outFloat {
			add(NaNOrInf)
		}
	case "DeadZone":
		if outInt {
			add(WrapOnOverflow)
		}
	}
	return ks
}

// hasDowncast reports whether any input kind is strictly wider than the
// output kind — the paper's sizeof()-based downcast condition.
func hasDowncast(info *actors.Info) bool {
	out := info.OutKind()
	for _, ik := range info.InKinds {
		if ik == types.Invalid {
			continue
		}
		if !out.Wider(ik) {
			return true
		}
	}
	return false
}

// FlagKinds translates raised operation flags into the error classes they
// evidence, filtered by the actor's rule set. The order is fixed so both
// engines report findings identically.
func FlagKinds(rules []Kind, flags types.OpResult) []Kind {
	has := func(k Kind) bool {
		for _, r := range rules {
			if r == k {
				return true
			}
		}
		return false
	}
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
