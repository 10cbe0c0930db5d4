// Package actors is the actor semantics registry: for each supported actor
// type it defines port rules, scheduling properties (feedthrough vs
// stateful), coverage characteristics (branch / boolean logic / combination
// condition), interpreter semantics (Eval/Update), code-generation
// templates (Gen) and calculation diagnosis: the rules that pick an
// instance's error classes (DiagRules) and the emitter of its generated
// check (DiagGen). It also implements model elaboration: schedule
// conversion via delay-aware topological sorting and port type resolution,
// producing the Compiled form every simulation engine consumes.
package actors

import (
	"fmt"
	"sort"

	"accmos/internal/diagnose"
	"accmos/internal/model"
	"accmos/internal/types"
)

// Spec describes the static properties and semantics of one actor type.
type Spec struct {
	Type model.ActorType

	// Port rules. MaxIn < 0 means unbounded. NumOut is the fixed output
	// count unless VariableOut (Demux) where outputs follow the instance.
	MinIn, MaxIn int
	NumOut       int
	VariableOut  bool

	// Stateful actors have no direct feedthrough: their output depends only
	// on state, so their input edges do not constrain the schedule.
	Stateful bool

	// ScalarOnly actors reject vector ports at elaboration; the rest are
	// elementwise-capable in both engines.
	ScalarOnly bool

	// Coverage characteristics (paper Algorithm 1 lines 5-10).
	Branch      bool                 // condition coverage: has executable branches
	BranchCount func(info *Info) int // number of branches when Branch
	BooleanOut  bool                 // decision coverage: boolean statement
	Combination bool                 // MC/DC when the instance has >= 2 inputs

	// Operators lists the legal Operator strings; empty means the operator
	// field is unused. DefaultOperator is applied when the instance leaves
	// the operator empty. FreeOperator skips the registry-level check
	// entirely (Sum/Product sign strings are validated in Prepare).
	Operators       []string
	DefaultOperator string
	FreeOperator    bool

	// OutKind computes the default output kind when the instance does not
	// set OutDataType. It may return types.Invalid if input kinds are not
	// yet resolved; elaboration iterates to a fixpoint.
	OutKind func(info *Info) types.Kind

	// OutWidth computes the default output width (0 = not yet resolvable,
	// nil = always 1).
	OutWidth func(info *Info) int

	// Prepare parses instance parameters into info.Aux and validates them.
	Prepare func(info *Info) error

	// Init populates the interpreter state for a fresh simulation.
	Init func(info *Info, st *State)

	// Eval computes the actor's outputs for the current step.
	Eval func(ec *EvalCtx)

	// Update commits end-of-step state for stateful actors (runs after
	// every actor's Eval, reading current-step input values).
	Update func(ec *EvalCtx)

	// Gen emits the actor's computation into generated code.
	Gen func(gc *GenCtx) error

	// Calculation diagnosis (diag.go). DiagRules returns the error classes
	// an instance is checked for (nil: the type is never diagnosed);
	// DiagGen emits the instance's generated check body (nil: Gen raises
	// the type's checks itself).
	DiagRules func(info *Info) []diagnose.Kind
	DiagGen   func(dc *DiagCtx)
}

// registry holds every known actor type.
var registry = map[model.ActorType]*Spec{}

func register(s *Spec) {
	if _, dup := registry[s.Type]; dup {
		panic(fmt.Sprintf("actors: duplicate registration of %q", s.Type))
	}
	registry[s.Type] = s
}

// Lookup returns the spec for the given actor type.
func Lookup(t model.ActorType) (*Spec, error) {
	s, ok := registry[t]
	if !ok {
		return nil, fmt.Errorf("actors: unknown actor type %q", t)
	}
	return s, nil
}

// Types returns all registered actor type names, sorted.
func Types() []string {
	out := make([]string, 0, len(registry))
	for t := range registry {
		out = append(out, string(t))
	}
	sort.Strings(out)
	return out
}

// operatorAllowed reports whether op is legal for s.
func (s *Spec) operatorAllowed(op string) bool {
	if s.FreeOperator {
		return true
	}
	if len(s.Operators) == 0 {
		return op == ""
	}
	for _, o := range s.Operators {
		if o == op {
			return true
		}
	}
	return false
}

// Info is the elaborated view of one actor instance: resolved port kinds
// and widths, drivers, schedule position, and prepared parameters.
type Info struct {
	Actor *model.Actor
	Spec  *Spec
	Path  string
	Index int // position in execution order

	Operator string // resolved (instance or spec default)

	OutKinds  []types.Kind
	OutWidths []int
	InKinds   []types.Kind
	InWidths  []int
	InSrc     []model.PortRef // driver output ref per input, zero if none

	// EnabledBy gates conditional execution (Simulink enabled-subsystem
	// semantics with reset outputs): when the referenced boolean signal is
	// false at a step, the actor does not execute — its outputs are zero,
	// its state freezes, and no coverage, diagnosis or monitoring fires.
	// A zero ref (empty Actor) means always enabled.
	EnabledBy model.PortRef

	Aux interface{} // per-type prepared parameters
}

// Gated reports whether the actor executes conditionally.
func (in *Info) Gated() bool { return in.EnabledBy.Actor != "" }

// OutKind returns the kind of output 0 (the common single-output case).
func (in *Info) OutKind() types.Kind {
	if len(in.OutKinds) == 0 {
		return types.Invalid
	}
	return in.OutKinds[0]
}

// OutWidth returns the width of output 0.
func (in *Info) OutWidth() int {
	if len(in.OutWidths) == 0 {
		return 1
	}
	return in.OutWidths[0]
}

// NumIn returns the instance's input count.
func (in *Info) NumIn() int { return len(in.Actor.Inputs) }

// IsBranchActor mirrors the paper's actorInfo.isBranchActor predicate.
func (in *Info) IsBranchActor() bool { return in.Spec.Branch }

// ContainsBooleanLogic mirrors actorInfo.containBooleanLogic.
func (in *Info) ContainsBooleanLogic() bool { return in.Spec.BooleanOut }

// IsCombinationCondition mirrors actorInfo.isCombinationCondition: a
// boolean combination over two or more conditions.
func (in *Info) IsCombinationCondition() bool {
	return in.Spec.Combination && in.NumIn() >= 2
}

// Branches returns the branch count for condition coverage (0 when the
// actor is not a branch actor).
func (in *Info) Branches() int {
	if !in.Spec.Branch || in.Spec.BranchCount == nil {
		return 0
	}
	return in.Spec.BranchCount(in)
}
