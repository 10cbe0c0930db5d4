package opt

import (
	"strconv"

	"accmos/internal/actors"
	"accmos/internal/model"
	"accmos/internal/types"
)

// events captures what one Eval reported besides its value: coverage
// outcomes and diagnosis flags. Folding is only sound when these are
// step-independent, so a candidate is probed at two distant steps and must
// report identical events (and values) at both.
type events struct {
	branch   int
	decision int8
	conds    []bool
	flags    types.OpResult
}

func sameEvents(a, b events) bool {
	if a.branch != b.branch || a.decision != b.decision ||
		a.flags != b.flags || len(a.conds) != len(b.conds) {
		return false
	}
	for i := range a.conds {
		if a.conds[i] != b.conds[i] {
			return false
		}
	}
	return true
}

// constFold evaluates actors whose inputs are all compile-time constants
// once at compile time and replaces them with Constant sources. Replaced
// actors keep their names, so name-keyed instrumentation (actor bitmap
// slots, monitors, custom checks) keeps resolving against the original
// layout; their statically-known condition/decision/MC-DC outcomes are
// pre-marked when coverage is on.
func (s *session) constFold(c *actors.Compiled) (*model.Model, int, error) {
	if hasDataStores(c) {
		return nil, 0, nil // rescheduling hazard; see hasDataStores
	}
	konst := make(map[string]types.Value) // actor name -> constant port-0 output
	type fold struct {
		info *actors.Info
		val  types.Value
		ev   events
	}
	var folds []fold
	for _, info := range c.Order {
		switch info.Actor.Type {
		case "Constant", "Ground":
			if v, _, ok := probeAt(info, nil, 0); ok {
				konst[info.Actor.Name] = v
			}
			continue
		}
		if !s.foldable(info) {
			continue
		}
		in := make([]types.Value, info.NumIn())
		allConst := true
		for p, src := range info.InSrc {
			v, ok := konst[src.Actor]
			if !ok || src.Port != 0 {
				allConst = false
				break
			}
			in[p] = v
		}
		if !allConst {
			continue
		}
		v0, ev0, ok := probeAt(info, in, 0)
		if !ok {
			continue
		}
		// A second probe at a distant step catches step-dependent sources
		// (Step, Ramp, Clock, ...) and impure Evals.
		v1, ev1, ok := probeAt(info, in, 1_000_003)
		if !ok || !types.Equal(v0, v1) || !sameEvents(ev0, ev1) {
			continue
		}
		// The replacement Constant re-emits the value verbatim, so it must
		// already have the declared output kind and width.
		if v0.Kind != info.OutKinds[0] || v0.Width() != info.OutWidths[0] {
			continue
		}
		konst[info.Actor.Name] = v0
		folds = append(folds, fold{info, v0, ev0})
	}
	if len(folds) == 0 {
		return nil, 0, nil
	}
	m2 := c.Model.Clone()
	folded := make(map[string]bool, len(folds))
	for _, f := range folds {
		a := m2.Actor(f.info.Actor.Name)
		a.Type = "Constant"
		a.Operator = ""
		a.Params = map[string]string{
			"Value":       f.val.String(),
			"OutDataType": f.val.Kind.String(),
		}
		if w := f.val.Width(); w > 1 {
			a.Params["OutWidth"] = strconv.Itoa(w)
		}
		a.Inputs = nil
		folded[a.Name] = true
		if s.o.Coverage {
			s.replay(f.info, f.ev)
		}
	}
	kept := m2.Connections[:0]
	for _, cn := range m2.Connections {
		if !folded[cn.DstActor] {
			kept = append(kept, cn)
		}
	}
	m2.Connections = kept
	return m2, len(folds), nil
}

// foldable applies the structural soundness conditions; value/purity
// conditions are checked by the dual-step probe.
func (s *session) foldable(info *actors.Info) bool {
	switch info.Actor.Type {
	case "Inport", "Outport", "Constant", "Ground",
		"DataStoreRead", "DataStoreWrite", "DataStoreMemory":
		return false
	}
	if len(info.Actor.Outputs) != 1 {
		return false
	}
	if info.Spec.Eval == nil || info.Spec.Stateful || info.Spec.Init != nil || info.Spec.Update != nil {
		return false
	}
	if info.Gated() {
		// Enable state decides per step whether the actor runs (and whether
		// it is instrumented); that is not static.
		return false
	}
	if s.o.Diagnose && len(info.DiagRules()) > 0 {
		// A diagnosis rule could fire on any step; replacing the actor
		// would silently drop those records.
		return false
	}
	return true
}

// probeAt evaluates one actor against fixed inputs at the given step,
// reporting its port-0 output and observation events. ok is false when the
// actor has no single output or its Eval panics.
func probeAt(info *actors.Info, in []types.Value, step int64) (v types.Value, ev events, ok bool) {
	defer func() {
		if recover() != nil {
			ok = false
		}
	}()
	ec := actors.EvalCtx{
		Info:  info,
		In:    in,
		Outs:  make([]types.Value, len(info.Actor.Outputs)),
		State: &actors.State{},
	}
	ec.Reset(step)
	info.Spec.Eval(&ec)
	ev = events{
		branch:   ec.Branch,
		decision: ec.Decision,
		conds:    append([]bool(nil), ec.Conds...),
		flags:    ec.Flags,
	}
	if len(ec.Outs) != 1 {
		return types.Value{}, ev, false
	}
	return ec.Outs[0], ev, true
}

// replay pre-marks the coverage outcomes a folded actor would have
// reported every step, mirroring the interpreter's instrument() gates.
func (s *session) replay(info *actors.Info, ev events) {
	name := info.Actor.Name
	if ev.branch >= 0 {
		s.pre.Branch(name, ev.branch)
	}
	if ev.decision >= 0 {
		s.pre.Decision(name, ev.decision == 1)
	}
	if len(ev.conds) >= 2 && info.IsCombinationCondition() {
		s.pre.MCDC(name, info.Operator, ev.conds)
	}
}
