package opt

import (
	"accmos/internal/actors"
	"accmos/internal/model"
)

// dce drops actors whose outputs transitively reach no observable root:
// no root output, data store, display sink, monitor, custom check or stop
// condition. Removal is schedule-order-safe for the survivors because a
// dead actor by construction has no edge into a live one, so live actors
// keep their exact relative execution order.
//
// With coverage on, a dead ungated actor still executes every step at O0
// and marks its actor bit, so removal pre-marks that bit; actors carrying
// condition/decision/MC-DC points (whose outcomes depend on runtime
// values) or an enable gate (whose execution is not static) are kept.
// With diagnosis on, actors carrying diagnosis rules are kept.
func (s *session) dce(c *actors.Compiled) (*model.Model, int, error) {
	keep := make(map[string]bool)
	var roots []string
	addRoot := func(n string) {
		if n != "" && !keep[n] {
			keep[n] = true
			roots = append(roots, n)
		}
	}
	for _, n := range ObservableRoots(c) {
		addRoot(n)
	}
	for _, info := range c.Inports {
		// Inports stay: the generated program's test-case arity and the
		// per-step input hashing contract must not change under -O.
		addRoot(info.Actor.Name)
	}
	for _, n := range s.o.Monitor {
		addRoot(n)
	}
	for i := range s.o.Custom {
		addRoot(s.o.Custom[i].Actor)
	}
	if s.o.StopOnActor != "" {
		// Engines disagree on spelling (interp matches the actor name,
		// codegen the path); accept either.
		for _, info := range c.Order {
			if info.Actor.Name == s.o.StopOnActor || info.Path == s.o.StopOnActor {
				addRoot(info.Actor.Name)
			}
		}
	}
	alive := Influencers(c, roots)
	for {
		changed := false
		for _, info := range c.Order {
			if alive[info.Actor.Name] || keep[info.Actor.Name] {
				continue
			}
			if !s.removable(info) {
				addRoot(info.Actor.Name)
				changed = true
			}
		}
		if !changed {
			break
		}
		alive = Influencers(c, roots)
	}
	drop := make(map[string]bool)
	for _, info := range c.Order {
		if !alive[info.Actor.Name] {
			drop[info.Actor.Name] = true
			if s.o.Coverage {
				s.pre.Actor(info.Actor.Name)
			}
		}
	}
	if len(drop) == 0 {
		return nil, 0, nil
	}
	m2 := rebuildModel(c.Model.Clone(),
		func(a *model.Actor) bool { return !drop[a.Name] },
		func(cn model.Connection) bool { return !drop[cn.SrcActor] && !drop[cn.DstActor] })
	return m2, len(drop), nil
}

// removable decides whether a dead actor may actually leave the schedule
// without changing what the run reports.
func (s *session) removable(info *actors.Info) bool {
	if s.o.Coverage {
		if info.Gated() {
			return false // actor-bit marking depends on the enable signal
		}
		if info.IsBranchActor() || info.ContainsBooleanLogic() || info.IsCombinationCondition() {
			return false // runtime-valued coverage points
		}
	}
	if s.o.Diagnose && len(info.DiagRules()) > 0 {
		return false
	}
	return true
}
