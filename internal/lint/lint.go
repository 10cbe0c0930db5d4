// Package lint implements static model diagnosis: structural checks that
// find suspicious model constructs before any simulation runs — the
// "logical errors, incorrect assumptions, and unintended behaviors" the
// paper's simulation workflow hunts for, caught where a static pass
// suffices. It complements the runtime calculation diagnosis in
// internal/diagnose.
package lint

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"accmos/internal/actors"
	"accmos/internal/diagnose"
	"accmos/internal/opt"
	"accmos/internal/opt/ir"
	"accmos/internal/opt/irplan"
)

// Severity ranks a finding.
type Severity string

// Severities. Error findings mark models that must not reach code
// generation (a serving layer rejects them at admission); warnings and
// infos are advisory.
const (
	Error   Severity = "error"
	Warning Severity = "warning"
	Info    Severity = "info"
)

// MaxSignalWidth caps the vector width any one signal may carry. Code
// generation materialises vector signals as fixed-size arrays in the
// generated program, so an absurd OutWidth in a submitted model would
// balloon generated-source size and compile time — a resource-exhaustion
// hazard for a long-lived daemon accepting third-party models.
const MaxSignalWidth = 65536

// Rule slugs: the stable machine-readable names of the static rules, so
// clients (e.g. accmosd admission responses) can filter findings without
// parsing messages.
const (
	RuleMaxSignalWidth       = "MaxSignalWidth"
	RuleDeadActors           = "DeadActors"
	RuleDanglingOutput       = "DanglingOutput"
	RuleDowncast             = "Downcast"
	RuleConstantBranch       = "ConstantBranch"
	RuleDivByConstZero       = "DivByConstZero"
	RuleZeroGain             = "ZeroGain"
	RuleDegenerateSaturation = "DegenerateSaturation"
	RuleCoupledConditions    = "CoupledConditions"
	RuleConstantEnable       = "ConstantEnable"
	RuleNoFusion             = "NoFusion"
)

// NoFusionMinActors gates the NoFusion rule: below this actor count the
// absence of fusable chains is expected, not a modeling smell.
const NoFusionMinActors = 20

// Finding is one static diagnosis.
type Finding struct {
	Severity Severity
	Rule     string // stable rule slug (Rule* constants)
	Actor    string // paper-style path
	Message  string
}

// String renders the finding as "severity: actor: message".
func (f Finding) String() string {
	return fmt.Sprintf("%s: %s: %s", f.Severity, f.Actor, f.Message)
}

// Check runs every static rule over a compiled model. Findings are sorted
// by actor path, warnings before infos within an actor.
func Check(c *actors.Compiled) []Finding {
	var out []Finding
	add := func(sev Severity, rule string, info *actors.Info, format string, args ...interface{}) {
		out = append(out, Finding{Severity: sev, Rule: rule, Actor: info.Path, Message: fmt.Sprintf(format, args...)})
	}

	constDriver := func(info *actors.Info, port int) (*actors.Info, bool) {
		src := info.InSrc[port]
		if src.Actor == "" {
			return nil, false
		}
		drv := c.Info(src.Actor)
		if drv != nil && drv.Actor.Type == "Constant" {
			return drv, true
		}
		return nil, false
	}

	// Reverse reachability from the model's observable effects — the same
	// analysis the optimizer's dead-actor pass runs, so lint flags
	// exactly the actors -O1 would consider dead.
	influences := opt.Influencers(c, opt.ObservableRoots(c))

	for _, info := range c.Order {
		a := info.Actor

		// Rule: signal width beyond the supported bound — generated code
		// would unroll into an array of that size, so a malformed or
		// hostile model must be stopped before codegen.
		for i, w := range info.OutWidths {
			if w > MaxSignalWidth {
				add(Error, RuleMaxSignalWidth, info, "output %d width %d exceeds the supported maximum %d", i, w, MaxSignalWidth)
			}
		}

		// Rule: actor influences no observable output.
		switch a.Type {
		case "Outport", "Terminator", "Scope", "Display", "ToWorkspace", "DataStoreWrite", "DataStoreMemory":
		default:
			if !influences[a.Name] {
				add(Warning, RuleDeadActors, info, "influences no model output or data store (dead logic)")
			}
		}

		// Rule: dangling outputs (computed but never consumed).
		for p := range a.Outputs {
			if len(c.Model.Consumers(a.Name, p)) == 0 {
				add(Info, RuleDanglingOutput, info, "output %d is computed but never consumed", p)
			}
		}

		// Rule: static downcast (the paper's sizeof-based condition).
		for _, k := range diagnose.RulesFor(info) {
			if k == diagnose.Downcast {
				add(Warning, RuleDowncast, info, "output type %s is narrower than its inputs (downcast, wrap on overflow possible)", info.OutKind())
			}
		}

		// Rule: constant branch conditions — the branch structure can
		// never be exercised, so condition coverage is capped.
		switch a.Type {
		case "Switch":
			if drv, ok := constDriver(info, 1); ok {
				add(Warning, RuleConstantBranch, info, "control input is the constant %q: one branch is unreachable",
					drv.Actor.Param("Value", "0"))
			}
		case "If":
			if drv, ok := constDriver(info, 0); ok {
				add(Warning, RuleConstantBranch, info, "condition input is the constant %q: one branch is unreachable",
					drv.Actor.Param("Value", "0"))
			}
		case "MultiportSwitch":
			if drv, ok := constDriver(info, 0); ok {
				add(Warning, RuleConstantBranch, info, "index input is the constant %q: all other ports are unreachable",
					drv.Actor.Param("Value", "0"))
			}
		}

		// Rule: division by a constant zero.
		if a.Type == "Product" {
			signs := info.Operator
			for p := 0; p < len(signs) && p < info.NumIn(); p++ {
				if signs[p] != '/' {
					continue
				}
				if drv, ok := constDriver(info, p); ok {
					if f, err := strconv.ParseFloat(strings.TrimSpace(drv.Actor.Param("Value", "0")), 64); err == nil && f == 0 {
						add(Warning, RuleDivByConstZero, info, "divides by the constant zero on input %d", p)
					}
				}
			}
		}

		// Rule: zero gain wipes its signal.
		if a.Type == "Gain" {
			if f, err := strconv.ParseFloat(strings.TrimSpace(a.Param("Gain", "1")), 64); err == nil && f == 0 {
				add(Warning, RuleZeroGain, info, "gain is zero: the output is constant zero")
			}
		}

		// Rule: degenerate saturation.
		if a.Type == "Saturation" && a.Param("Min", "") != "" && a.Param("Min", "") == a.Param("Max", "") {
			add(Warning, RuleDegenerateSaturation, info, "saturation bounds are equal: the output is the constant %s", a.Param("Min", ""))
		}

		// Rule: logic over duplicated condition sources — MC/DC can never
		// demonstrate independence of coupled conditions.
		if a.Type == "Logic" && info.NumIn() >= 2 {
			seen := map[string]int{}
			for p, src := range info.InSrc {
				key := src.String()
				if prev, dup := seen[key]; dup {
					add(Warning, RuleCoupledConditions, info, "inputs %d and %d share the same source %s: coupled conditions make MC/DC unsatisfiable", prev, p, key)
				} else {
					seen[key] = p
				}
			}
		}

		// Rule: constant enable signal — the gate never changes.
		if info.Gated() {
			drv := c.Info(info.EnabledBy.Actor)
			if drv != nil && drv.Actor.Type == "Constant" {
				add(Warning, RuleConstantEnable, info, "enable signal is the constant %q: the actor is permanently %s",
					drv.Actor.Param("Value", "0"), enabledWord(drv.Actor.Param("Value", "0")))
			}
		}
	}

	// Rule: O2 fusion rate zero on a non-trivial model. The typed-lowering
	// plan is rebuilt here with instrumentation off — the configuration a
	// perf-sensitive sweep uses — so the finding predicts exactly what
	// -O2 would do. Informational: heavy state, gating or multi-consumer
	// fan-out can be legitimate, but on a large model it usually means the
	// arithmetic is shaped so the middle end cannot help.
	if len(c.Order) >= NoFusionMinActors {
		plan := irplan.Build(ir.Analyze(c, ir.Config{}))
		if plan.Stats.FusedExprs == 0 {
			out = append(out, Finding{
				Severity: Info, Rule: RuleNoFusion, Actor: c.Model.Name,
				Message: fmt.Sprintf("no actor fuses at -O2 (%d actors, %d lowerable): every chain is broken by state, gating or multi-consumer fan-out",
					len(c.Order), plan.Stats.LoweredActors),
			})
		}
	}

	sort.Slice(out, func(i, j int) bool {
		if out[i].Actor != out[j].Actor {
			return out[i].Actor < out[j].Actor
		}
		if out[i].Severity != out[j].Severity {
			return severityRank(out[i].Severity) < severityRank(out[j].Severity)
		}
		return out[i].Message < out[j].Message
	})
	return out
}

// severityRank orders findings within one actor: errors, then warnings,
// then infos.
func severityRank(s Severity) int {
	switch s {
	case Error:
		return 0
	case Warning:
		return 1
	default:
		return 2
	}
}

// Errors filters the findings that must block code generation.
func Errors(fs []Finding) []Finding {
	var out []Finding
	for _, f := range fs {
		if f.Severity == Error {
			out = append(out, f)
		}
	}
	return out
}

func enabledWord(v string) string {
	f, err := strconv.ParseFloat(strings.TrimSpace(v), 64)
	if err == nil && f == 0 {
		return "disabled"
	}
	if b, err := strconv.ParseBool(strings.TrimSpace(v)); err == nil && !b {
		return "disabled"
	}
	return "enabled"
}
