// Package codegen is the paper's primary contribution: simulation-oriented
// code generation for dataflow models. It translates a compiled model into
// a self-contained Go program instrumented for runtime actor information
// collection (signal monitor), coverage collection (actor / condition /
// decision / MC/DC bitmaps), and calculation diagnosis (generated
// diagnostic functions per actor type and operator), then synthesises the
// simulation main function with test-case import and result output —
// the three-step pipeline of the paper's Figure 2 and Algorithm 1.
//
// A Program's source holds only the model. Its run parameters (the -steps
// default and each uniform stimulus source's seed and range) are
// Program.Params, which the harness writes to the params file beside the
// binary, so programs that differ only in them share one compiled and
// linked binary.
package codegen

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"go/parser"
	"go/token"
	"sort"
	"strconv"
	"strings"

	"accmos/internal/actors"
	"accmos/internal/coverage"
	"accmos/internal/diagnose"
	"accmos/internal/obs"
	"accmos/internal/opt/iremit"
	"accmos/internal/opt/irplan"
	"accmos/internal/simrt"
	"accmos/internal/testcase"
	"accmos/internal/types"
)

// Options configures generation, mirroring interp.Options so experiments
// can run both engines with identical functionality enabled.
type Options struct {
	Coverage bool
	Diagnose bool
	// Monitor lists actor names whose outputs are signal-monitored (the
	// collectList of Algorithm 1). Monitored actors must have scalar
	// outputs.
	Monitor []string
	// Custom lists custom signal diagnoses. CallbackCheck is not
	// supported in generated code (a Go closure cannot be serialised);
	// use RangeCheck or DeltaCheck.
	Custom []diagnose.CustomCheck
	// MaxMonitorSamples bounds per-actor monitor samples (default 16).
	MaxMonitorSamples int
	// StopOnDiag stops the simulation loop at the end of the step in
	// which this diagnosis kind first fires. StopOnActor optionally
	// narrows the trigger to one actor path.
	StopOnDiag  diagnose.Kind
	StopOnActor string
	// TestCases selects the stimulus generators; required. Uniform
	// sources' seeds and ranges are run parameters (Program.Params); the
	// other kinds are compiled in.
	TestCases *testcase.Set
	// DefaultSteps is the -steps default. Like the uniform sources'
	// seeds and ranges it is a run parameter (Program.Params), read from
	// the params file beside the binary rather than compiled in.
	DefaultSteps int64
	// Trace records "instrument" and "generate" phase spans (nil ok).
	Trace *obs.Tracer

	// Layout overrides the coverage layout (default: derived from c). The
	// optimizer passes the ORIGINAL model's layout here so an optimized
	// program's bitmaps stay shape- and slot-identical to an O0 run.
	// Every scheduled actor must be present in the override.
	Layout *coverage.Layout
	// Premark holds coverage bits the optimizer proved statically for
	// removed instrumentation sites; they are set once in modelInit.
	Premark *coverage.Raw
	// Opt labels the optimization level that produced c (e.g. "O0",
	// "O1"). It feeds Program.Hash so distinct levels never collide in
	// the build cache, even when they happen to emit identical source.
	Opt string
	// Plan carries the O2 middle-end's fusion/hoist/narrow decisions
	// (nil below O2). Actors the plan inlined emit no statement; planned
	// roots emit one fused assignment in their storage kind.
	Plan *irplan.Plan
}

func (o *Options) fillDefaults() {
	if o.MaxMonitorSamples == 0 {
		o.MaxMonitorSamples = 16
	}
	if o.DefaultSteps == 0 {
		o.DefaultSteps = 1000
	}
}

// simrtPath is the import path of the runtime every generated program
// links (see internal/simrt).
const simrtPath = "accmos/internal/simrt"

// Program is a generated simulation program.
type Program struct {
	Source string
	// Params is the program's run parameters in canonical form
	// (simrt.FormatParams): the -steps default and each uniform stimulus
	// source's seed and range. They are not source: the harness writes
	// them to the params file beside the binary (simrt.ParamsSuffix), so
	// programs that differ only in them share Source and one linked
	// binary.
	Params string
	Model  string
	Layout *coverage.Layout
	// Opt is the optimization level label ("O0", "O1", "O2"; "" for
	// direct Generate calls that bypass the optimizer).
	Opt string
	// Runtime is the fingerprint of the simrt runtime the source links
	// against (simrt.Fingerprint at generation).
	Runtime string
}

// CodeHash returns a stable hex key for what the compiler sees: the
// SHA-256 of the model name, the opt level, the runtime fingerprint and
// the source text. The source embeds the model structure, every codegen
// option (coverage, diagnosis, monitors, stop conditions) and the
// compiled-in stimulus kinds (const, ramp, sine, pulse, table), but no
// run parameter, so two programs share a code hash exactly when they
// compile to the same object. The opt level is hashed separately
// because two levels can emit identical source (no pass fired) yet must
// never serve each other's cache entries: a later submission at the
// other level would otherwise inherit the wrong label in results and
// metrics. The runtime is linked, not embedded, so its fingerprint is
// hashed too: a persistent cache must not serve an object compiled
// against an older runtime.
func (p *Program) CodeHash() string {
	h := sha256.New()
	h.Write([]byte(p.Model))
	h.Write([]byte{0})
	h.Write([]byte(p.Opt))
	h.Write([]byte{0})
	h.Write([]byte(p.Runtime))
	h.Write([]byte{0})
	h.Write([]byte(p.Source))
	return hex.EncodeToString(h.Sum(nil))
}

// Hash returns a stable hex key identifying the linked program: the
// SHA-256 of its code hash and its run parameters. Two programs share a
// hash exactly when a build would produce the same binary, so this is
// the build cache's binary key and the harness's artifact-name suffix.
func (p *Program) Hash() string {
	h := sha256.New()
	h.Write([]byte(p.CodeHash()))
	h.Write([]byte{0})
	h.Write([]byte(p.Params))
	return hex.EncodeToString(h.Sum(nil))
}

// Imports returns the import paths the program's source declares, in
// source order: the generator's import set as emitted. The harness lists
// export data for exactly these packages. A source whose import clause
// does not parse yields the paths that did; the compiler then reports
// the error.
func (p *Program) Imports() []string {
	f, _ := parser.ParseFile(token.NewFileSet(), "", p.Source, parser.ImportsOnly)
	if f == nil {
		return nil
	}
	out := make([]string, 0, len(f.Imports))
	for _, spec := range f.Imports {
		if path, err := strconv.Unquote(spec.Path.Value); err == nil {
			out = append(out, path)
		}
	}
	return out
}

// stateVar is one tracked mutable global: its name and its Go type,
// which modelReset zeroes with "name = *new(type)".
type stateVar struct {
	name, typ string
}

// Generator drives one generation run and implements actors.ProgramSink.
type Generator struct {
	c    *actors.Compiled
	opts Options

	layout *coverage.Layout

	imports map[string]bool
	globals []string
	inits   []string
	updates []string

	// stateVars lists every mutable zero-valued global ("var NAME TYPE"):
	// the per-run state modelReset restores to its fresh-process value
	// before replaying modelInit. Initializer-bearing declarations
	// (read-only tables) and function declarations are excluded — they
	// carry no per-run state.
	stateVars []stateVar

	// outVar names each actor output's generated variable.
	outVar map[string][]string

	// outBindings maps outport order position -> bound input expression.
	outBindings map[string]string

	storeVars  map[string]string
	storeKinds map[string]types.Kind

	// diag slot assignment: key "actor|kind" -> slot.
	diagSlots map[string]int
	diagNames []string // slot -> "path|kind"
	diagStop  []bool

	// monitor slot assignment.
	monSlots []string // slot -> actor name
	monPaths []string // slot -> path

	rules map[string][]diagnose.Kind

	// gateCond is the enable condition of the actor currently being
	// instrumented ("" when unconditional); UpdateStmt wraps state commits
	// with it so disabled actors freeze their state.
	gateCond string

	body      *strings.Builder
	diagFuncs strings.Builder

	// alwaysRun lists the actor-coverage indices of the ungated actors,
	// in schedule order: modelRun marks them, not modelExe.
	alwaysRun []int

	// emitter renders O2 fused expressions (nil plan → unused).
	emitter *iremit.Emitter
}

// Generate produces the instrumented simulation program for a compiled
// model.
func Generate(c *actors.Compiled, opts Options) (*Program, error) {
	opts.fillDefaults()
	if opts.TestCases == nil {
		return nil, fmt.Errorf("codegen: Options.TestCases is required")
	}
	if len(opts.TestCases.Sources) != len(c.Inports) {
		return nil, fmt.Errorf("codegen: %d test-case sources for %d inports",
			len(opts.TestCases.Sources), len(c.Inports))
	}
	if err := opts.TestCases.Validate(); err != nil {
		return nil, err
	}
	layout := opts.Layout
	if layout == nil {
		layout = coverage.NewLayout(c)
	} else {
		// A layout override must cover every scheduled actor; a missing
		// name would silently alias instrumentation onto slot 0.
		for _, info := range c.Order {
			if _, ok := layout.ActorIndex[info.Actor.Name]; !ok {
				return nil, fmt.Errorf("codegen: layout override is missing actor %q", info.Actor.Name)
			}
		}
	}
	if opts.Premark != nil {
		if len(opts.Premark.Actor) != len(layout.ActorPaths) ||
			len(opts.Premark.Cond) != layout.CondBits ||
			len(opts.Premark.Dec) != layout.DecBits ||
			len(opts.Premark.MCDC) != layout.MCDCBits {
			return nil, fmt.Errorf("codegen: premark bitmap sizes do not match the coverage layout")
		}
	}
	g := &Generator{
		c:           c,
		opts:        opts,
		body:        &strings.Builder{},
		layout:      layout,
		imports:     map[string]bool{simrtPath: true},
		outVar:      make(map[string][]string),
		outBindings: make(map[string]string),
		storeVars:   make(map[string]string),
		storeKinds:  make(map[string]types.Kind),
		diagSlots:   make(map[string]int),
		rules:       make(map[string][]diagnose.Kind),
	}
	g.emitter = &iremit.Emitter{
		VarName: func(index, port int) string { return fmt.Sprintf("v%d_%d", index, port) },
		Plan:    opts.Plan,
	}
	ins := opts.Trace.Start("instrument")
	if err := g.prepare(); err != nil {
		ins.End()
		return nil, err
	}
	if err := g.instrumentActors(); err != nil {
		ins.End()
		return nil, err
	}
	if g.emitter.NeedMath {
		g.Import("math")
	}
	ins.End()
	gen := opts.Trace.Start("generate")
	src, err := g.synthesize()
	gen.End()
	if err != nil {
		return nil, err
	}
	return &Program{Source: src, Params: g.params(), Model: c.Model.Name, Layout: g.layout, Opt: opts.Opt, Runtime: simrt.Fingerprint()}, nil
}

// prepare assigns data-store variables, diagnosis slots, monitor slots and
// validates custom checks.
func (g *Generator) prepare() error {
	for _, ds := range g.c.DataStores {
		name := actors.StoreName(ds)
		if _, dup := g.storeVars[name]; dup {
			return fmt.Errorf("codegen: duplicate data store %q", name)
		}
		v := fmt.Sprintf("ds_%s", sanitize(name))
		g.storeVars[name] = v
		k := actors.StoreKind(ds)
		g.storeKinds[name] = k
		g.Global(fmt.Sprintf("var %s %s", v, k.GoType()))
		g.inits = append(g.inits, fmt.Sprintf("%s = %s", v, actors.StoreInit(ds).GoLiteral()))
	}

	allocSlot := func(info *actors.Info, kind diagnose.Kind) {
		key := info.Actor.Name + "|" + string(kind)
		if _, dup := g.diagSlots[key]; dup {
			return
		}
		g.diagSlots[key] = len(g.diagNames)
		g.diagNames = append(g.diagNames, info.Path+"|"+string(kind))
		stop := g.opts.StopOnDiag != "" && kind == g.opts.StopOnDiag &&
			(g.opts.StopOnActor == "" || info.Path == g.opts.StopOnActor)
		g.diagStop = append(g.diagStop, stop)
	}
	if g.opts.Diagnose {
		for _, info := range g.c.Order {
			rs := diagnose.RulesFor(info)
			if len(rs) > 0 {
				g.rules[info.Actor.Name] = rs
				for _, k := range rs {
					allocSlot(info, k)
				}
			}
		}
	}
	for i := range g.opts.Custom {
		chk := &g.opts.Custom[i]
		if err := chk.Validate(); err != nil {
			return err
		}
		if chk.Kind == diagnose.CallbackCheck {
			return fmt.Errorf("codegen: custom check %q: CallbackCheck is interpreter-only", chk.Name)
		}
		info := g.c.Info(chk.Actor)
		if info == nil {
			return fmt.Errorf("codegen: custom check %q references unknown actor %q", chk.Name, chk.Actor)
		}
		if len(info.Actor.Outputs) == 0 || info.OutWidth() > 1 {
			return fmt.Errorf("codegen: custom check %q: actor %q must have a scalar output", chk.Name, chk.Actor)
		}
		allocSlot(info, diagnose.Custom)
	}
	for _, name := range g.opts.Monitor {
		info := g.c.Info(name)
		if info == nil {
			return fmt.Errorf("codegen: monitor references unknown actor %q", name)
		}
		if len(info.Actor.Outputs) == 0 {
			return fmt.Errorf("codegen: monitored actor %q has no output", name)
		}
		g.monSlots = append(g.monSlots, name)
		g.monPaths = append(g.monPaths, info.Path)
	}
	// O2 hoisted loop invariants: one global per folded subtree, assigned
	// its pre-computed value in modelInit. Being stateVars they round-trip
	// through modelReset: zeroed, then reassigned by the init replay.
	if p := g.opts.Plan; p != nil {
		for _, h := range p.Hoisted {
			g.Global(fmt.Sprintf("var %s %s", h.Name, h.Val.Kind.GoType()))
			lit := h.Val.GoLiteral()
			if strings.Contains(lit, "math.") {
				g.Import("math")
			}
			g.inits = append(g.inits, fmt.Sprintf("%s = %s", h.Name, lit))
		}
	}
	return nil
}

// sanitize turns an arbitrary identifier-ish string into a Go identifier
// fragment.
func sanitize(s string) string {
	var sb strings.Builder
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
			sb.WriteRune(r)
		default:
			sb.WriteByte('_')
		}
	}
	return sb.String()
}

// commentText renders model-derived text (model name, actor path, type,
// operator) for a generated "//" comment. A line break would end the
// comment and turn the rest of the text into program source, so the text
// is Go-escaped: "\n" and "\r" (and any byte the Go scanner rejects) are
// written as escapes, never dropped. Simulink block names may contain
// newlines, so such names are escaped, not rejected.
func commentText(s string) string {
	q := strconv.Quote(s)
	return q[1 : len(q)-1]
}

// ---- actors.ProgramSink implementation ----

// Global registers a package-level declaration. Declarations of the
// shape "var NAME TYPE" (mutable state relying on Go zero values) are
// additionally tracked for modelReset; declarations with initializers
// (constant tables) and func declarations are emitted verbatim only.
func (g *Generator) Global(decl string) {
	g.globals = append(g.globals, decl)
	if body, ok := strings.CutPrefix(decl, "var "); ok && !strings.Contains(body, "=") {
		if name, typ, ok := strings.Cut(body, " "); ok {
			g.stateVars = append(g.stateVars, stateVar{name: name, typ: typ})
		}
	}
}

// InitStmt registers a modelInit statement.
func (g *Generator) InitStmt(stmt string) { g.inits = append(g.inits, stmt) }

// UpdateStmt registers an end-of-step statement, gated by the current
// actor's enable condition when it executes conditionally.
func (g *Generator) UpdateStmt(stmt string) {
	if g.gateCond != "" {
		stmt = fmt.Sprintf("if %s { %s }", g.gateCond, stmt)
	}
	g.updates = append(g.updates, stmt)
}

// Import requests an import.
func (g *Generator) Import(pkg string) { g.imports[pkg] = true }

// ExternalInput returns the stimulus expression for an Inport, converted
// from the raw float64 test-case value to the port kind — the same path
// the interpreter takes through types.Convert.
func (g *Generator) ExternalInput(info *actors.Info) string {
	for i, ip := range g.c.Inports {
		if ip == info {
			return actors.Cast(fmt.Sprintf("tcIn%d", i), types.F64, info.OutKind())
		}
	}
	return "0 /* unbound inport */"
}

// BindOutput records an Outport's source expression for hashing.
func (g *Generator) BindOutput(info *actors.Info, expr string) {
	g.outBindings[info.Actor.Name] = expr
}

// DataStoreVar returns the variable name of a named store.
func (g *Generator) DataStoreVar(name string) string { return g.storeVars[name] }

// DataStoreKind returns the declared kind of a named store.
func (g *Generator) DataStoreKind(name string) types.Kind { return g.storeKinds[name] }

// DiagSlotFor returns the report slot for (actor, kind), or -1.
func (g *Generator) DiagSlotFor(actor string, kind diagnose.Kind) int {
	if slot, ok := g.diagSlots[actor+"|"+string(kind)]; ok {
		return slot
	}
	return -1
}

// DiagSlot implements actors.ProgramSink for actor templates.
func (g *Generator) DiagSlot(info *actors.Info, kind string) int {
	return g.DiagSlotFor(info.Actor.Name, diagnose.Kind(kind))
}

// varName returns the generated variable for an actor's output port.
func (g *Generator) varName(info *actors.Info, port int) string {
	return fmt.Sprintf("v%d_%d", info.Index, port)
}

// sortedImports returns the import list, sorted.
func (g *Generator) sortedImports() []string {
	out := make([]string, 0, len(g.imports))
	for p := range g.imports {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}
