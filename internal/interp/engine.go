// Package interp implements the interpreted simulation engines AccMoS is
// benchmarked against:
//
//   - Engine is the SSE substitute: a step-by-step tree-walking simulator
//     over boxed values with dynamic signal resolution, full runtime
//     diagnostics, coverage collection, signal monitoring and custom
//     signal diagnosis — the full-service, slow path.
//   - AccelEngine (accel.go) is the SSE Accelerator-mode substitute:
//     closure-compiled but still synchronising with a host every step, with
//     diagnostics and coverage unavailable.
//
// Both consume the same compiled model and test-case streams as the code
// generator, and produce bit-identical output hashes.
package interp

import (
	"fmt"
	"math"
	"time"

	"accmos/internal/actors"
	"accmos/internal/coverage"
	"accmos/internal/diagnose"
	"accmos/internal/model"
	"accmos/internal/obs"
	"accmos/internal/simresult"
	"accmos/internal/testcase"
	"accmos/internal/types"
)

// Options configures an interpreted simulation.
type Options struct {
	// Coverage enables the four-metric coverage collection.
	Coverage bool
	// Diagnose enables calculation diagnosis per actor (Info.DiagRules).
	Diagnose bool
	// Monitor lists actor names whose outputs are signal-monitored
	// (the collectList of Algorithm 1).
	Monitor []string
	// Custom lists custom signal diagnoses (§3.2.B).
	Custom []diagnose.CustomCheck
	// MaxMonitorSamples bounds per-actor monitor samples (default 16).
	MaxMonitorSamples int
	// StopOnDiag, when non-empty, stops the run at the end of the step in
	// which the first diagnosis of this kind fires — the paper's
	// error-detection-time measurement. StopOnActor optionally narrows the
	// trigger to one actor path.
	StopOnDiag  diagnose.Kind
	StopOnActor string

	// Progress receives periodic progress snapshots while the step loop
	// runs; ProgressEvery sets the interval (obs.DefaultInterval when
	// zero). Setting either enables progress reporting and the Timeline
	// in the results.
	Progress      func(obs.Snapshot)
	ProgressEvery time.Duration

	// Layout overrides the coverage layout (default: derived from c). The
	// optimizer passes the ORIGINAL model's layout so an optimized run's
	// bitmaps stay shape- and slot-identical to an O0 run. Every
	// scheduled actor must be present in the override.
	Layout *coverage.Layout
	// Premark holds coverage bits the optimizer proved statically for
	// removed instrumentation sites; they are OR-ed into the collector at
	// the start of every run.
	Premark *coverage.Raw
}

func (o *Options) fillDefaults() {
	if o.MaxMonitorSamples == 0 {
		o.MaxMonitorSamples = 16
	}
}

// Engine is the SSE-substitute interpreter.
type Engine struct {
	c    *actors.Compiled
	opts Options

	layout    *coverage.Layout
	collector *coverage.Collector
	sink      *diagnose.Sink

	ecs    []actors.EvalCtx
	states []actors.State
	rules  [][]diagnose.Kind

	// signals is the dynamic signal table — deliberately a map keyed by
	// source port, mirroring an interpreter resolving connections at run
	// time rather than compiling them away.
	signals map[model.PortRef]types.Value

	stores     map[string]types.Value
	storeKinds map[string]types.Kind

	stateful []int // indices of actors with an Update hook

	customByActor map[string][]int // actor name -> indices into opts.Custom
	lastValue     map[string]float64

	monitorSet  map[string]bool
	monitor     map[string][]simresult.MonitorSample
	monitorHits map[string]int64

	downcastSeen []bool
	stopFlag     bool

	// Conditional execution support: per-step disabled flags and typed
	// zero outputs written while an actor's enable signal is false.
	disabled []bool
	zeroOuts [][]types.Value
}

// New builds an engine for a compiled model.
func New(c *actors.Compiled, opts Options) (*Engine, error) {
	opts.fillDefaults()
	e := &Engine{
		c:             c,
		opts:          opts,
		signals:       make(map[model.PortRef]types.Value),
		stores:        make(map[string]types.Value),
		storeKinds:    make(map[string]types.Kind),
		customByActor: make(map[string][]int),
		lastValue:     make(map[string]float64),
		monitorSet:    make(map[string]bool),
		monitor:       make(map[string][]simresult.MonitorSample),
		monitorHits:   make(map[string]int64),
	}
	if opts.Layout != nil {
		for _, info := range c.Order {
			if _, ok := opts.Layout.ActorIndex[info.Actor.Name]; !ok {
				return nil, fmt.Errorf("interp: layout override is missing actor %q", info.Actor.Name)
			}
		}
		e.layout = opts.Layout
	} else {
		e.layout = coverage.NewLayout(c)
	}
	if opts.Premark != nil {
		// Validate once against the layout shape; reset() merges per run.
		if err := e.layout.NewRaw().Merge(opts.Premark); err != nil {
			return nil, fmt.Errorf("interp: premark bitmaps do not match the coverage layout: %w", err)
		}
	}
	e.sink = diagnose.NewSink(diagnose.MaxRecords)

	e.ecs = make([]actors.EvalCtx, len(c.Order))
	e.states = make([]actors.State, len(c.Order))
	e.rules = make([][]diagnose.Kind, len(c.Order))
	e.downcastSeen = make([]bool, len(c.Order))
	e.disabled = make([]bool, len(c.Order))
	e.zeroOuts = make([][]types.Value, len(c.Order))

	for _, ds := range c.DataStores {
		e.storeKinds[actors.StoreName(ds)] = actors.StoreKind(ds)
	}
	for i, info := range c.Order {
		ec := &e.ecs[i]
		ec.Info = info
		ec.In = make([]types.Value, info.NumIn())
		ec.Outs = make([]types.Value, len(info.Actor.Outputs))
		ec.State = &e.states[i]
		ec.DS = e
		if info.Spec.Update != nil {
			e.stateful = append(e.stateful, i)
		}
		e.zeroOuts[i] = make([]types.Value, len(info.Actor.Outputs))
		for p := range e.zeroOuts[i] {
			e.zeroOuts[i][p] = types.ZeroVector(info.OutKinds[p], info.OutWidths[p])
		}
		if e.opts.Diagnose {
			e.rules[i] = info.DiagRules()
		}
	}
	for i := range opts.Custom {
		chk := &opts.Custom[i]
		if err := chk.Validate(); err != nil {
			return nil, err
		}
		info := c.Info(chk.Actor)
		if info == nil {
			return nil, fmt.Errorf("interp: custom check %q references unknown actor %q", chk.Name, chk.Actor)
		}
		if len(info.Actor.Outputs) == 0 || info.OutWidth() > 1 {
			return nil, fmt.Errorf("interp: custom check %q: actor %q must have a scalar output", chk.Name, chk.Actor)
		}
		e.customByActor[chk.Actor] = append(e.customByActor[chk.Actor], i)
	}
	for _, name := range opts.Monitor {
		if c.Info(name) == nil {
			return nil, fmt.Errorf("interp: monitor references unknown actor %q", name)
		}
		e.monitorSet[name] = true
	}
	return e, nil
}

// DSRead implements actors.DataStoreAccess.
func (e *Engine) DSRead(name string) types.Value { return e.stores[name] }

// DSWrite implements actors.DataStoreAccess, converting to the store kind.
func (e *Engine) DSWrite(name string, v types.Value) {
	k, ok := e.storeKinds[name]
	if !ok {
		return
	}
	cv, _ := types.Convert(v, k)
	e.stores[name] = cv
}

// reset prepares a fresh run.
func (e *Engine) reset() {
	for i, info := range e.c.Order {
		e.states[i] = actors.State{}
		if info.Spec.Init != nil {
			info.Spec.Init(info, &e.states[i])
		}
		e.downcastSeen[i] = false
	}
	for _, ds := range e.c.DataStores {
		e.stores[actors.StoreName(ds)] = actors.StoreInit(ds)
	}
	for k := range e.signals {
		delete(e.signals, k)
	}
	if e.opts.Coverage {
		e.collector = coverage.NewCollector(e.layout)
		if e.opts.Premark != nil {
			// Sizes were validated in New; Merge cannot fail here.
			_ = e.collector.Raw.Merge(e.opts.Premark)
		}
	} else {
		e.collector = nil
	}
	e.sink = diagnose.NewSink(diagnose.MaxRecords)
	e.monitor = make(map[string][]simresult.MonitorSample)
	e.monitorHits = make(map[string]int64)
	for k := range e.lastValue {
		delete(e.lastValue, k)
	}
	e.stopFlag = false
}

// Run simulates the model with the test cases until steps steps have
// run or the wall-clock budget elapses, whichever comes first: a zero
// budget bounds by steps alone. The budget is read before every 1024th
// step.
func (e *Engine) Run(tcs *testcase.Set, steps int64, budget time.Duration) (*simresult.Results, error) {
	if len(tcs.Sources) != len(e.c.Inports) {
		return nil, fmt.Errorf("interp: %d test-case sources for %d inports", len(tcs.Sources), len(e.c.Inports))
	}
	if err := tcs.Validate(); err != nil {
		return nil, err
	}
	e.reset()
	streams := tcs.Streams()
	inportIdx := make([]int, len(e.c.Inports)) // order index of each inport
	for i, info := range e.c.Inports {
		inportIdx[i] = info.Index
	}
	outRefs := make([]model.PortRef, len(e.c.Outports))
	for i, info := range e.c.Outports {
		outRefs[i] = info.InSrc[0]
	}

	var rep *obs.Reporter
	if e.opts.Progress != nil || e.opts.ProgressEvery > 0 {
		rep = obs.NewReporter(e.c.Model.Name, "SSE", e.opts.ProgressEvery, e.opts.Progress)
	}
	progressSnapshot := func() (float64, int64) {
		cov := -1.0
		if e.collector != nil {
			cov = coverage.ProgressPercent(e.collector.Raw)
		}
		return cov, e.sink.Total
	}

	hash := uint64(simresult.FNVOffset)
	start := time.Now()
	var step int64
	const budgetCheckEvery = 1024
	for step = 0; step < steps; step++ {
		if budget > 0 && step%budgetCheckEvery == 0 && time.Since(start) >= budget {
			break
		}
		if rep != nil && step%budgetCheckEvery == 0 {
			rep.MaybeTick(step, progressSnapshot)
		}
		// Feed inports.
		for i, oi := range inportIdx {
			e.ecs[oi].ExternalIn = types.FloatVal(types.F64, streams[i].At(step))
		}
		// Eval pass in execution order.
		for i := range e.c.Order {
			info := e.c.Order[i]
			ec := &e.ecs[i]
			if info.Gated() && !e.signals[info.EnabledBy].AsBool() {
				// Conditionally executed and currently disabled: outputs
				// reset to zero, state freezes, no instrumentation fires.
				for p := range e.zeroOuts[i] {
					e.signals[model.PortRef{Actor: info.Actor.Name, Port: p}] = e.zeroOuts[i][p]
				}
				e.disabled[i] = true
				continue
			}
			e.disabled[i] = false
			ec.Reset(step)
			for p := range ec.In {
				ec.In[p] = e.signals[info.InSrc[p]]
			}
			info.Spec.Eval(ec)
			for p := range ec.Outs {
				e.signals[model.PortRef{Actor: info.Actor.Name, Port: p}] = ec.Outs[p]
			}
			e.instrument(info, ec, step)
		}
		// Update pass: stateful commits using current-step inputs.
		for _, i := range e.stateful {
			if e.disabled[i] {
				continue
			}
			info := e.c.Order[i]
			ec := &e.ecs[i]
			ec.Flags = types.OpResult{}
			for p := range ec.In {
				ec.In[p] = e.signals[info.InSrc[p]]
			}
			info.Spec.Update(ec)
			if e.opts.Diagnose && len(e.rules[i]) > 0 {
				e.reportFlags(info, ec, step)
			}
		}
		// Fold root outputs into the equivalence hash.
		for _, ref := range outRefs {
			hash = hashValue(hash, e.signals[ref])
		}
		if e.stopFlag {
			step++
			break
		}
	}
	elapsed := time.Since(start)

	res := &simresult.Results{
		Model:      e.c.Model.Name,
		Engine:     "SSE",
		Steps:      step,
		ExecNanos:  elapsed.Nanoseconds(),
		OutputHash: hash,
	}
	if e.collector != nil {
		res.Coverage = e.collector.Raw
	}
	res.FromSink(e.sink)
	if len(e.monitor) > 0 {
		res.Monitor = e.monitor
		res.MonitorHits = e.monitorHits
	}
	if rep != nil {
		cov, diags := progressSnapshot()
		rep.Final(step, cov, diags)
		res.Timeline = rep.Timeline
	}
	return res, nil
}

// Layout exposes the coverage layout for report computation.
func (e *Engine) Layout() *coverage.Layout { return e.layout }

// instrument applies coverage, diagnosis, monitoring and custom checks
// after one actor evaluation.
func (e *Engine) instrument(info *actors.Info, ec *actors.EvalCtx, step int64) {
	name := info.Actor.Name
	if e.collector != nil {
		e.collector.Actor(name)
		if ec.Branch >= 0 {
			e.collector.Branch(name, ec.Branch)
		}
		if ec.Decision >= 0 {
			e.collector.Decision(name, ec.Decision == 1)
		}
		if len(ec.Conds) >= 2 && info.IsCombinationCondition() {
			e.collector.MCDC(name, info.Operator, ec.Conds)
		}
	}
	if e.opts.Diagnose && len(e.rules[info.Index]) > 0 {
		e.reportFlags(info, ec, step)
	}
	if len(e.customByActor) > 0 {
		if idxs, ok := e.customByActor[name]; ok && len(ec.Outs) > 0 {
			e.runCustom(info, idxs, ec.Outs[0], step)
		}
	}
	if e.monitorSet[name] && len(ec.Outs) > 0 {
		e.monitorHits[name]++
		if samples := e.monitor[name]; len(samples) < e.opts.MaxMonitorSamples {
			e.monitor[name] = append(samples, simresult.MonitorSample{
				Step: step, Value: ec.Outs[0].String(),
			})
		}
	}
}

// reportFlags converts raised flags into diagnostic records. Downcast is a
// static property reported once per actor, on first execution — both
// engines use this rule so their findings match.
func (e *Engine) reportFlags(info *actors.Info, ec *actors.EvalCtx, step int64) {
	rules := e.rules[info.Index]
	for _, k := range diagnose.FlagKinds(rules, ec.Flags) {
		e.report(diagnose.Record{Step: step, Actor: info.Path, Kind: k})
	}
	if !e.downcastSeen[info.Index] {
		for _, r := range rules {
			if r == diagnose.Downcast {
				e.downcastSeen[info.Index] = true
				e.report(diagnose.Record{
					Step: step, Actor: info.Path, Kind: diagnose.Downcast,
					Detail: "output type narrower than input type",
				})
				break
			}
		}
	}
}

func (e *Engine) report(r diagnose.Record) {
	e.sink.Report(r)
	if e.opts.StopOnDiag != "" && r.Kind == e.opts.StopOnDiag &&
		(e.opts.StopOnActor == "" || r.Actor == e.opts.StopOnActor) {
		e.stopFlag = true
	}
}

// runCustom evaluates custom signal diagnoses on an actor output.
func (e *Engine) runCustom(info *actors.Info, idxs []int, v types.Value, step int64) {
	for _, ci := range idxs {
		chk := &e.opts.Custom[ci]
		f := v.AsFloat()
		switch chk.Kind {
		case diagnose.RangeCheck:
			if f < chk.Lo || f > chk.Hi {
				e.report(diagnose.Record{
					Step: step, Actor: info.Path, Kind: diagnose.Custom,
					Detail: fmt.Sprintf("%s: value %g outside [%g, %g]", chk.Name, f, chk.Lo, chk.Hi),
				})
			}
		case diagnose.DeltaCheck:
			key := chk.Name + "|" + info.Actor.Name
			if prev, seen := e.lastValue[key]; seen {
				if d := math.Abs(f - prev); d > chk.MaxDelta {
					e.report(diagnose.Record{
						Step: step, Actor: info.Path, Kind: diagnose.Custom,
						Detail: fmt.Sprintf("%s: jump %g exceeds %g", chk.Name, d, chk.MaxDelta),
					})
				}
			}
			e.lastValue[key] = f
		case diagnose.CallbackCheck:
			if fired, detail := chk.Callback(step, v); fired {
				e.report(diagnose.Record{
					Step: step, Actor: info.Path, Kind: diagnose.Custom,
					Detail: chk.Name + ": " + detail,
				})
			}
		}
	}
}

// hashValue folds one signal value into the FNV-1a equivalence hash using
// the same canonical encoding as the generated runtime.
func hashValue(h uint64, v types.Value) uint64 {
	if v.Elems != nil {
		for _, el := range v.Elems {
			h = hashValue(h, el)
		}
		return h
	}
	var x uint64
	switch {
	case v.Kind == types.Bool:
		if v.B {
			x = 1
		}
	case v.Kind.IsSigned():
		x = uint64(v.I)
	case v.Kind.IsUnsigned():
		x = v.U
	case v.Kind == types.F32:
		x = uint64(math.Float32bits(float32(v.F)))
	default:
		x = math.Float64bits(v.F)
	}
	return simresult.HashU64(h, x)
}
