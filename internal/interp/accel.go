package interp

import (
	"fmt"
	"time"

	"accmos/internal/actors"
	"accmos/internal/model"
	"accmos/internal/obs"
	"accmos/internal/simresult"
	"accmos/internal/testcase"
	"accmos/internal/types"
)

// AccelEngine is the SSE Accelerator-mode substitute: the model is
// compiled once into a closure chain over a dense, slot-indexed signal
// array (no per-step connection resolution), but every step still
// synchronises with a host goroutine that receives the root outputs — the
// "frequent synchronization with Simulink and data transfer" the paper
// identifies as Accelerator mode's bottleneck. Runtime diagnostics,
// coverage collection, signal monitoring and custom diagnoses are
// unavailable, as in the real Accelerator mode.
type AccelEngine struct {
	c *actors.Compiled

	slots   []types.Value
	slotIdx map[model.PortRef]int

	ecs      []actors.EvalCtx
	states   []actors.State
	inIdx    [][]int // per actor, slot index per input
	outIdx   [][]int
	stateful []int

	inportOrder []int // actor order index per inport
	outSlots    []int // slot per root outport input

	// Conditional execution: enable slot per actor (-1 = always enabled),
	// per-step disabled flags, typed zero outputs.
	enableSlot []int
	disabled   []bool
	zeroOuts   [][]types.Value

	stores     map[string]types.Value
	storeKinds map[string]types.Kind

	// host synchronisation
	req chan []types.Value
	ack chan uint64

	// progress reporting (SetProgress)
	progress      func(obs.Snapshot)
	progressEvery time.Duration
}

// SetProgress enables periodic progress snapshots during Run/RunFor:
// every interval (obs.DefaultInterval when zero) the callback — which may
// be nil to only record the result Timeline — receives the live step
// count. Accelerator mode has no coverage or diagnostics, so snapshots
// report Coverage -1 and Diags 0.
func (e *AccelEngine) SetProgress(every time.Duration, fn func(obs.Snapshot)) {
	e.progressEvery = every
	e.progress = fn
}

// NewAccel compiles an accelerated engine for the model.
func NewAccel(c *actors.Compiled) (*AccelEngine, error) {
	e := &AccelEngine{
		c:          c,
		slotIdx:    make(map[model.PortRef]int),
		stores:     make(map[string]types.Value),
		storeKinds: make(map[string]types.Kind),
	}
	for _, info := range c.Order {
		for p := range info.Actor.Outputs {
			ref := model.PortRef{Actor: info.Actor.Name, Port: p}
			e.slotIdx[ref] = len(e.slots)
			e.slots = append(e.slots, types.Value{})
		}
	}
	e.ecs = make([]actors.EvalCtx, len(c.Order))
	e.states = make([]actors.State, len(c.Order))
	e.inIdx = make([][]int, len(c.Order))
	e.outIdx = make([][]int, len(c.Order))
	e.enableSlot = make([]int, len(c.Order))
	e.disabled = make([]bool, len(c.Order))
	e.zeroOuts = make([][]types.Value, len(c.Order))
	for _, ds := range c.DataStores {
		name := actors.StoreName(ds)
		e.storeKinds[name] = actors.StoreKind(ds)
	}
	for i, info := range c.Order {
		ec := &e.ecs[i]
		ec.Info = info
		ec.In = make([]types.Value, info.NumIn())
		ec.Outs = make([]types.Value, len(info.Actor.Outputs))
		ec.State = &e.states[i]
		ec.DS = e
		e.inIdx[i] = make([]int, info.NumIn())
		for p, src := range info.InSrc {
			idx, ok := e.slotIdx[src]
			if !ok {
				return nil, fmt.Errorf("accel: unresolved driver for %s:%d", info.Actor.Name, p)
			}
			e.inIdx[i][p] = idx
		}
		e.outIdx[i] = make([]int, len(info.Actor.Outputs))
		for p := range info.Actor.Outputs {
			e.outIdx[i][p] = e.slotIdx[model.PortRef{Actor: info.Actor.Name, Port: p}]
		}
		if info.Spec.Update != nil {
			e.stateful = append(e.stateful, i)
		}
		e.enableSlot[i] = -1
		if info.Gated() {
			idx, ok := e.slotIdx[info.EnabledBy]
			if !ok {
				return nil, fmt.Errorf("accel: unresolved enable signal for %s", info.Actor.Name)
			}
			e.enableSlot[i] = idx
		}
		e.zeroOuts[i] = make([]types.Value, len(info.Actor.Outputs))
		for p := range e.zeroOuts[i] {
			e.zeroOuts[i][p] = types.ZeroVector(info.OutKinds[p], info.OutWidths[p])
		}
		switch info.Actor.Type {
		case "DataStoreRead", "DataStoreWrite":
			name := actors.StoreName(info)
			if _, ok := e.storeKinds[name]; !ok {
				return nil, fmt.Errorf("accel: %s references unknown data store %q", info.Actor.Name, name)
			}
		}
	}
	for _, info := range c.Inports {
		e.inportOrder = append(e.inportOrder, info.Index)
	}
	for _, info := range c.Outports {
		e.outSlots = append(e.outSlots, e.slotIdx[info.InSrc[0]])
	}
	return e, nil
}

// DSRead implements actors.DataStoreAccess.
func (e *AccelEngine) DSRead(name string) types.Value { return e.stores[name] }

// DSWrite implements actors.DataStoreAccess.
func (e *AccelEngine) DSWrite(name string, v types.Value) {
	k, ok := e.storeKinds[name]
	if !ok {
		return
	}
	cv, _ := types.Convert(v, k)
	e.stores[name] = cv
}

func (e *AccelEngine) reset() {
	for i := range e.slots {
		e.slots[i] = types.Value{}
	}
	for i, info := range e.c.Order {
		e.states[i] = actors.State{}
		if info.Spec.Init != nil {
			info.Spec.Init(info, &e.states[i])
		}
	}
	for _, ds := range e.c.DataStores {
		e.stores[actors.StoreName(ds)] = actors.StoreInit(ds)
	}
}

// startHost launches the host goroutine that receives per-step output
// transfers and folds them into the equivalence hash.
func (e *AccelEngine) startHost() {
	e.req = make(chan []types.Value)
	e.ack = make(chan uint64)
	go func() {
		h := uint64(simresult.FNVOffset)
		for outs := range e.req {
			for _, v := range outs {
				h = hashValue(h, v)
			}
			e.ack <- h
		}
	}()
}

// Run simulates the model with the test cases until steps steps have
// run or the wall-clock budget elapses, whichever comes first: a zero
// budget bounds by steps alone. The budget is read before every 1024th
// step.
func (e *AccelEngine) Run(tcs *testcase.Set, steps int64, budget time.Duration) (*simresult.Results, error) {
	if len(tcs.Sources) != len(e.c.Inports) {
		return nil, fmt.Errorf("accel: %d test-case sources for %d inports", len(tcs.Sources), len(e.c.Inports))
	}
	if err := tcs.Validate(); err != nil {
		return nil, err
	}
	e.reset()
	e.startHost()
	defer close(e.req)
	streams := tcs.Streams()
	outBuf := make([]types.Value, len(e.outSlots))

	var rep *obs.Reporter
	if e.progress != nil || e.progressEvery > 0 {
		rep = obs.NewReporter(e.c.Model.Name, "SSEac", e.progressEvery, e.progress)
	}
	noCoverage := func() (float64, int64) { return -1, 0 }

	var hash uint64 = simresult.FNVOffset
	start := time.Now()
	var step int64
	for step = 0; step < steps; step++ {
		if budget > 0 && step%1024 == 0 && time.Since(start) >= budget {
			break
		}
		if rep != nil && step%1024 == 0 {
			rep.MaybeTick(step, noCoverage)
		}
		for i, oi := range e.inportOrder {
			e.ecs[oi].ExternalIn = types.FloatVal(types.F64, streams[i].At(step))
		}
		for i := range e.c.Order {
			ec := &e.ecs[i]
			if s := e.enableSlot[i]; s >= 0 && !e.slots[s].AsBool() {
				out := e.outIdx[i]
				for p := range out {
					e.slots[out[p]] = e.zeroOuts[i][p]
				}
				e.disabled[i] = true
				continue
			}
			e.disabled[i] = false
			ec.Step = step
			ec.Conds = ec.Conds[:0]
			in := e.inIdx[i]
			for p := range in {
				ec.In[p] = e.slots[in[p]]
			}
			ec.Info.Spec.Eval(ec)
			out := e.outIdx[i]
			for p := range out {
				e.slots[out[p]] = ec.Outs[p]
			}
		}
		for _, i := range e.stateful {
			if e.disabled[i] {
				continue
			}
			ec := &e.ecs[i]
			in := e.inIdx[i]
			for p := range in {
				ec.In[p] = e.slots[in[p]]
			}
			ec.Info.Spec.Update(ec)
		}
		// Per-step host synchronisation: transfer the root outputs and
		// wait for the host's acknowledgement before the next step.
		for i, s := range e.outSlots {
			outBuf[i] = e.slots[s]
		}
		e.req <- outBuf
		hash = <-e.ack
	}
	elapsed := time.Since(start)
	res := &simresult.Results{
		Model:      e.c.Model.Name,
		Engine:     "SSEac",
		Steps:      step,
		ExecNanos:  elapsed.Nanoseconds(),
		OutputHash: hash,
	}
	if rep != nil {
		rep.Final(step, -1, 0)
		res.Timeline = rep.Timeline
	}
	return res, nil
}
