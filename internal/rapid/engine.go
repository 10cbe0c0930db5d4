// Package rapid implements the SSE Rapid Accelerator mode substitute: the
// model is fully precompiled into specialized closures over unboxed
// machine registers (a flat uint64 payload array), with host
// synchronisation batched instead of per-step. As in the real Rapid
// Accelerator mode, runtime diagnostics, coverage collection, and signal
// monitoring are unavailable. Actor types without a specialized template
// fall back to a boxed bridge around the registry's Eval, guaranteeing
// bit-identical semantics with the other engines at reduced speed.
package rapid

import (
	"fmt"
	"math"
	"sync"
	"time"

	"accmos/internal/actors"
	"accmos/internal/model"
	"accmos/internal/obs"
	"accmos/internal/simresult"
	"accmos/internal/testcase"
	"accmos/internal/types"
)

// syncBatch is the host-transfer interval in steps, the rapid-mode
// analogue of Accelerator mode's per-step exchange.
const syncBatch = 4096

// Engine is the precompiled rapid simulator.
type Engine struct {
	c *actors.Compiled

	// Scalar signal registers: canonical uint64 payloads (signed values
	// sign-extended, floats as IEEE bits — float32 as 32-bit bits).
	bits []uint64
	// Vector signal registers, boxed.
	vals []types.Value

	scalarSlot map[model.PortRef]int // -1 entries live in vectorSlot
	vectorSlot map[model.PortRef]int

	slotKind map[model.PortRef]types.Kind

	steps   []func(step int64) // eval closures, execution order
	updates []func(step int64) // state-commit closures

	// outHash describes root outports for hashing.
	outHash []func(h uint64) uint64

	// host sync
	hostMu  sync.Mutex
	hostBuf []uint64

	streams []*testcase.Stream

	// bridge state for fallback actors
	ecs    []actors.EvalCtx
	states []actors.State

	stores     map[string]types.Value
	storeKinds map[string]types.Kind

	resets []func()

	forceBridge          bool
	specialized, bridged int

	// progress reporting (SetProgress)
	progress      func(obs.Snapshot)
	progressEvery time.Duration
}

// SetProgress enables periodic progress snapshots during Run/RunFor:
// every interval (obs.DefaultInterval when zero) the callback — which may
// be nil to only record the result Timeline — receives the live step
// count. Rapid mode has no coverage or diagnostics, so snapshots report
// Coverage -1 and Diags 0.
func (e *Engine) SetProgress(every time.Duration, fn func(obs.Snapshot)) {
	e.progressEvery = every
	e.progress = fn
}

// encode converts a scalar boxed value to its canonical register payload.
func encode(v types.Value) uint64 {
	switch {
	case v.Kind == types.Bool:
		if v.B {
			return 1
		}
		return 0
	case v.Kind.IsSigned():
		return uint64(v.I)
	case v.Kind.IsUnsigned():
		return v.U
	case v.Kind == types.F32:
		return uint64(math.Float32bits(float32(v.F)))
	default:
		return math.Float64bits(v.F)
	}
}

// decode converts a register payload back to a boxed value of kind k.
func decode(bits uint64, k types.Kind) types.Value {
	switch {
	case k == types.Bool:
		return types.Value{Kind: k, B: bits != 0}
	case k.IsSigned():
		return types.Value{Kind: k, I: int64(bits)}
	case k.IsUnsigned():
		return types.Value{Kind: k, U: bits}
	case k == types.F32:
		return types.Value{Kind: k, F: float64(math.Float32frombits(uint32(bits)))}
	default:
		return types.Value{Kind: k, F: math.Float64frombits(bits)}
	}
}

// truthy evaluates boolean conversion on a register payload.
func truthy(bits uint64, k types.Kind) bool {
	switch {
	case k.IsFloat():
		return decode(bits, k).F != 0
	default:
		return bits != 0
	}
}

// New precompiles a rapid engine for the model.
func New(c *actors.Compiled) (*Engine, error) { return build(c, false) }

// NewBridgeOnly compiles every actor through the boxed fallback bridge —
// the ablation isolating how much the unboxed register specialization
// contributes to Rapid-Accelerator speed.
func NewBridgeOnly(c *actors.Compiled) (*Engine, error) { return build(c, true) }

func build(c *actors.Compiled, forceBridge bool) (*Engine, error) {
	e := &Engine{
		forceBridge: forceBridge,
		c:           c,
		scalarSlot:  make(map[model.PortRef]int),
		vectorSlot:  make(map[model.PortRef]int),
		slotKind:    make(map[model.PortRef]types.Kind),
		stores:      make(map[string]types.Value),
		storeKinds:  make(map[string]types.Kind),
	}
	for _, info := range c.Order {
		for p := range info.Actor.Outputs {
			ref := model.PortRef{Actor: info.Actor.Name, Port: p}
			e.slotKind[ref] = info.OutKinds[p]
			if info.OutWidths[p] > 1 {
				e.vectorSlot[ref] = len(e.vals)
				e.vals = append(e.vals, types.Value{})
			} else {
				e.scalarSlot[ref] = len(e.bits)
				e.bits = append(e.bits, 0)
			}
		}
	}
	for _, ds := range c.DataStores {
		e.storeKinds[actors.StoreName(ds)] = actors.StoreKind(ds)
	}
	e.ecs = make([]actors.EvalCtx, len(c.Order))
	e.states = make([]actors.State, len(c.Order))

	for i, info := range c.Order {
		switch info.Actor.Type {
		case "DataStoreRead", "DataStoreWrite":
			if _, ok := e.storeKinds[actors.StoreName(info)]; !ok {
				return nil, fmt.Errorf("rapid: %s references unknown data store %q",
					info.Actor.Name, actors.StoreName(info))
			}
		}
		if err := e.compileActor(i, info); err != nil {
			return nil, err
		}
	}
	// Output hashing closures.
	for _, info := range c.Outports {
		src := info.InSrc[0]
		k := e.slotKind[src]
		if idx, ok := e.scalarSlot[src]; ok {
			e.outHash = append(e.outHash, func(h uint64) uint64 {
				return simresult.HashU64(h, e.bits[idx])
			})
		} else {
			vi := e.vectorSlot[src]
			e.outHash = append(e.outHash, func(h uint64) uint64 {
				return hashBoxed(h, e.vals[vi])
			})
		}
		_ = k
	}
	e.hostBuf = make([]uint64, len(c.Outports))
	return e, nil
}

// hashBoxed mirrors the interpreter's value hashing for vector outputs.
func hashBoxed(h uint64, v types.Value) uint64 {
	if v.Elems != nil {
		for _, el := range v.Elems {
			h = hashBoxed(h, el)
		}
		return h
	}
	return simresult.HashU64(h, encode(v))
}

// Stats reports how many actors were specialized vs bridged (for the
// ablation benchmarks).
func (e *Engine) Stats() (specialized, bridged int) { return e.specialized, e.bridged }

// DSRead implements actors.DataStoreAccess for bridged actors.
func (e *Engine) DSRead(name string) types.Value { return e.stores[name] }

// DSWrite implements actors.DataStoreAccess for bridged actors.
func (e *Engine) DSWrite(name string, v types.Value) {
	k, ok := e.storeKinds[name]
	if !ok {
		return
	}
	cv, _ := types.Convert(v, k)
	e.stores[name] = cv
}

// Run simulates the model with the test cases until steps steps have
// run or the wall-clock budget elapses, whichever comes first: a zero
// budget bounds by steps alone. The budget is read before every 1024th
// step.
func (e *Engine) Run(tcs *testcase.Set, steps int64, budget time.Duration) (*simresult.Results, error) {
	if len(tcs.Sources) != len(e.c.Inports) {
		return nil, fmt.Errorf("rapid: %d test-case sources for %d inports", len(tcs.Sources), len(e.c.Inports))
	}
	if err := tcs.Validate(); err != nil {
		return nil, err
	}
	// Reset.
	for i := range e.bits {
		e.bits[i] = 0
	}
	for i := range e.vals {
		e.vals[i] = types.Value{}
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
	for _, r := range e.resets {
		r()
	}
	e.streams = tcs.Streams()

	var rep *obs.Reporter
	if e.progress != nil || e.progressEvery > 0 {
		rep = obs.NewReporter(e.c.Model.Name, "SSErac", e.progressEvery, e.progress)
	}
	noCoverage := func() (float64, int64) { return -1, 0 }

	hash := uint64(simresult.FNVOffset)
	start := time.Now()
	var step int64
	for step = 0; step < steps; step++ {
		if budget > 0 && step%1024 == 0 && time.Since(start) >= budget {
			break
		}
		if rep != nil && step%1024 == 0 {
			rep.MaybeTick(step, noCoverage)
		}
		for _, f := range e.steps {
			f(step)
		}
		for _, f := range e.updates {
			f(step)
		}
		for _, f := range e.outHash {
			hash = f(hash)
		}
		if step%syncBatch == syncBatch-1 {
			e.hostTransfer()
		}
	}
	e.hostTransfer()
	elapsed := time.Since(start)
	res := &simresult.Results{
		Model:      e.c.Model.Name,
		Engine:     "SSErac",
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

// hostTransfer copies the current root outputs to the host buffer under
// the host lock — the batched data exchange with the supervising tool.
func (e *Engine) hostTransfer() {
	e.hostMu.Lock()
	for i, info := range e.c.Outports {
		src := info.InSrc[0]
		if idx, ok := e.scalarSlot[src]; ok {
			e.hostBuf[i] = e.bits[idx]
		}
	}
	e.hostMu.Unlock()
}
