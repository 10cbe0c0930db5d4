package actors

import (
	"fmt"
	"sort"
	"strconv"

	"accmos/internal/graph"
	"accmos/internal/model"
	"accmos/internal/types"
)

// Compiled is the fully elaborated, scheduled model every engine consumes.
type Compiled struct {
	Model  *model.Model
	Order  []*Info // execution order (schedule-convert result)
	ByName map[string]*Info

	Inports    []*Info // root inputs, sorted by Port number
	Outports   []*Info // root outputs, sorted by Port number
	DataStores []*Info // DataStoreMemory actors, sorted by store name
}

// Info returns the elaborated info for the named actor, or nil.
func (c *Compiled) Info(name string) *Info { return c.ByName[name] }

// Compile elaborates and schedules a model:
//
//  1. resolve each actor's spec, operator and port-count legality,
//  2. build the directed computation graph over data-flow connections,
//     dropping edges into stateful (non-feedthrough) actors,
//  3. topologically sort it (deterministic tie-break) — the paper's
//     schedule convert module,
//  4. iterate port kind/width propagation to a fixpoint,
//  5. run each actor's Prepare hook,
//  6. collect the model's boundary and check its data stores: names are
//     unique, and every access names a DataStoreMemory.
func Compile(m *model.Model) (*Compiled, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	c := &Compiled{Model: m, ByName: make(map[string]*Info, len(m.Actors))}

	// Step 1: specs, operators, port counts.
	for _, a := range m.Actors {
		spec, err := Lookup(a.Type)
		if err != nil {
			return nil, fmt.Errorf("actor %s: %w", a.Name, err)
		}
		op := a.Operator
		if op == "" {
			op = spec.DefaultOperator
		}
		if !spec.operatorAllowed(op) {
			return nil, fmt.Errorf("actor %s (%s): operator %q not supported", a.Name, a.Type, a.Operator)
		}
		nIn := len(a.Inputs)
		if nIn < spec.MinIn || (spec.MaxIn >= 0 && nIn > spec.MaxIn) {
			return nil, fmt.Errorf("actor %s (%s): %d inputs, want %d..%s",
				a.Name, a.Type, nIn, spec.MinIn, maxStr(spec.MaxIn))
		}
		nOut := len(a.Outputs)
		if !spec.VariableOut && nOut != spec.NumOut {
			return nil, fmt.Errorf("actor %s (%s): %d outputs, want %d", a.Name, a.Type, nOut, spec.NumOut)
		}
		info := &Info{
			Actor:     a,
			Spec:      spec,
			Path:      m.Path(a),
			Operator:  op,
			OutKinds:  make([]types.Kind, nOut),
			OutWidths: make([]int, nOut),
			InKinds:   make([]types.Kind, nIn),
			InWidths:  make([]int, nIn),
			InSrc:     make([]model.PortRef, nIn),
		}
		c.ByName[a.Name] = info
	}

	// Record drivers.
	for _, conn := range m.Connections {
		dst := c.ByName[conn.DstActor]
		dst.InSrc[conn.DstPort] = model.PortRef{Actor: conn.SrcActor, Port: conn.SrcPort}
	}

	// Conditional execution: resolve EnabledBy references.
	for _, info := range c.ByName {
		en := info.Actor.Param("EnabledBy", "")
		if en == "" {
			continue
		}
		src := c.ByName[en]
		if src == nil {
			return nil, fmt.Errorf("actor %s: EnabledBy references unknown actor %q", info.Actor.Name, en)
		}
		if len(src.Actor.Outputs) == 0 {
			return nil, fmt.Errorf("actor %s: EnabledBy actor %q has no output", info.Actor.Name, en)
		}
		if en == info.Actor.Name {
			return nil, fmt.Errorf("actor %s: cannot be enabled by itself", info.Actor.Name)
		}
		info.EnabledBy = model.PortRef{Actor: en, Port: 0}
	}

	// Step 2+3: schedule conversion.
	g := graph.New()
	for _, a := range m.Actors {
		g.AddNode(a.Name)
	}
	for _, conn := range m.Connections {
		if c.ByName[conn.DstActor].Spec.Stateful {
			continue // delay semantics: reads previous-step value
		}
		g.AddEdge(conn.SrcActor, conn.DstActor)
	}
	// Enable signals must be computed before the actors they gate — even
	// stateful ones, whose data edges are otherwise relaxed.
	for _, info := range c.ByName {
		if info.Gated() {
			g.AddEdge(info.EnabledBy.Actor, info.Actor.Name)
		}
	}
	names, err := g.TopoSort()
	if err != nil {
		return nil, fmt.Errorf("model %s: %w", m.Name, err)
	}
	c.Order = make([]*Info, len(names))
	for i, n := range names {
		c.Order[i] = c.ByName[n]
		c.Order[i].Index = i
	}

	// Step 4: kind/width fixpoint.
	if err := c.resolveTypes(); err != nil {
		return nil, err
	}

	// Step 4b: enable signals must be scalar.
	for _, info := range c.Order {
		if info.Gated() {
			src := c.ByName[info.EnabledBy.Actor]
			if src.OutWidths[0] > 1 {
				return nil, fmt.Errorf("actor %s: EnabledBy signal %q must be scalar",
					info.Actor.Name, info.EnabledBy.Actor)
			}
		}
	}

	// Step 4c: scalar-only enforcement.
	for _, info := range c.Order {
		if !info.Spec.ScalarOnly {
			continue
		}
		for i, w := range info.InWidths {
			if w > 1 {
				return nil, fmt.Errorf("actor %s (%s): input %d is a vector; %s supports scalar signals only",
					info.Actor.Name, info.Actor.Type, i, info.Actor.Type)
			}
		}
		for i, w := range info.OutWidths {
			if w > 1 {
				return nil, fmt.Errorf("actor %s (%s): output %d is a vector; %s supports scalar signals only",
					info.Actor.Name, info.Actor.Type, i, info.Actor.Type)
			}
		}
	}

	// Step 5: per-actor preparation.
	for _, info := range c.Order {
		if info.Spec.Prepare != nil {
			if err := info.Spec.Prepare(info); err != nil {
				return nil, fmt.Errorf("actor %s (%s): %w", info.Actor.Name, info.Actor.Type, err)
			}
		}
	}

	c.collectBoundary()
	stores := make(map[string]bool, len(c.DataStores))
	for _, ds := range c.DataStores {
		if stores[storeName(ds)] {
			return nil, fmt.Errorf("actor %s: duplicate data store %q", ds.Actor.Name, storeName(ds))
		}
		stores[storeName(ds)] = true
	}
	for _, info := range c.Order {
		switch info.Actor.Type {
		case "DataStoreRead", "DataStoreWrite":
			if !stores[storeName(info)] {
				return nil, fmt.Errorf("actor %s (%s) references unknown data store %q",
					info.Actor.Name, info.Actor.Type, storeName(info))
			}
		}
	}
	return c, nil
}

func maxStr(n int) string {
	if n < 0 {
		return "∞"
	}
	return strconv.Itoa(n)
}

// resolveTypes iterates kind and width propagation until stable. Explicit
// OutDataType/OutWidth parameters are pinned once; inferred kinds are
// recomputed every pass (the spec defaults are monotone in the promotion
// lattice, so re-widening converges) — this is what lets delay-broken
// cycles settle on the kind imposed by their acyclic inputs.
func (c *Compiled) resolveTypes() error {
	// Pin explicit parameters first.
	for _, info := range c.Order {
		if s := info.Actor.Param("OutDataType", ""); s != "" && len(info.OutKinds) > 0 {
			pk, err := types.ParseKind(s)
			if err != nil {
				return fmt.Errorf("actor %s: %w", info.Actor.Name, err)
			}
			for i := range info.OutKinds {
				info.OutKinds[i] = pk
			}
		}
		if s := info.Actor.Param("OutWidth", ""); s != "" && len(info.OutWidths) > 0 {
			pw, err := strconv.Atoi(s)
			if err != nil || pw < 1 {
				return fmt.Errorf("actor %s: bad OutWidth %q", info.Actor.Name, s)
			}
			for i := range info.OutWidths {
				info.OutWidths[i] = pw
			}
		}
	}
	explicitKind := func(info *Info) bool { return info.Actor.Param("OutDataType", "") != "" }
	explicitWidth := func(info *Info) bool { return info.Actor.Param("OutWidth", "") != "" }

	const maxIter = 64
	for iter := 0; iter < maxIter; iter++ {
		changed := false
		for _, info := range c.Order {
			// Input kinds/widths from drivers.
			for i, src := range info.InSrc {
				if src.Actor == "" {
					continue
				}
				drv := c.ByName[src.Actor]
				if src.Port < len(drv.OutKinds) {
					if k := drv.OutKinds[src.Port]; k != types.Invalid && info.InKinds[i] != k {
						info.InKinds[i] = k
						changed = true
					}
					if w := drv.OutWidths[src.Port]; w != 0 && info.InWidths[i] != w {
						info.InWidths[i] = w
						changed = true
					}
				}
			}
			if len(info.OutKinds) == 0 {
				continue
			}
			// Output kind: recompute inferred defaults each pass.
			if !explicitKind(info) {
				var k types.Kind
				if info.Spec.OutKind != nil {
					k = info.Spec.OutKind(info)
				} else {
					k = types.F64
				}
				if k != types.Invalid && info.OutKinds[0] != k {
					for i := range info.OutKinds {
						info.OutKinds[i] = k
					}
					changed = true
				}
			}
			// Output width.
			if !explicitWidth(info) {
				w := 1
				if info.Spec.OutWidth != nil {
					w = info.Spec.OutWidth(info)
				}
				if w != 0 && info.OutWidths[0] != w {
					for i := range info.OutWidths {
						info.OutWidths[i] = w
					}
					changed = true
				}
			}
		}
		if !changed {
			break
		}
		if iter == maxIter-1 {
			return fmt.Errorf("model %s: type resolution did not converge", c.Model.Name)
		}
	}
	// Verify everything resolved.
	for _, info := range c.Order {
		for i, k := range info.OutKinds {
			if k == types.Invalid {
				return fmt.Errorf("actor %s: output %d type unresolved (set OutDataType)", info.Actor.Name, i)
			}
		}
		for i, k := range info.InKinds {
			if k == types.Invalid && info.InSrc[i].Actor != "" {
				return fmt.Errorf("actor %s: input %d type unresolved", info.Actor.Name, i)
			}
		}
	}
	return nil
}

// collectBoundary gathers the model's external interface.
func (c *Compiled) collectBoundary() {
	for _, info := range c.Order {
		switch info.Actor.Type {
		case "Inport":
			c.Inports = append(c.Inports, info)
		case "Outport":
			c.Outports = append(c.Outports, info)
		case "DataStoreMemory":
			c.DataStores = append(c.DataStores, info)
		}
	}
	byPort := func(list []*Info) func(i, j int) bool {
		return func(i, j int) bool {
			pi, _ := strconv.Atoi(list[i].Actor.Param("Port", "0"))
			pj, _ := strconv.Atoi(list[j].Actor.Param("Port", "0"))
			if pi != pj {
				return pi < pj
			}
			return list[i].Actor.Name < list[j].Actor.Name
		}
	}
	sort.Slice(c.Inports, byPort(c.Inports))
	sort.Slice(c.Outports, byPort(c.Outports))
	sort.Slice(c.DataStores, func(i, j int) bool {
		return c.DataStores[i].Actor.Param("Store", c.DataStores[i].Actor.Name) <
			c.DataStores[j].Actor.Param("Store", c.DataStores[j].Actor.Name)
	})
}
