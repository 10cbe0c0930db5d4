package ir

import (
	"accmos/internal/actors"
	"accmos/internal/types"
)

// Config tells the analyzer which observation features are active, since
// lowering eligibility depends on them: an actor is only lowerable when
// replacing its template emission with a fused expression cannot change
// coverage bitmaps, diagnosis records, monitor samples or stop behavior.
type Config struct {
	Coverage bool
	Diagnose bool
	// Monitored / Custom / StopOn name actors (by name or path) whose
	// output variable the instrumentation reads after the actor runs.
	// They may still be lowered to a fused expression, but must stay
	// materialized under their own variable (never inlined, never
	// narrowed).
	Monitored map[string]bool
	Custom    map[string]bool
	StopOn    string
}

// Use is one data-input consumption of a node's output.
type Use struct {
	Consumer string
	Port     int
}

// Node is one scheduled actor with its lowering outcome.
type Node struct {
	Name     string
	Path     string
	Index    int
	Type     string
	Operator string
	Kind     types.Kind
	Width    int

	// Lowered is the actor's expression tree with Ref leaves for every
	// input, or nil when the actor stays opaque (template-emitted).
	// Decline carries the reason when nil.
	Lowered Expr
	Decline string

	// MustMaterialize pins a lowered node under its own variable:
	// monitors, custom checks or stop conditions read it by name.
	MustMaterialize bool

	// UsedBy lists data-input uses; EnableUses counts actors gated by
	// this node's output (an opaque consumption: the gate condition
	// reads the materialized variable).
	UsedBy     []Use
	EnableUses int

	// Fact is a value-range fact for signals the analyzer cannot lower
	// but can still bound (Saturation clamps, Sign, boolean outputs).
	Fact Interval
}

// Graph is the lowering result over one compiled model, in schedule
// order.
type Graph struct {
	Nodes  []*Node
	ByName map[string]*Node
}

// Analyze lowers every eligible actor of c into the expression IR and
// records the use graph the planner needs. It never modifies c.
func Analyze(c *actors.Compiled, cfg Config) *Graph {
	g := &Graph{ByName: make(map[string]*Node, len(c.Order))}
	for _, info := range c.Order {
		n := &Node{
			Name:     info.Actor.Name,
			Path:     info.Path,
			Index:    info.Index,
			Type:     string(info.Actor.Type),
			Operator: info.Operator,
			Kind:     info.OutKind(),
			Width:    info.OutWidth(),
		}
		n.MustMaterialize = cfg.Monitored[n.Name] || cfg.Monitored[info.Path] ||
			cfg.Custom[n.Name] || cfg.Custom[info.Path] ||
			(cfg.StopOn != "" && (cfg.StopOn == n.Name || cfg.StopOn == info.Path))
		n.Lowered, n.Decline = lower(c, info, cfg)
		n.Fact = fact(g, info)
		g.Nodes = append(g.Nodes, n)
		g.ByName[n.Name] = n
	}
	// Second pass: record uses now that every node exists.
	for _, info := range c.Order {
		for p, src := range info.InSrc {
			if src.Actor == "" {
				continue
			}
			if d := g.ByName[src.Actor]; d != nil {
				d.UsedBy = append(d.UsedBy, Use{Consumer: info.Actor.Name, Port: p})
			}
		}
		if info.Gated() {
			if d := g.ByName[info.EnabledBy.Actor]; d != nil {
				d.EnableUses++
			}
		}
	}
	return g
}

// fact returns a value-range fact for signals whose producer bounds its
// output: clamps and signs bound unconditionally, a Mux is bounded by
// the union of its (already-analyzed — schedule order) driver facts.
// These power width narrowing through opaque actors.
func fact(g *Graph, info *actors.Info) Interval {
	k := info.OutKind()
	switch {
	case k == types.Bool:
		return Interval{Lo: 0, Hi: 1, OK: true}
	case info.Actor.Type == "Sign" && k.IsInteger():
		if k.IsUnsigned() {
			return Interval{Lo: 0, Hi: 1, OK: true}
		}
		return Interval{Lo: -1, Hi: 1, OK: true}
	case info.Actor.Type == "Saturation" && k.IsInteger():
		lo, hi, ok := actors.SaturationBounds(info)
		if !ok {
			return Interval{}
		}
		l, lok := intOf(lo)
		h, hok := intOf(hi)
		if lok && hok {
			return Interval{Lo: l, Hi: h, OK: true}
		}
	case info.Actor.Type == "Mux" && k.IsInteger():
		var out Interval
		for p, src := range info.InSrc {
			d := g.ByName[src.Actor]
			if d == nil || src.Port != 0 || !d.Fact.OK || info.InKinds[p] != k {
				return Interval{}
			}
			if !out.OK {
				out = d.Fact
				continue
			}
			if d.Fact.Lo < out.Lo {
				out.Lo = d.Fact.Lo
			}
			if d.Fact.Hi > out.Hi {
				out.Hi = d.Fact.Hi
			}
		}
		return out
	}
	return Interval{}
}

// intOf extracts an integer value as int64, rejecting unsigned values
// beyond int64 range.
func intOf(v types.Value) (int64, bool) {
	switch {
	case v.Kind == types.Bool:
		if v.B {
			return 1, true
		}
		return 0, true
	case v.Kind.IsSigned():
		return v.I, true
	case v.Kind.IsUnsigned():
		if v.U > uint64(1)<<63-1 {
			return 0, false
		}
		return int64(v.U), true
	}
	return 0, false
}

// lower builds the expression tree for one actor, or explains why it
// stays opaque. The trees mirror the Gen templates in internal/actors
// operation for operation (same casts, same rounding discipline, same
// evaluation order), which is what keeps O0 and O2 bit-identical.
func lower(c *actors.Compiled, info *actors.Info, cfg Config) (Expr, string) {
	if info.Spec.Stateful {
		return nil, "stateful"
	}
	if info.Gated() {
		return nil, "gated"
	}
	if len(info.Actor.Outputs) != 1 {
		return nil, "not single-output"
	}
	if cfg.Diagnose && len(info.DiagRules()) > 0 {
		// The generated diagnosis block reads the template's input
		// expressions and flags; a fused emission has neither.
		return nil, "diagnosis rules"
	}
	if cfg.Coverage && (info.Spec.BooleanOut || info.Spec.Branch) {
		// Decision/condition/MC/DC instrumentation is part of the
		// template body; fusing would drop those marks.
		return nil, "decision coverage"
	}

	k := info.OutKind()
	// in returns input p as a Ref to its driver.
	in := func(p int) Expr {
		src := info.InSrc[p]
		d := c.Info(src.Actor)
		return &Ref{Actor: src.Actor, Index: d.Index, Port: src.Port,
			K: info.InKinds[p], W: info.InWidths[p]}
	}
	// castK mirrors castIn: input p converted to kind kk.
	castK := func(p int, kk types.Kind) Expr {
		x := in(p)
		if info.InKinds[p] == kk {
			return x
		}
		return &Cast{From: info.InKinds[p], To: kk, X: x}
	}

	switch info.Actor.Type {
	case "Constant":
		v := info.Aux.(types.Value)
		if v.Width() > 1 || info.OutWidth() > 1 {
			return nil, "vector constant"
		}
		return &Lit{Val: v}, ""

	case "Sum":
		signs := info.Aux.(string)
		var expr Expr
		if signs[0] == '+' {
			expr = castK(0, k)
		} else {
			expr = &Bin{Op: "-", K: k, A: &Lit{Val: types.Zero(k)}, B: castK(0, k)}
		}
		for i := 1; i < info.NumIn(); i++ {
			expr = &Bin{Op: string(signs[i]), K: k, A: expr, B: castK(i, k)}
		}
		return expr, ""

	case "Product":
		if !k.IsFloat() {
			// The integer template guards zero divisors with branchy
			// statements; only the pure-expression float path lowers.
			return nil, "integer product"
		}
		signs := info.Aux.(string)
		var expr Expr
		if signs[0] == '*' {
			expr = castK(0, k)
		} else {
			one, _ := types.ParseValue(k, "1")
			expr = &Bin{Op: "/", K: k, A: &Lit{Val: one}, B: castK(0, k)}
		}
		for i := 1; i < info.NumIn(); i++ {
			expr = &Bin{Op: string(signs[i]), K: k, A: expr, B: castK(i, k)}
		}
		return expr, ""

	case "Gain":
		return &Bin{Op: "*", K: k, A: castK(0, k), B: &Lit{Val: info.Aux.(types.Value)}}, ""

	case "Bias":
		return &Bin{Op: "+", K: k, A: castK(0, k), B: &Lit{Val: info.Aux.(types.Value)}}, ""

	case "UnaryMinus":
		return &Bin{Op: "-", K: k, A: &Lit{Val: types.Zero(k)}, B: castK(0, k)}, ""

	case "Abs":
		switch {
		case k.IsFloat():
			return &Cast{From: types.F64, To: k,
				X: &Call{Op: "abs", X: &Cast{From: k, To: types.F64, X: castK(0, k)}}}, ""
		case k.IsUnsigned() || k == types.Bool:
			return castK(0, k), ""
		}
		return nil, "signed abs"

	case "Math", "Sqrt", "Rounding":
		x := castK(0, types.F64)
		return &Cast{From: types.F64, To: k, X: &Call{Op: info.Operator, X: x}}, ""

	case "Mod":
		if !k.IsFloat() {
			return nil, "integer mod"
		}
		return &Cast{From: types.F64, To: k, X: &Mod2{A: castK(0, k), B: castK(1, k)}}, ""

	case "RelationalOperator":
		pk := types.Promote(info.InKinds[0], info.InKinds[1])
		return &Cmp{Op: info.Operator, K: pk, A: castK(0, pk), B: castK(1, pk)}, ""

	case "CompareToConstant":
		cv := info.Aux.(types.Value)
		pk := types.Promote(info.InKinds[0], cv.Kind)
		lit, _ := types.Convert(cv, pk)
		return &Cmp{Op: info.Operator, K: pk, A: castK(0, pk), B: &Lit{Val: lit}}, ""

	case "CompareToZero":
		zk := info.InKinds[0]
		return &Cmp{Op: info.Operator, K: zk, A: in(0), B: &Lit{Val: types.Zero(zk)}}, ""

	case "Logic":
		args := make([]Expr, info.NumIn())
		for i := range args {
			args[i] = castK(i, types.Bool)
		}
		return &Logic{Op: info.Operator, Args: args}, ""

	case "BitwiseOperator":
		if info.Operator == "NOT" {
			return &BNot{K: k, X: castK(0, k)}, ""
		}
		goOp := map[string]string{"AND": "&", "OR": "|", "XOR": "^"}[info.Operator]
		expr := castK(0, k)
		for i := 1; i < info.NumIn(); i++ {
			expr = &Bin{Op: goOp, K: k, A: expr, B: castK(i, k)}
		}
		return expr, ""

	case "Shift":
		return &Shift{Op: info.Operator, N: info.Aux.(int64), K: k, X: castK(0, k)}, ""

	case "DataTypeConversion":
		return castK(0, k), ""
	}
	return nil, "opaque actor type"
}
