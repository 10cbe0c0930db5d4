package benchmodels

import (
	"fmt"

	"accmos/internal/model"
	"accmos/internal/types"
)

// Optimizer-sensitive benchmark shapes. Each one isolates a structure the
// internal/opt pipeline targets, at a scale where the O0-vs-O1 wall-clock
// gap is measurable:
//
//   - OPTC "constheavy": a large constant subgraph feeding a tiny live
//     chain — constant folding collapses it to one literal.
//   - OPTD "dupbranches": many identical parallel branches — CSE merges
//     them and dead-actor elimination drops the orphaned duplicates.
//   - OPTI "deadisland": a large disconnected island that influences no
//     outport — dead-actor elimination removes it wholesale.
//
// The removable regions use diagnosis-rule-free actor types (Constant,
// Saturation, Sign, MinMax), so the passes also fire when the equivalence
// harness runs them with coverage and diagnosis instrumentation on.

// OptNames returns the optimizer benchmark shapes in suite order: the
// O1-sensitive trio followed by the O2-sensitive quartet (opt2shapes.go).
func OptNames() []string {
	return append([]string{"OPTC", "OPTD", "OPTI"}, Opt2Names()...)
}

// BuildOpt constructs the named optimizer benchmark shape.
func BuildOpt(name string) (*model.Model, error) {
	switch name {
	case "OPTC":
		return OptConstHeavy(), nil
	case "OPTD":
		return OptDupBranches(), nil
	case "OPTI":
		return OptDeadIsland(), nil
	}
	if m := buildOpt2(name); m != nil {
		return m, nil
	}
	return nil, fmt.Errorf("benchmodels: unknown opt shape %q (have %v)", name, OptNames())
}

// MustBuildOpt is BuildOpt for tests and benchmarks.
func MustBuildOpt(name string) *model.Model {
	m, err := BuildOpt(name)
	if err != nil {
		panic(err)
	}
	return m
}

// minMaxTree reduces the signals to one via a binary MinMax merge tree,
// returning the root actor name. stem keeps the node names unique.
func minMaxTree(b *model.Builder, stem string, leaves []string) string {
	level := leaves
	t := 0
	for len(level) > 1 {
		var next []string
		for i := 0; i+1 < len(level); i += 2 {
			n := fmt.Sprintf("%s%02d", stem, t)
			t++
			b.Add(n, "MinMax", 2, 1, model.WithOperator("max"))
			b.Connect(level[i], 0, n, 0)
			b.Connect(level[i+1], 0, n, 1)
			next = append(next, n)
		}
		if len(level)%2 == 1 {
			next = append(next, level[len(level)-1])
		}
		level = next
	}
	return level[0]
}

// OptConstHeavy builds OPTC: 24 constant-fed chains merged by a MinMax
// tree, whose single constant result joins the live input path. Constant
// folding reduces the ~190-actor constant region to one literal;
// dead-actor elimination then sweeps the folded leftovers, leaving about
// five live actors. Odd chains interleave Math(tanh) blocks: a host
// compiler cannot fold a math-library call, so the generated program
// pays real per-step cost at O0 — the probing fold removes it at O1.
func OptConstHeavy() *model.Model {
	b := model.NewBuilder("OPTC")
	b.Add("In1", "Inport", 0, 1, model.WithOutKind(types.F64), model.WithParam("Port", "1"))
	const chains, depth = 24, 6
	var leaves []string
	for c := 0; c < chains; c++ {
		k := fmt.Sprintf("K%02d", c)
		// Distinct values per chain so CSE cannot short-circuit the
		// folding work this shape exists to measure.
		b.Add(k, "Constant", 0, 1, model.WithParam("Value", fmt.Sprintf("%g", 0.25*float64(c)-3)))
		prev := k
		for d := 0; d < depth; d++ {
			var s string
			if c%2 == 1 && d%2 == 1 {
				s = fmt.Sprintf("Fn%02d_%d", c, d)
				b.Add(s, "Math", 1, 1, model.WithOperator("tanh"))
			} else {
				s = fmt.Sprintf("Sat%02d_%d", c, d)
				b.Add(s, "Saturation", 1, 1,
					model.WithParam("Min", fmt.Sprintf("%g", -10+float64(d))),
					model.WithParam("Max", fmt.Sprintf("%g", 10-float64(d))))
			}
			b.Connect(prev, 0, s, 0)
			prev = s
		}
		leaves = append(leaves, prev)
	}
	root := minMaxTree(b, "Tr", leaves)
	b.Add("Blend", "MinMax", 2, 1, model.WithOperator("min"))
	b.Connect("In1", 0, "Blend", 0)
	b.Connect(root, 0, "Blend", 1)
	b.Add("Lim", "Saturation", 1, 1, model.WithParam("Min", "-5"), model.WithParam("Max", "5"))
	b.Connect("Blend", 0, "Lim", 0)
	b.Add("Out1", "Outport", 1, 0, model.WithParam("Port", "1"))
	b.Connect("Lim", 0, "Out1", 0)
	return b.MustBuild()
}

// OptDupBranches builds OPTD: twenty byte-identical Saturation→Sign→
// MinMax branches off the same input, reduced by a MinMax tree. CSE
// rewires every consumer to one representative branch — which also
// collapses each tree level — and dead-actor elimination removes the
// orphaned duplicates.
func OptDupBranches() *model.Model {
	b := model.NewBuilder("OPTD")
	b.Add("In1", "Inport", 0, 1, model.WithOutKind(types.F64), model.WithParam("Port", "1"))
	const chains = 20
	var leaves []string
	for c := 0; c < chains; c++ {
		sat := fmt.Sprintf("SatA%02d", c)
		b.Add(sat, "Saturation", 1, 1, model.WithParam("Min", "-2"), model.WithParam("Max", "2"))
		b.Connect("In1", 0, sat, 0)
		sg := fmt.Sprintf("SgnA%02d", c)
		b.Add(sg, "Sign", 1, 1)
		b.Connect(sat, 0, sg, 0)
		mm := fmt.Sprintf("MixA%02d", c)
		b.Add(mm, "MinMax", 2, 1, model.WithOperator("max"))
		b.Connect(sat, 0, mm, 0)
		b.Connect(sg, 0, mm, 1)
		leaves = append(leaves, mm)
	}
	root := minMaxTree(b, "Tr", leaves)
	b.Add("Out1", "Outport", 1, 0, model.WithParam("Port", "1"))
	b.Connect(root, 0, "Out1", 0)
	return b.MustBuild()
}

// OptDeadIsland builds OPTI: a three-actor live path beside a large
// constant-fed Sign/MinMax island that reaches no outport. The island is
// valid (dangling outputs lint as Info) but observationally inert, so
// dead-actor elimination removes all of it — the island deliberately
// avoids branch and boolean actors so removal stays legal even with
// coverage instrumentation on. Odd chains swap Sign for Math(tanh) so
// the generated program pays real (host-compiler-opaque) per-step cost
// at O0.
func OptDeadIsland() *model.Model {
	b := model.NewBuilder("OPTI")
	b.Add("In1", "Inport", 0, 1, model.WithOutKind(types.F64), model.WithParam("Port", "1"))
	b.Add("Lim", "Saturation", 1, 1, model.WithParam("Min", "-1"), model.WithParam("Max", "1"))
	b.Connect("In1", 0, "Lim", 0)
	b.Add("Out1", "Outport", 1, 0, model.WithParam("Port", "1"))
	b.Connect("Lim", 0, "Out1", 0)

	const chains, depth = 12, 8
	for c := 0; c < chains; c++ {
		k := fmt.Sprintf("IK%02d", c)
		b.Add(k, "Constant", 0, 1, model.WithParam("Value", fmt.Sprintf("%g", 0.5*float64(c)-2)))
		prev := k
		for d := 0; d < depth; d++ {
			var n string
			switch {
			case d%2 == 0 && c%2 == 1:
				n = fmt.Sprintf("IFn%02d_%d", c, d)
				b.Add(n, "Math", 1, 1, model.WithOperator("tanh"))
				b.Connect(prev, 0, n, 0)
			case d%2 == 0:
				n = fmt.Sprintf("ISg%02d_%d", c, d)
				b.Add(n, "Sign", 1, 1)
				b.Connect(prev, 0, n, 0)
			default:
				n = fmt.Sprintf("IMx%02d_%d", c, d)
				b.Add(n, "MinMax", 2, 1, model.WithOperator("max"))
				b.Connect(prev, 0, n, 0)
				b.Connect(k, 0, n, 1)
			}
			prev = n
		}
	}
	return b.MustBuild()
}
