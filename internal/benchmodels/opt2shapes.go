package benchmodels

import (
	"fmt"

	"accmos/internal/model"
	"accmos/internal/types"
)

// O2-sensitive benchmark shapes. The O1 trio (OPTC/OPTD/OPTI) collapses
// to a handful of actors before the O2 middle-end ever runs, so these
// four isolate what the typed-lowering stage itself buys:
//
//   - OPTF "fusechains": long scalar single-consumer arithmetic chains
//     that O1 cannot remove (every actor depends on the input) — fusion
//     collapses the whole step body into one expression.
//   - OPTV "fusevectors": the same shape over wide vector signals, where
//     fusion additionally merges one element loop per actor into a
//     single loop with no intermediate array stores.
//   - OPTH "hoistchains": constant tanh chains beside a data store. The
//     store makes O1's edge-rewriting passes decline, so O1 pays the
//     math calls every step; O2's plan-time folding hoists the entire
//     constant region into one precomputed global.
//   - OPTN "narrowlattice": a lattice of wide int32 vector adders over
//     saturation-bounded values. Every node has two consumers, so
//     nothing fuses — the win is interval-driven storage narrowing to
//     int8/int16 arrays.

// Opt2Names returns the O2-sensitive shapes in suite order.
func Opt2Names() []string { return []string{"OPTF", "OPTV", "OPTH", "OPTN"} }

// buildOpt2 constructs the named O2-sensitive shape (nil for unknown
// names).
func buildOpt2(name string) *model.Model {
	switch name {
	case "OPTF":
		return OptFuseChains()
	case "OPTV":
		return OptFuseVectors()
	case "OPTH":
		return OptHoistChains()
	case "OPTN":
		return OptNarrowLattice()
	}
	return nil
}

// sumTree reduces the signals to one via a binary Sum merge tree,
// returning the root actor name.
func sumTree(b *model.Builder, stem string, leaves []string) string {
	level := leaves
	t := 0
	for len(level) > 1 {
		var next []string
		for i := 0; i+1 < len(level); i += 2 {
			n := fmt.Sprintf("%s%02d", stem, t)
			t++
			b.Add(n, "Sum", 2, 1, model.WithOperator("++"))
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

// arithChain appends a Gain/Bias/UnaryMinus/Abs chain of the given depth
// hanging off src, returning the last actor name. salt keeps parameter
// values distinct across chains so CSE cannot merge them at O1 — the
// chains must survive to O2 for fusion to have anything to do. Every
// stage is single-consumer with no branch/boolean actors, so the O2
// analyzer lowers the whole chain when instrumentation is off.
func arithChain(b *model.Builder, stem, src string, depth, salt int) string {
	prev := src
	for d := 0; d < depth; d++ {
		n := fmt.Sprintf("%s_%d", stem, d)
		switch d % 4 {
		case 0:
			b.Add(n, "Gain", 1, 1, model.WithParam("Gain",
				fmt.Sprintf("%g", 1.0+0.125*float64(d%7)+0.015625*float64(salt))))
		case 1:
			b.Add(n, "Bias", 1, 1, model.WithParam("Bias",
				fmt.Sprintf("%g", 0.25*float64(d%5)-0.5+0.03125*float64(salt))))
		case 2:
			b.Add(n, "UnaryMinus", 1, 1)
		default:
			b.Add(n, "Abs", 1, 1)
		}
		b.Connect(prev, 0, n, 0)
		prev = n
	}
	return prev
}

// fanOut muxes n copies of a scalar source into one width-n vector.
func fanOut(b *model.Builder, name, src string, n int) string {
	b.Add(name, "Mux", n, 1)
	for p := 0; p < n; p++ {
		b.Connect(src, 0, name, p)
	}
	return name
}

// OptFuseChains builds OPTF: 16 scalar arithmetic chains of depth 8 off
// the live input, merged by a Sum tree. O1 removes nothing (every actor
// depends on In1); O2 fuses the ~143 lowered actors into one generated
// expression.
func OptFuseChains() *model.Model {
	b := model.NewBuilder("OPTF")
	b.Add("In1", "Inport", 0, 1, model.WithOutKind(types.F64), model.WithParam("Port", "1"))
	const chains, depth = 16, 8
	var leaves []string
	for c := 0; c < chains; c++ {
		leaves = append(leaves, arithChain(b, fmt.Sprintf("C%02d", c), "In1", depth, c))
	}
	root := sumTree(b, "Tr", leaves)
	b.Add("Out1", "Outport", 1, 0, model.WithParam("Port", "1"))
	b.Connect(root, 0, "Out1", 0)
	return b.MustBuild()
}

// OptFuseVectors builds OPTV: the OPTF shape over width-16 vector
// signals (a scalar inport fanned out through a Mux). At O1 every actor
// emits its own element loop and intermediate array store; O2 fuses them
// into a single loop over one expression.
func OptFuseVectors() *model.Model {
	b := model.NewBuilder("OPTV")
	b.Add("In1", "Inport", 0, 1, model.WithOutKind(types.F64), model.WithParam("Port", "1"))
	fan := fanOut(b, "Fan", "In1", 16)
	const chains, depth = 12, 8
	var leaves []string
	for c := 0; c < chains; c++ {
		leaves = append(leaves, arithChain(b, fmt.Sprintf("V%02d", c), fan, depth, c))
	}
	root := sumTree(b, "Tr", leaves)
	b.Add("Out1", "Outport", 1, 0, model.WithParam("Port", "1"))
	b.Connect(root, 0, "Out1", 0)
	return b.MustBuild()
}

// OptHoistChains builds OPTH: 16 constant tanh/Gain chains merged by a
// Sum tree into the live path, beside a small data-store loop. The data
// store makes O1's constant folding and CSE decline (their edge rewrites
// could reorder read/write scheduling ties), so O1 executes ~48 tanh
// calls per step; O2's plan-time folder evaluates the whole constant
// region once with the engines' own staged ops and emits it as one
// hoisted global.
func OptHoistChains() *model.Model {
	b := model.NewBuilder("OPTH")
	b.Add("In1", "Inport", 0, 1, model.WithOutKind(types.F64), model.WithParam("Port", "1"))
	const chains, depth = 16, 6
	var leaves []string
	for c := 0; c < chains; c++ {
		k := fmt.Sprintf("HK%02d", c)
		b.Add(k, "Constant", 0, 1, model.WithParam("Value", fmt.Sprintf("%g", 0.125*float64(c)-1)))
		prev := k
		for d := 0; d < depth; d++ {
			var n string
			if d%2 == 0 {
				n = fmt.Sprintf("HFn%02d_%d", c, d)
				b.Add(n, "Math", 1, 1, model.WithOperator("tanh"))
			} else {
				n = fmt.Sprintf("HG%02d_%d", c, d)
				b.Add(n, "Gain", 1, 1, model.WithParam("Gain", fmt.Sprintf("%g", 1.0+0.0625*float64(c))))
			}
			b.Connect(prev, 0, n, 0)
			prev = n
		}
		leaves = append(leaves, prev)
	}
	root := sumTree(b, "HTr", leaves)
	b.Add("Mix", "Sum", 2, 1, model.WithOperator("++"))
	b.Connect("In1", 0, "Mix", 0)
	b.Connect(root, 0, "Mix", 1)
	b.Add("Lim", "Saturation", 1, 1, model.WithParam("Min", "-6"), model.WithParam("Max", "6"))
	b.Connect("Mix", 0, "Lim", 0)
	b.Add("Out1", "Outport", 1, 0, model.WithParam("Port", "1"))
	b.Connect("Lim", 0, "Out1", 0)

	// The data-store loop that keeps O1's edge-rewriting passes off.
	b.Add("Store", "DataStoreMemory", 0, 0, model.WithParam("Store", "acc"),
		model.WithParam("OutDataType", "double"), model.WithParam("InitialValue", "0"))
	b.Add("Wr", "DataStoreWrite", 1, 0, model.WithParam("Store", "acc"))
	b.Connect("In1", 0, "Wr", 0)
	b.Add("Rd", "DataStoreRead", 0, 1, model.WithParam("Store", "acc"),
		model.WithParam("OutDataType", "double"))
	b.Add("Out2", "Outport", 1, 0, model.WithParam("Port", "2"))
	b.Connect("Rd", 0, "Out2", 0)
	return b.MustBuild()
}

// OptNarrowLattice builds OPTN: width-16 int32 vector adder layers over a
// saturation-bounded input. Each adder output feeds two consumers in the
// next layer, so fusion declines everywhere (multi-use) and the shape
// isolates storage narrowing: layer intervals grow 100, 200, ...,
// 6400 — int8 storage for the first layer, int16 for the rest — which
// quarters (then halves) the per-step array traffic against O1's int32.
func OptNarrowLattice() *model.Model {
	b := model.NewBuilder("OPTN")
	b.Add("In1", "Inport", 0, 1, model.WithOutKind(types.I32), model.WithParam("Port", "1"))
	b.Add("Bound", "Saturation", 1, 1, model.WithParam("Min", "0"), model.WithParam("Max", "50"))
	b.Connect("In1", 0, "Bound", 0)
	// The Mux fan-out carries the clamp's [0,50] fact onto the vector.
	fanOut(b, "Clamp", "Bound", 16)

	// Distinct per-lane biases keep CSE from merging the lattice at O1
	// (every lane would otherwise compute the same value); each lane
	// interval stays [i, 50+i], so the first layers narrow to int8.
	const layers, width = 8, 10
	prev := make([]string, width)
	for i := range prev {
		n := fmt.Sprintf("B%d", i)
		b.Add(n, "Bias", 1, 1, model.WithParam("Bias", fmt.Sprintf("%d", i)))
		b.Connect("Clamp", 0, n, 0)
		prev[i] = n
	}
	for l := 0; l < layers; l++ {
		next := make([]string, width)
		for i := 0; i < width; i++ {
			n := fmt.Sprintf("L%d_%d", l, i)
			b.Add(n, "Sum", 2, 1, model.WithOperator("++"))
			b.Connect(prev[i], 0, n, 0)
			b.Connect(prev[(i+1)%width], 0, n, 1)
			next[i] = n
		}
		prev = next
	}
	// Collapse the last layer pairwise down to one outport so every
	// lattice node keeps exactly two lowered consumers.
	root := sumTree(b, "NTr", prev)
	b.Add("Out1", "Outport", 1, 0, model.WithParam("Port", "1"))
	b.Connect(root, 0, "Out1", 0)
	return b.MustBuild()
}
