package actors

import (
	"fmt"
	"strings"

	"accmos/internal/diagnose"
	"accmos/internal/types"
)

// Routing actors: signal composition, selection, type conversion, and the
// data-store family (the paper's case-study global variable mechanism).

func init() {
	registerMux()
	registerDemux()
	registerSelector()
	registerDataTypeConversion()
	registerDataStoreMemory()
	registerDataStoreRead()
	registerDataStoreWrite()
}

func registerMux() {
	register(&Spec{
		Type: "Mux", MinIn: 2, MaxIn: 16, NumOut: 1,
		OutKind: func(in *Info) types.Kind { return in.InKinds[0] },
		OutWidth: func(in *Info) int {
			w := 0
			for _, iw := range in.InWidths {
				if iw == 0 {
					return 0
				}
				w += iw
			}
			return w
		},
		Eval: func(ec *EvalCtx) {
			k := ec.Info.OutKind()
			out := types.Value{Kind: k, Elems: make([]types.Value, 0, ec.Info.OutWidth())}
			for _, v := range ec.In {
				for i := 0; i < v.Width(); i++ {
					e, cr := types.Convert(v.Elem(i), k)
					ec.Flags.OutOfRange = ec.Flags.OutOfRange || cr.OutOfRange
					out.Elems = append(out.Elems, e)
				}
			}
			ec.SetOut(out)
		},
		Gen: func(gc *GenCtx) error {
			k := gc.Info.OutKind()
			off := 0
			for p := range gc.In {
				w := gc.Info.InWidths[p]
				if w <= 1 {
					gc.L("%s[%d] = %s", gc.Out[0], off, castIn(gc, p, "", k))
					off++
					continue
				}
				for i := 0; i < w; i++ {
					gc.L("%s[%d] = %s", gc.Out[0], off,
						Cast(fmt.Sprintf("%s[%d]", gc.In[p], i), gc.Info.InKinds[p], k))
					off++
				}
			}
			return nil
		},
	})
}

func registerDemux() {
	register(&Spec{
		Type: "Demux", MinIn: 1, MaxIn: 1, VariableOut: true,
		OutKind: func(in *Info) types.Kind { return in.InKinds[0] },
		OutWidth: func(in *Info) int {
			n := len(in.Actor.Outputs)
			if in.InWidths[0] == 0 || n == 0 {
				return 0
			}
			if in.InWidths[0]%n != 0 {
				return 1 // Prepare rejects this; keep resolution moving
			}
			return in.InWidths[0] / n
		},
		Prepare: func(in *Info) error {
			n := len(in.Actor.Outputs)
			if n == 0 {
				return fmt.Errorf("Demux needs at least one output")
			}
			if in.InWidths[0]%n != 0 {
				return fmt.Errorf("Demux input width %d not divisible by %d outputs", in.InWidths[0], n)
			}
			return nil
		},
		Eval: func(ec *EvalCtx) {
			k := ec.Info.OutKind()
			n := len(ec.Outs)
			chunk := ec.In[0].Width() / n
			for o := 0; o < n; o++ {
				if chunk == 1 {
					ec.Outs[o] = ec.In[0].Elem(o)
				} else {
					v := types.Value{Kind: k, Elems: make([]types.Value, chunk)}
					for i := 0; i < chunk; i++ {
						v.Elems[i] = ec.In[0].Elem(o*chunk + i)
					}
					ec.Outs[o] = v
				}
			}
		},
		Gen: func(gc *GenCtx) error {
			n := len(gc.Out)
			chunk := gc.Info.InWidths[0] / n
			for o := 0; o < n; o++ {
				if chunk == 1 {
					gc.L("%s = %s[%d]", gc.Out[o], gc.In[0], o)
					continue
				}
				for i := 0; i < chunk; i++ {
					gc.L("%s[%d] = %s[%d]", gc.Out[o], i, gc.In[0], o*chunk+i)
				}
			}
			return nil
		},
	})
}

// selectorAux holds static selection indices (1-based), nil for dynamic.
type selectorAux struct{ indices []int }

func registerSelector() {
	register(&Spec{
		Type: "Selector", MinIn: 1, MaxIn: 2, NumOut: 1,
		OutKind: func(in *Info) types.Kind { return in.InKinds[0] },
		OutWidth: func(in *Info) int {
			if len(in.Actor.Inputs) == 2 {
				return 1 // dynamic single-element selection
			}
			s := in.Actor.Param("Indices", "")
			return len(strings.Fields(strings.Trim(s, "[]")))
		},
		Prepare: func(in *Info) error {
			if in.NumIn() == 2 {
				if in.InWidths[1] > 1 {
					return fmt.Errorf("Selector index input must be scalar")
				}
				in.Aux = selectorAux{}
				return nil
			}
			fs, err := paramF64Slice(in, "Indices")
			if err != nil {
				return err
			}
			idx := make([]int, len(fs))
			for i, f := range fs {
				idx[i] = int(f)
				if idx[i] < 1 || idx[i] > in.InWidths[0] {
					return fmt.Errorf("Selector index %d out of range [1,%d]", idx[i], in.InWidths[0])
				}
			}
			in.Aux = selectorAux{indices: idx}
			return nil
		},
		Eval: func(ec *EvalCtx) {
			aux := ec.Info.Aux.(selectorAux)
			k := ec.Info.OutKind()
			if aux.indices == nil {
				// Dynamic: in1 is the 1-based element index; out-of-bounds
				// clamps and raises the array-out-of-bounds diagnosis.
				iv, _ := types.Convert(ec.In[1], types.I64)
				idx := iv.I
				w := int64(ec.In[0].Width())
				if idx < 1 {
					ec.Flags.OutOfRange = true
					idx = 1
				} else if idx > w {
					ec.Flags.OutOfRange = true
					idx = w
				}
				ec.SetOut(ec.In[0].Elem(int(idx - 1)))
				return
			}
			if len(aux.indices) == 1 {
				ec.SetOut(ec.In[0].Elem(aux.indices[0] - 1))
				return
			}
			out := types.Value{Kind: k, Elems: make([]types.Value, len(aux.indices))}
			for i, ix := range aux.indices {
				out.Elems[i] = ec.In[0].Elem(ix - 1)
			}
			ec.SetOut(out)
		},
		Gen: func(gc *GenCtx) error {
			aux := gc.Info.Aux.(selectorAux)
			if aux.indices == nil {
				w := gc.Info.InWidths[0]
				iv := gc.V("sel")
				gc.L("%s := %s", iv, Cast(gc.In[1], gc.Info.InKinds[1], types.I64))
				gc.Block(fmt.Sprintf("if %s < 1", iv), func() {
					gc.L("%s = 1", iv)
				})
				gc.Block(fmt.Sprintf("else if %s > %d", iv, w), func() {
					gc.L("%s = %d", iv, w)
				})
				gc.L("%s = %s[%s-1]", gc.Out[0], gc.In[0], iv)
				return nil
			}
			if len(aux.indices) == 1 {
				gc.L("%s = %s[%d]", gc.Out[0], gc.In[0], aux.indices[0]-1)
				return nil
			}
			for i, ix := range aux.indices {
				gc.L("%s[%d] = %s[%d]", gc.Out[0], i, gc.In[0], ix-1)
			}
			return nil
		},
		DiagRules: func(in *Info) []diagnose.Kind { return ruleIf(in.NumIn() == 2, diagnose.IndexOutOfBounds) },
		DiagGen:   func(dc *DiagCtx) { dc.index(1, dc.Info.InWidths[0]) },
	})
}

func registerDataTypeConversion() {
	register(&Spec{
		Type: "DataTypeConversion", MinIn: 1, MaxIn: 1, NumOut: 1,
		OutWidth: maxInWidth,
		// No OutKind default: the instance must state the target type,
		// which is the entire point of the block.
		Prepare: func(in *Info) error {
			if in.Actor.Param("OutDataType", "") == "" {
				return fmt.Errorf("DataTypeConversion requires OutDataType")
			}
			return nil
		},
		OutKind: func(in *Info) types.Kind { return types.Invalid },
		Eval: func(ec *EvalCtx) {
			v, cr := types.Convert(ec.In[0], ec.Info.OutKind())
			ec.Flags.OutOfRange = ec.Flags.OutOfRange || cr.OutOfRange
			ec.Flags.PrecisionLoss = ec.Flags.PrecisionLoss || cr.PrecisionLoss
			ec.SetOut(v)
		},
		Gen: func(gc *GenCtx) error {
			k := gc.Info.OutKind()
			gc.ForEachOut(func(ix string) {
				gc.L("%s = %s", gc.OutElem(0, ix), castIn(gc, 0, ix, k))
			})
			return nil
		},
		DiagRules: func(in *Info) []diagnose.Kind {
			var ks []diagnose.Kind
			from, to := in.InKinds[0], in.OutKind()
			if hasDowncast(in) {
				ks = append(ks, diagnose.Downcast, diagnose.OutOfRange)
			}
			if from.IsFloat() && to.IsInteger() || (from == types.I64 || from == types.U64) && to.IsFloat() {
				ks = append(ks, diagnose.PrecisionLoss)
			}
			return ks
		},
		DiagGen: diagConversion,
	})
}

// diagConversion emits the DataTypeConversion checks: out-of-range and
// precision-loss conditions per (source, target) kind pair, mirroring
// types.Convert's flag semantics case by case.
func diagConversion(dc *DiagCtx) {
	from := dc.Info.InKinds[0]
	to := dc.Info.OutKind()
	w := dc.Info.OutWidth()
	oor, ploss := dc.has(diagnose.OutOfRange), dc.has(diagnose.PrecisionLoss)
	dc.forWidth(w, func(ix string) {
		in := elem("in0", dc.Info.InWidths[0], ix)
		out := elem("out", w, ix)
		switch {
		case to == types.Bool || from == types.Bool:
			// Bool conversions are always lossless in the flag sense.
		case to.IsSigned() && from.IsSigned():
			if oor {
				dc.raise("oor", fmt.Sprintf("int64(%s) != int64(%s)", out, in))
			}
		case to.IsSigned() && from.IsUnsigned():
			if oor {
				dc.raise("oor", fmt.Sprintf("uint64(%s) > 9223372036854775807 || int64(%s) != int64(%s)", in, out, in))
			}
		case to.IsUnsigned() && from.IsSigned():
			if oor {
				dc.raise("oor", fmt.Sprintf("int64(%s) < 0 || uint64(%s) != uint64(%s)", in, out, in))
			}
		case to.IsUnsigned() && from.IsUnsigned():
			if oor {
				dc.raise("oor", fmt.Sprintf("uint64(%s) != uint64(%s)", out, in))
			}
		case to.IsInteger() && from.IsFloat():
			dc.Prog.Import("math")
			f := dc.tmp("f")
			dc.L("%s := float64(%s)", f, in)
			if ploss {
				dc.raise("ploss", fmt.Sprintf("(%s != math.Trunc(%s) && !math.IsNaN(%s))", f, f, f))
			}
			if oor {
				flag := dc.flag("oor")
				bounds, wide := "%s >= 9223372036854775807 || %s <= -9223372036854775808", "int64"
				if to.IsUnsigned() {
					bounds, wide = "%s >= 18446744073709551615 || %s < 0", "uint64"
				}
				dc.Block(fmt.Sprintf("if math.IsNaN(%s) || "+bounds, f, f, f), func() {
					dc.L("%s = true", flag)
				})
				dc.Block(fmt.Sprintf("else if %s(%s) != %s(%s)", wide, out, wide, f), func() {
					dc.L("%s = true", flag)
				})
			}
		case to.IsFloat() && from.IsInteger():
			// Only 64-bit integers can lose precision (rule gate).
			switch {
			case !ploss:
			case from == types.I64 && to == types.F64:
				dc.raise("ploss", fmt.Sprintf("int64(float64(%s)) != %s", in, in))
			case from == types.U64 && to == types.F64:
				dc.raise("ploss", fmt.Sprintf("uint64(float64(%s)) != %s", in, in))
			case to == types.F32:
				f := dc.tmp("f")
				dc.L("%s := float64(%s)", f, in)
				dc.raise("ploss", fmt.Sprintf("float64(float32(%s)) != %s", f, f))
			}
		case to == types.F32 && from == types.F64:
			// Narrowing float: interp flags PrecisionLoss only, which the
			// DataTypeConversion rule set does not include for this pair,
			// so there is nothing to report.
		}
	})
}

// storeName returns the data-store identifier an actor references.
func storeName(in *Info) string {
	return in.Actor.Param("Store", in.Actor.Name)
}

func registerDataStoreMemory() {
	register(&Spec{
		Type: "DataStoreMemory", MinIn: 0, MaxIn: 0, NumOut: 0,
		OutKind: nil,
		Prepare: func(in *Info) error {
			ks := in.Actor.Param("OutDataType", "double")
			k, err := types.ParseKind(ks)
			if err != nil {
				return err
			}
			iv, err := paramValue(in, "InitialValue", k, "0")
			if err != nil {
				return err
			}
			in.Aux = iv
			return nil
		},
		Eval: func(ec *EvalCtx) {},
		Gen:  func(gc *GenCtx) error { return nil }, // storage handled by the program
	})
}

// StoreKind returns the value kind of a DataStoreMemory actor.
func StoreKind(in *Info) types.Kind { return in.Aux.(types.Value).Kind }

// StoreInit returns the initial value of a DataStoreMemory actor.
func StoreInit(in *Info) types.Value { return in.Aux.(types.Value) }

// StoreName is the exported form of storeName for engines.
func StoreName(in *Info) string { return storeName(in) }

func registerDataStoreRead() {
	register(&Spec{
		Type: "DataStoreRead", MinIn: 0, MaxIn: 0, NumOut: 1,
		ScalarOnly: true,
		OutKind:    func(*Info) types.Kind { return types.F64 },
		Eval: func(ec *EvalCtx) {
			ec.convertOut(ec.DS.DSRead(storeName(ec.Info)))
		},
		Gen: func(gc *GenCtx) error {
			name := storeName(gc.Info)
			sv := gc.Prog.DataStoreVar(name)
			gc.L("%s = %s", gc.Out[0], Cast(sv, gc.Prog.DataStoreKind(name), gc.Info.OutKind()))
			return nil
		},
	})
}

func registerDataStoreWrite() {
	register(&Spec{
		Type: "DataStoreWrite", MinIn: 1, MaxIn: 1, NumOut: 0,
		ScalarOnly: true,
		Eval: func(ec *EvalCtx) {
			ec.DS.DSWrite(storeName(ec.Info), ec.In[0])
		},
		Gen: func(gc *GenCtx) error {
			name := storeName(gc.Info)
			sv := gc.Prog.DataStoreVar(name)
			gc.L("%s = %s", sv, Cast(gc.In[0], gc.Info.InKinds[0], gc.Prog.DataStoreKind(name)))
			return nil
		},
	})
}
