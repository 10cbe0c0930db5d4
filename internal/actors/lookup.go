package actors

import (
	"fmt"

	"accmos/internal/types"
)

// Lookup actors: table interpolation and direct indexing. LookupDirect is
// the array-out-of-bounds diagnosis site.

func init() {
	registerLookup1D()
	registerLookupDirect()
}

// lut1DAux holds breakpoints and table values.
type lut1DAux struct{ bp, table []float64 }

func registerLookup1D() {
	register(&Spec{
		Type: "Lookup1D", MinIn: 1, MaxIn: 1, NumOut: 1,
		ScalarOnly: true,
		OutKind:    func(in *Info) types.Kind { return floatOrF64(in.InKinds[0]) },
		Prepare: func(in *Info) error {
			bp, err := paramF64Slice(in, "BreakPoints")
			if err != nil {
				return err
			}
			table, err := paramF64Slice(in, "Table")
			if err != nil {
				return err
			}
			if len(bp) != len(table) {
				return fmt.Errorf("Lookup1D: %d breakpoints vs %d table entries", len(bp), len(table))
			}
			if len(bp) < 2 {
				return fmt.Errorf("Lookup1D needs at least 2 breakpoints")
			}
			for i := 1; i < len(bp); i++ {
				if bp[i] <= bp[i-1] {
					return fmt.Errorf("Lookup1D breakpoints must be strictly increasing at %d", i)
				}
			}
			in.Aux = lut1DAux{bp, table}
			return nil
		},
		Eval: func(ec *EvalCtx) {
			a := ec.Info.Aux.(lut1DAux)
			x := ec.In[0].AsFloat()
			y := lookup1D(a.bp, a.table, x)
			ec.convertOutFrom(types.FloatVal(types.F64, y), ec.Info.OutKind())
		},
		Gen: func(gc *GenCtx) error {
			a := gc.Info.Aux.(lut1DAux)
			k := gc.Info.OutKind()
			bp, tb := gc.V("bp"), gc.V("tb")
			gc.Prog.Global(fmt.Sprintf("var %s = %s", bp, f64SliceLiteral(a.bp)))
			gc.Prog.Global(fmt.Sprintf("var %s = %s", tb, f64SliceLiteral(a.table)))
			x := gc.V("x")
			gc.L("%s := %s", x, CastToF64(gc.In[0], gc.Info.InKinds[0]))
			gc.L("%s = %s", gc.Out[0], Cast(fmt.Sprintf("lookup1D(%s[:], %s[:], %s)", bp, tb, x), types.F64, k))
			return nil
		},
	})
}

// lookup1D performs clamped linear interpolation; the generated runtime
// embeds a byte-identical copy (see codegen's runtime template — keep the
// two in sync).
func lookup1D(bp, table []float64, x float64) float64 {
	n := len(bp)
	if x <= bp[0] {
		return table[0]
	}
	if x >= bp[n-1] {
		return table[n-1]
	}
	lo, hi := 0, n-1
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		if bp[mid] <= x {
			lo = mid
		} else {
			hi = mid
		}
	}
	t := (x - bp[lo]) / (bp[lo+1] - bp[lo])
	return table[lo] + t*(table[lo+1]-table[lo])
}

func f64SliceLiteral(vals []float64) string {
	s := fmt.Sprintf("[%d]float64{", len(vals))
	for i, v := range vals {
		if i > 0 {
			s += ", "
		}
		s += f64Lit(v)
	}
	return s + "}"
}

// lutDirectAux holds the direct-lookup table in the output kind.
type lutDirectAux struct{ table []types.Value }

// LookupDirectTableLen exposes a LookupDirect actor's table size for the
// code generator's out-of-bounds diagnosis.
func LookupDirectTableLen(in *Info) int {
	if a, ok := in.Aux.(lutDirectAux); ok {
		return len(a.table)
	}
	return 0
}

func registerLookupDirect() {
	register(&Spec{
		Type: "LookupDirect", MinIn: 1, MaxIn: 1, NumOut: 1,
		ScalarOnly: true,
		OutKind:    func(*Info) types.Kind { return types.F64 },
		Prepare: func(in *Info) error {
			tv, err := paramValue(in, "Table", in.OutKind(), "")
			if err != nil {
				return err
			}
			if !tv.IsVector() || tv.Width() < 1 {
				return fmt.Errorf("LookupDirect Table must be a non-empty vector")
			}
			in.Aux = lutDirectAux{table: tv.Elems}
			return nil
		},
		Eval: func(ec *EvalCtx) {
			a := ec.Info.Aux.(lutDirectAux)
			iv, _ := types.Convert(ec.In[0], types.I64)
			idx := iv.I // 1-based
			n := int64(len(a.table))
			if idx < 1 {
				ec.Flags.OutOfRange = true
				idx = 1
			} else if idx > n {
				ec.Flags.OutOfRange = true
				idx = n
			}
			ec.SetOut(a.table[idx-1])
		},
		Gen: func(gc *GenCtx) error {
			a := gc.Info.Aux.(lutDirectAux)
			k := gc.Info.OutKind()
			tb := gc.V("tbl")
			lit := types.Value{Kind: k, Elems: a.table}.GoLiteral()
			gc.Prog.Global(fmt.Sprintf("var %s = %s", tb, lit))
			iv := gc.V("li")
			gc.L("%s := %s", iv, Cast(gc.In[0], gc.Info.InKinds[0], types.I64))
			gc.Block(fmt.Sprintf("if %s < 1", iv), func() {
				gc.L("%s = 1", iv)
			})
			gc.Block(fmt.Sprintf("else if %s > %d", iv, len(a.table)), func() {
				gc.L("%s = %d", iv, len(a.table))
			})
			gc.L("%s = %s[%s-1]", gc.Out[0], tb, iv)
			return nil
		},
	})
}
