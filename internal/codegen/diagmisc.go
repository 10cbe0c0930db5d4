package codegen

import (
	"fmt"

	"accmos/internal/actors"
	"accmos/internal/diagnose"
	"accmos/internal/types"
)

// dtcChecks emits the DataTypeConversion diagnosis: out-of-range and
// precision-loss conditions per (source, target) kind pair, mirroring
// types.Convert's flag semantics case by case.
func (g *Generator) dtcChecks(d *diagWriter, info *actors.Info, has func(diagnose.Kind) bool, outParam string) {
	from := info.InKinds[0]
	to := info.OutKind()
	w := info.OutWidth()
	d.forWidth(w, func(ix string) {
		in := elem("in0", info.InWidths[0], ix)
		out := elem(outParam, w, ix)
		switch {
		case to == types.Bool || from == types.Bool:
			// Bool conversions are always lossless in the flag sense.
		case to.IsSigned() && from.IsSigned():
			if has(diagnose.OutOfRange) {
				d.L("%s = %s || int64(%s) != int64(%s)", d.flag("oor"), "oor", out, in)
			}
		case to.IsSigned() && from.IsUnsigned():
			if has(diagnose.OutOfRange) {
				d.L("%s = %s || uint64(%s) > 9223372036854775807 || int64(%s) != int64(%s)",
					d.flag("oor"), "oor", in, out, in)
			}
		case to.IsUnsigned() && from.IsSigned():
			if has(diagnose.OutOfRange) {
				d.L("%s = %s || int64(%s) < 0 || uint64(%s) != uint64(%s)",
					d.flag("oor"), "oor", in, out, in)
			}
		case to.IsUnsigned() && from.IsUnsigned():
			if has(diagnose.OutOfRange) {
				d.L("%s = %s || uint64(%s) != uint64(%s)", d.flag("oor"), "oor", out, in)
			}
		case to.IsInteger() && from.IsFloat():
			g.Import("math")
			f := d.tmp("f")
			d.L("%s := float64(%s)", f, in)
			if has(diagnose.PrecisionLoss) {
				d.L("%s = %s || (%s != math.Trunc(%s) && !math.IsNaN(%s))", d.flag("ploss"), "ploss", f, f, f)
			}
			if has(diagnose.OutOfRange) {
				oor := d.flag("oor")
				if to.IsSigned() {
					d.block(fmt.Sprintf("if math.IsNaN(%s) || %s >= 9223372036854775807 || %s <= -9223372036854775808", f, f, f), func() {
						d.L("%s = true", oor)
					})
					d.block(fmt.Sprintf("else if int64(%s) != int64(%s)", out, f), func() {
						d.L("%s = true", oor)
					})
				} else {
					d.block(fmt.Sprintf("if math.IsNaN(%s) || %s >= 18446744073709551615 || %s < 0", f, f, f), func() {
						d.L("%s = true", oor)
					})
					d.block(fmt.Sprintf("else if uint64(%s) != uint64(%s)", out, f), func() {
						d.L("%s = true", oor)
					})
				}
			}
		case to.IsFloat() && from.IsInteger():
			// Only 64-bit integers can lose precision (rule gate).
			if has(diagnose.PrecisionLoss) {
				if from == types.I64 && to == types.F64 {
					d.L("%s = %s || int64(float64(%s)) != %s", d.flag("ploss"), "ploss", in, in)
				} else if from == types.U64 && to == types.F64 {
					d.L("%s = %s || uint64(float64(%s)) != %s", d.flag("ploss"), "ploss", in, in)
				} else if to == types.F32 {
					f := d.tmp("f")
					d.L("%s := float64(%s)", f, in)
					d.L("%s = %s || float64(float32(%s)) != %s", d.flag("ploss"), "ploss", f, f)
				}
			}
		case to == types.F32 && from == types.F64:
			// Narrowing float: interp flags PrecisionLoss only, which the
			// DataTypeConversion rule set does not include for this pair,
			// so there is nothing to report.
		}
	})
}

// miscChecks covers DotProduct, the element reducers, and DeadZone.
func (g *Generator) miscChecks(d *diagWriter, info *actors.Info,
	castElem func(int, string) string, nanCheck func(string)) {
	k := info.OutKind()
	switch info.Actor.Type {
	case "DotProduct":
		if !k.IsInteger() && !k.IsFloat() {
			return
		}
		width := info.InWidths[0]
		if info.InWidths[1] > width {
			width = info.InWidths[1]
		}
		acc := d.tmp("acc")
		d.L("var %s %s", acc, k.GoType())
		wrap := func(fn func(ix string)) {
			if width <= 1 {
				fn("")
			} else {
				d.block(fmt.Sprintf("for i := 0; i < %d; i++", width), func() { fn("[i]") })
			}
		}
		wrap(func(ix string) {
			p := d.tmp("p")
			n := d.tmp("n")
			d.L("var %s %s", p, k.GoType())
			d.L("var %s %s", n, k.GoType())
			if k.IsInteger() {
				d.Ls(actors.CheckedMulStmts(k, p, castElem(0, ix), castElem(1, ix), d.flag("ovf"), d.tmp("m")))
				d.Ls(actors.CheckedAddStmts(k, n, acc, p, d.flag("ovf")))
			} else {
				d.L("%s = %s", p, binE(k, castElem(0, ix), "*", castElem(1, ix)))
				nanCheck(p)
				d.L("%s = %s", n, binE(k, acc, "+", p))
				nanCheck(n)
			}
			d.L("%s = %s", acc, n)
		})
		d.L("_ = %s", acc)

	case "SumOfElements", "ProductOfElements":
		if !k.IsInteger() && !k.IsFloat() {
			return
		}
		width := info.InWidths[0]
		isSum := info.Actor.Type == "SumOfElements"
		acc := d.tmp("acc")
		if isSum {
			d.L("var %s %s", acc, k.GoType())
		} else {
			d.L("%s := %s", acc, oneLit(k))
		}
		wrap := func(fn func(ix string)) {
			if width <= 1 {
				fn("")
			} else {
				d.block(fmt.Sprintf("for i := 0; i < %d; i++", width), func() { fn("[i]") })
			}
		}
		wrap(func(ix string) {
			n := d.tmp("n")
			d.L("var %s %s", n, k.GoType())
			if k.IsInteger() {
				if isSum {
					d.Ls(actors.CheckedAddStmts(k, n, acc, castElem(0, ix), d.flag("ovf")))
				} else {
					d.Ls(actors.CheckedMulStmts(k, n, acc, castElem(0, ix), d.flag("ovf"), d.tmp("m")))
				}
			} else {
				op := "+"
				if !isSum {
					op = "*"
				}
				d.L("%s = %s", n, binE(k, acc, op, castElem(0, ix)))
				nanCheck(n)
			}
			d.L("%s = %s", acc, n)
		})
		d.L("_ = %s", acc)

	case "DeadZone":
		if !k.IsInteger() {
			return
		}
		start, end, ok := actors.DeadZoneBounds(info)
		if !ok {
			return
		}
		t := d.tmp("t")
		d.L("%s := %s", t, castElem(0, ""))
		d.block(fmt.Sprintf("if %s < %s", t, start.GoLiteral()), func() {
			r := d.tmp("r")
			d.L("var %s %s", r, k.GoType())
			d.Ls(actors.CheckedSubStmts(k, r, t, start.GoLiteral(), d.flag("ovf")))
			d.L("_ = %s", r)
		})
		d.block(fmt.Sprintf("else if %s > %s", t, end.GoLiteral()), func() {
			r := d.tmp("r")
			d.L("var %s %s", r, k.GoType())
			d.Ls(actors.CheckedSubStmts(k, r, t, end.GoLiteral(), d.flag("ovf")))
			d.L("_ = %s", r)
		})
	}
}
