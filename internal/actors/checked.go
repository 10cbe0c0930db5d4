package actors

import (
	"fmt"

	"accmos/internal/types"
)

// Checked-arithmetic emission helpers. These produce Go statements that
// compute an operation in kind k while updating an overflow (or
// division-by-zero) boolean variable, with detection conditions exactly
// matching the flags types.Add/Sub/Mul/Div raise — so generated diagnosis
// functions and the interpreter report identical findings. They are shared
// by the code generator's diagnosis-function emitter and by the actor
// templates whose checks must live inside state-update code.

// CheckedAddStmts emits `res = a + b` in kind k, or-ing overflow into
// ovfVar. res must be a declared variable of kind k; a and b must be
// side-effect-free expressions of kind k.
func CheckedAddStmts(k types.Kind, res, a, b, ovfVar string) []string {
	switch {
	case k.IsSigned():
		return []string{
			fmt.Sprintf("%s = %s + %s", res, a, b),
			fmt.Sprintf("%s = %s || ((%s^%s)&(%s^%s)) < 0", ovfVar, ovfVar, a, res, b, res),
		}
	case k.IsUnsigned():
		return []string{
			fmt.Sprintf("%s = %s + %s", res, a, b),
			fmt.Sprintf("%s = %s || %s < %s", ovfVar, ovfVar, res, a),
		}
	case k == types.Bool:
		return []string{fmt.Sprintf("%s = %s != %s", res, a, b)}
	default:
		return []string{fmt.Sprintf("%s = %s", res, binExpr(k, a, "+", b))}
	}
}

// CheckedSubStmts emits `res = a - b` in kind k with overflow detection.
func CheckedSubStmts(k types.Kind, res, a, b, ovfVar string) []string {
	switch {
	case k.IsSigned():
		return []string{
			fmt.Sprintf("%s = %s - %s", res, a, b),
			fmt.Sprintf("%s = %s || ((%s^%s)&(%s^%s)) < 0", ovfVar, ovfVar, a, b, a, res),
		}
	case k.IsUnsigned():
		return []string{
			fmt.Sprintf("%s = %s - %s", res, a, b),
			fmt.Sprintf("%s = %s || %s > %s", ovfVar, ovfVar, b, a),
		}
	case k == types.Bool:
		return []string{fmt.Sprintf("%s = %s != %s", res, a, b)}
	default:
		return []string{fmt.Sprintf("%s = %s", res, binExpr(k, a, "-", b))}
	}
}

// CheckedMulStmts emits `res = a * b` in kind k with overflow detection.
// tmp is a unique prefix for scratch variables.
func CheckedMulStmts(k types.Kind, res, a, b, ovfVar, tmp string) []string {
	switch k {
	case types.I8, types.I16, types.I32:
		w := tmp + "w"
		return []string{
			fmt.Sprintf("%s := int64(%s) * int64(%s)", w, a, b),
			fmt.Sprintf("%s = %s || int64(%s(%s)) != %s", ovfVar, ovfVar, k.GoType(), w, w),
			fmt.Sprintf("%s = %s(%s)", res, k.GoType(), w),
		}
	case types.I64:
		return []string{
			fmt.Sprintf("%s = %s * %s", res, a, b),
			fmt.Sprintf("%s = %s || (%s != 0 && %s != 0 && %s/%s != %s)", ovfVar, ovfVar, a, b, res, a, b),
		}
	case types.U8, types.U16, types.U32:
		w := tmp + "w"
		return []string{
			fmt.Sprintf("%s := uint64(%s) * uint64(%s)", w, a, b),
			fmt.Sprintf("%s = %s || uint64(%s(%s)) != %s", ovfVar, ovfVar, k.GoType(), w, w),
			fmt.Sprintf("%s = %s(%s)", res, k.GoType(), w),
		}
	case types.U64:
		return []string{
			fmt.Sprintf("%s = %s * %s", res, a, b),
			fmt.Sprintf("%s = %s || (%s != 0 && %s != 0 && %s/%s != %s)", ovfVar, ovfVar, a, b, res, a, b),
		}
	case types.Bool:
		return []string{fmt.Sprintf("%s = %s && %s", res, a, b)}
	default:
		return []string{fmt.Sprintf("%s = %s", res, binExpr(k, a, "*", b))}
	}
}

// CheckedDivStmts emits `res = a / b` in kind k, or-ing division-by-zero
// into dbzVar and overflow (signed MIN / -1) into ovfVar. Float kinds get
// the IEEE result with the zero divisor flagged.
func CheckedDivStmts(k types.Kind, res, a, b, dbzVar, ovfVar string) []string {
	switch {
	case k.IsSigned():
		return []string{
			fmt.Sprintf("if %s == 0 { %s = true; %s = 0 } else { if %s == %d && %s == -1 { %s = true }; %s = %s / %s }",
				b, dbzVar, res, a, k.MinInt(), b, ovfVar, res, a, b),
		}
	case k.IsUnsigned():
		return []string{
			fmt.Sprintf("if %s == 0 { %s = true; %s = 0 } else { %s = %s / %s }", b, dbzVar, res, res, a, b),
		}
	case k == types.Bool:
		return []string{
			fmt.Sprintf("if !%s { %s = true; %s = false } else { %s = %s }", b, dbzVar, res, res, a),
		}
	default:
		return []string{
			fmt.Sprintf("if %s == 0 { %s = true }", b, dbzVar),
			fmt.Sprintf("%s = %s", res, binExpr(k, a, "/", b)),
		}
	}
}

// joinStmts joins statements with semicolons for single-line block bodies.
func joinStmts(stmts []string) string {
	out := ""
	for i, s := range stmts {
		if i > 0 {
			out += "; "
		}
		out += s
	}
	return out
}

// NaNOrInfCond returns the Go condition evidencing a NaN/Inf result for a
// float expression: x-x is NaN exactly when x is NaN or ±Inf, and 0
// otherwise, in either float width.
func NaNOrInfCond(expr string) string {
	return fmt.Sprintf("(%s-%s != 0)", expr, expr)
}
