package actors

import (
	"fmt"
	"strings"

	"accmos/internal/diagnose"
	"accmos/internal/types"
)

// ProgramSink is implemented by the code generator; actor templates use it
// to register program-level artifacts beyond their inline statements.
type ProgramSink interface {
	// Global registers a package-level declaration (state variables).
	Global(decl string)
	// InitStmt registers a statement run by modelInit().
	InitStmt(stmt string)
	// UpdateStmt registers an end-of-step statement (state commit), run
	// after every actor's inline code within the same step.
	UpdateStmt(stmt string)
	// Import requests an import in the generated file ("math").
	Import(pkg string)
	// ExternalInput returns the Go expression carrying the test-case value
	// for the given Inport actor.
	ExternalInput(info *Info) string
	// BindOutput routes an Outport actor's input expression to the
	// program's outputs (result hashing + monitoring).
	BindOutput(info *Info, expr string)
	// DataStoreVar returns the Go variable name of the named data store.
	DataStoreVar(name string) string
	// DataStoreKind returns the declared kind of the named data store.
	DataStoreKind(name string) types.Kind
	// DiagSlot returns the diagnosis report slot for this actor and error
	// kind, or -1 when that diagnosis is not collected. Actor templates use
	// it for checks that must live inside state-update code (integrator and
	// counter overflow).
	DiagSlot(info *Info, kind diagnose.Kind) int
}

// GenCtx is passed to Spec.Gen. The framework pre-declares the output
// variables; Gen must assign every element of every output.
type GenCtx struct {
	Info *Info

	// In holds one Go expression per input port. Width-1 inputs are scalar
	// expressions; wider inputs are [N]T array variable names.
	In []string
	// Out holds the pre-declared output variable names.
	Out []string

	// Coverage instrumentation targets. Negative bases mean the metric is
	// not collected for this actor (or coverage is off).
	CoverageOn bool
	CondBase   int
	DecBase    int
	MCDCBase   int

	Prog ProgramSink

	LineWriter
	errs []error
}

// LineWriter accumulates indented lines of generated Go code, one tab
// deeper than the function they go in.
type LineWriter struct {
	lines  []string
	indent int
}

// L emits one indented line of Go code.
func (w *LineWriter) L(format string, args ...interface{}) {
	w.lines = append(w.lines,
		strings.Repeat("\t", w.indent+1)+fmt.Sprintf(format, args...))
}

// Block emits "head {", runs fn one level deeper, then emits "}". A head
// starting with "else" fuses with the preceding block's closing brace
// ("} else ... {"), as Go's grammar requires.
func (w *LineWriter) Block(head string, fn func()) {
	ind := strings.Repeat("\t", w.indent+1)
	if strings.HasPrefix(head, "else") && len(w.lines) > 0 && w.lines[len(w.lines)-1] == ind+"}" {
		w.lines[len(w.lines)-1] = ind + "} " + head + " {"
	} else {
		w.L("%s {", head)
	}
	w.indent++
	fn()
	w.indent--
	w.L("}")
}

// Body returns the emitted code.
func (w *LineWriter) Body() string {
	if len(w.lines) == 0 {
		return ""
	}
	return strings.Join(w.lines, "\n") + "\n"
}

// Errf records a generation error surfaced after Gen returns.
func (gc *GenCtx) Errf(format string, args ...interface{}) {
	gc.errs = append(gc.errs, fmt.Errorf(format, args...))
}

// Err returns the first recorded error.
func (gc *GenCtx) Err() error {
	if len(gc.errs) > 0 {
		return gc.errs[0]
	}
	return nil
}

// V returns a per-actor unique identifier with the given suffix, for
// temporaries and state variables.
func (gc *GenCtx) V(suffix string) string {
	return fmt.Sprintf("a%d_%s", gc.Info.Index, suffix)
}

// InElem returns the element expression for input port p under loop index
// expression ix (e.g. "[i]"); scalar inputs broadcast.
func (gc *GenCtx) InElem(p int, ix string) string {
	if gc.Info.InWidths[p] > 1 {
		return gc.In[p] + ix
	}
	return gc.In[p]
}

// OutElem returns the element lvalue for output port p under index ix.
func (gc *GenCtx) OutElem(p int, ix string) string {
	if gc.Info.OutWidths[p] > 1 {
		return gc.Out[p] + ix
	}
	return gc.Out[p]
}

// ForEachOut runs fn once with ix "" for scalar output 0, or wraps fn in a
// loop over the output width with ix "[i]".
func (gc *GenCtx) ForEachOut(fn func(ix string)) {
	if gc.Info.OutWidth() <= 1 {
		fn("")
		return
	}
	gc.Block(fmt.Sprintf("for i := 0; i < %d; i++", gc.Info.OutWidth()), func() {
		fn("[i]")
	})
}

// CondCov emits a condition-coverage mark for branch index k if enabled.
func (gc *GenCtx) CondCov(k int) {
	if gc.CoverageOn && gc.CondBase >= 0 {
		gc.L("condBitmap[%d] = 1", gc.CondBase+k)
	}
}

// DecCov emits decision-coverage marks for the boolean expression held in
// variable b (records both outcomes over time).
func (gc *GenCtx) DecCov(b string) {
	if !gc.CoverageOn || gc.DecBase < 0 {
		return
	}
	gc.Block(fmt.Sprintf("if %s", b), func() {
		gc.L("decBitmap[%d] = 1", gc.DecBase)
	})
	gc.Block("else", func() {
		gc.L("decBitmap[%d] = 1", gc.DecBase+1)
	})
}

// Cast returns a Go expression converting expr from kind `from` to kind
// `to` with the exact semantics of types.Convert, so generated programs
// stay bit-identical with the interpreter. Float-to-integer conversions go
// through runtime helper functions (cvtF2I / cvtF2U) emitted in every
// generated program.
func Cast(expr string, from, to types.Kind) string {
	if from == to {
		return expr
	}
	switch {
	case to == types.Bool:
		if from == types.Bool {
			return expr
		}
		return fmt.Sprintf("(%s != 0)", expr)
	case from == types.Bool:
		return fmt.Sprintf("%s(b2i(%s))", to.GoType(), expr)
	case to.IsFloat() && from.IsFloat():
		if to == types.F32 {
			return fmt.Sprintf("float32(%s)", expr)
		}
		return fmt.Sprintf("float64(%s)", expr)
	case to.IsFloat():
		// integer -> float: always via float64 first, matching
		// Value.AsFloat followed by the float32 rounding in Convert.
		if to == types.F32 {
			return fmt.Sprintf("float32(float64(%s))", expr)
		}
		return fmt.Sprintf("float64(%s)", expr)
	case from.IsFloat():
		// float -> integer through the saturating+wrapping helper.
		if to.IsSigned() {
			return fmt.Sprintf("%s(cvtF2I(float64(%s)))", to.GoType(), expr)
		}
		return fmt.Sprintf("%s(cvtF2U(float64(%s)))", to.GoType(), expr)
	default:
		// integer <-> integer: Go conversion wraps exactly like WrapInt.
		return fmt.Sprintf("%s(%s)", to.GoType(), expr)
	}
}

// castToF64 converts expr of kind k to a float64 expression.
func castToF64(expr string, k types.Kind) string { return Cast(expr, k, types.F64) }

// goZero returns the Go zero-value literal for kind k.
func goZero(k types.Kind) string {
	if k == types.Bool {
		return "false"
	}
	return k.GoType() + "(0)"
}

// TruthExpr converts expr of kind k to a boolean Go expression
// (non-zero is true), matching Value.AsBool.
func TruthExpr(expr string, k types.Kind) string {
	if k == types.Bool {
		return expr
	}
	return fmt.Sprintf("(%s != 0)", expr)
}

// GoVarType returns the generated variable type for kind k and width w.
func GoVarType(k types.Kind, w int) string {
	if w > 1 {
		return fmt.Sprintf("[%d]%s", w, k.GoType())
	}
	return k.GoType()
}
