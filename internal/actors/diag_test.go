package actors

import (
	"slices"
	"testing"

	"accmos/internal/diagnose"
	"accmos/internal/model"
	"accmos/internal/types"
)

// infoFor compiles a tiny model around one actor and returns its info.
func infoFor(t *testing.T, typ model.ActorType, op string, inKinds []types.Kind, outKind types.Kind, params map[string]string) *Info {
	t.Helper()
	b := model.NewBuilder("D")
	opts := []model.ActorOpt{}
	if op != "" {
		opts = append(opts, model.WithOperator(op))
	}
	if outKind != types.Invalid {
		opts = append(opts, model.WithOutKind(outKind))
	}
	for k, v := range params {
		opts = append(opts, model.WithParam(k, v))
	}
	b.Add("X", typ, len(inKinds), 1, opts...)
	for i, k := range inKinds {
		src := "C" + string(rune('0'+i))
		val := "1"
		if k.IsFloat() {
			val = "1.5"
		}
		b.Add(src, "Constant", 0, 1, model.WithOutKind(k), model.WithParam("Value", val))
		b.Wire(src, "X", i)
	}
	b.Add("T", "Terminator", 1, 0)
	b.Wire("X", "T", 0)
	c, err := Compile(b.MustBuild())
	if err != nil {
		t.Fatal(err)
	}
	return c.Info("X")
}

func hasKind(ks []diagnose.Kind, k diagnose.Kind) bool { return slices.Contains(ks, k) }

func TestRulesForSum(t *testing.T) {
	intSum := infoFor(t, "Sum", "++", []types.Kind{types.I32, types.I32}, types.Invalid, nil)
	ks := intSum.DiagRules()
	if !hasKind(ks, diagnose.WrapOnOverflow) {
		t.Errorf("int Sum rules = %v, want WrapOnOverflow", ks)
	}
	if hasKind(ks, diagnose.DivisionByZero) || hasKind(ks, diagnose.NaNOrInf) {
		t.Errorf("int Sum rules = %v", ks)
	}
	floatSum := infoFor(t, "Sum", "++", []types.Kind{types.F64, types.F64}, types.Invalid, nil)
	ks = floatSum.DiagRules()
	if !hasKind(ks, diagnose.NaNOrInf) || hasKind(ks, diagnose.WrapOnOverflow) {
		t.Errorf("float Sum rules = %v", ks)
	}
	// Narrower output than inputs: the paper's downcast condition.
	narrowSum := infoFor(t, "Sum", "++", []types.Kind{types.I32, types.I32}, types.I16, nil)
	if !hasKind(narrowSum.DiagRules(), diagnose.Downcast) {
		t.Error("narrow Sum must have Downcast rule")
	}
}

func TestRulesForProductOperatorSensitivity(t *testing.T) {
	// The paper's example: a Product with "/" diagnoses division by zero,
	// the same actor with only "*" does not.
	div := infoFor(t, "Product", "*/", []types.Kind{types.I32, types.I32}, types.Invalid, nil)
	if !hasKind(div.DiagRules(), diagnose.DivisionByZero) {
		t.Error(`Product "*/" must diagnose division by zero`)
	}
	mul := infoFor(t, "Product", "**", []types.Kind{types.I32, types.I32}, types.Invalid, nil)
	if hasKind(mul.DiagRules(), diagnose.DivisionByZero) {
		t.Error(`Product "**" must not diagnose division by zero`)
	}
}

func TestRulesForMathOperators(t *testing.T) {
	log := infoFor(t, "Math", "log", []types.Kind{types.F64}, types.Invalid, nil)
	if !hasKind(log.DiagRules(), diagnose.DomainError) {
		t.Error("log must diagnose domain errors")
	}
	rec := infoFor(t, "Math", "reciprocal", []types.Kind{types.F64}, types.Invalid, nil)
	if !hasKind(rec.DiagRules(), diagnose.DivisionByZero) {
		t.Error("reciprocal must diagnose division by zero")
	}
	sin := infoFor(t, "Math", "sin", []types.Kind{types.F64}, types.Invalid, nil)
	if hasKind(sin.DiagRules(), diagnose.DomainError) {
		t.Error("sin has no domain error")
	}
}

func TestRulesForConversionAndLookup(t *testing.T) {
	dtc := infoFor(t, "DataTypeConversion", "", []types.Kind{types.F64}, types.I16, nil)
	ks := dtc.DiagRules()
	if !hasKind(ks, diagnose.Downcast) || !hasKind(ks, diagnose.OutOfRange) || !hasKind(ks, diagnose.PrecisionLoss) {
		t.Errorf("F64->I16 conversion rules = %v", ks)
	}
	widen := infoFor(t, "DataTypeConversion", "", []types.Kind{types.I16}, types.I64, nil)
	if len(widen.DiagRules()) != 0 {
		t.Errorf("widening conversion rules = %v, want none", widen.DiagRules())
	}
	ld := infoFor(t, "LookupDirect", "", []types.Kind{types.I32}, types.Invalid,
		map[string]string{"Table": "[1 2 3]"})
	if !hasKind(ld.DiagRules(), diagnose.IndexOutOfBounds) {
		t.Error("LookupDirect must diagnose index out of bounds")
	}
}

func TestRulesForAbsAndShift(t *testing.T) {
	abs := infoFor(t, "Abs", "", []types.Kind{types.I8}, types.Invalid, nil)
	if !hasKind(abs.DiagRules(), diagnose.WrapOnOverflow) {
		t.Error("signed Abs must diagnose overflow (abs(MIN))")
	}
	absU := infoFor(t, "Abs", "", []types.Kind{types.U8}, types.Invalid, nil)
	if len(absU.DiagRules()) != 0 {
		t.Error("unsigned Abs has nothing to diagnose")
	}
	shl := infoFor(t, "Shift", "left", []types.Kind{types.I32}, types.Invalid, nil)
	if !hasKind(shl.DiagRules(), diagnose.WrapOnOverflow) {
		t.Error("left Shift must diagnose overflow")
	}
	shr := infoFor(t, "Shift", "right", []types.Kind{types.I32}, types.Invalid, nil)
	if len(shr.DiagRules()) != 0 {
		t.Error("right Shift has nothing to diagnose")
	}
}
