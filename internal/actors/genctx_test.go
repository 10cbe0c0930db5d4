package actors

import (
	"strings"
	"testing"

	"accmos/internal/types"
)

func TestCastEmission(t *testing.T) {
	cases := []struct {
		from, to types.Kind
		want     string
	}{
		{types.F64, types.F64, "x"},
		{types.I32, types.I64, "int64(x)"},
		{types.I64, types.I8, "int8(x)"},
		{types.U32, types.I32, "int32(x)"},
		{types.I32, types.F64, "float64(x)"},
		{types.I32, types.F32, "float32(float64(x))"}, // double-rounded like Convert
		{types.F64, types.F32, "float32(x)"},
		{types.F32, types.F64, "float64(x)"},
		{types.F64, types.I32, "int32(cvtF2I(float64(x)))"},
		{types.F32, types.U16, "uint16(cvtF2U(float64(x)))"},
		{types.I32, types.Bool, "(x != 0)"},
		{types.Bool, types.I32, "int32(b2i(x))"},
		{types.Bool, types.Bool, "x"},
	}
	for _, c := range cases {
		if got := Cast("x", c.from, c.to); got != c.want {
			t.Errorf("Cast(x, %v, %v) = %q, want %q", c.from, c.to, got, c.want)
		}
	}
}

func TestTruthExprAndZero(t *testing.T) {
	if got := TruthExpr("b", types.Bool); got != "b" {
		t.Errorf("TruthExpr bool = %q", got)
	}
	if got := TruthExpr("v", types.F64); got != "(v != 0)" {
		t.Errorf("TruthExpr f64 = %q", got)
	}
	if got := goZero(types.Bool); got != "false" {
		t.Errorf("goZero bool = %q", got)
	}
	if got := goZero(types.I16); got != "int16(0)" {
		t.Errorf("goZero i16 = %q", got)
	}
	if got := GoVarType(types.F32, 1); got != "float32" {
		t.Errorf("GoVarType scalar = %q", got)
	}
	if got := GoVarType(types.I8, 4); got != "[4]int8" {
		t.Errorf("GoVarType vector = %q", got)
	}
}

func TestGenCtxBlockElseFusion(t *testing.T) {
	gc := &GenCtx{}
	gc.Block("if x > 0", func() { gc.L("a()") })
	gc.Block("else if x < 0", func() { gc.L("b()") })
	gc.Block("else", func() { gc.L("c()") })
	body := gc.Body()
	if strings.Contains(body, "}\n\telse") {
		t.Errorf("else not fused with closing brace:\n%s", body)
	}
	for _, want := range []string{"} else if x < 0 {", "} else {"} {
		if !strings.Contains(body, want) {
			t.Errorf("missing %q in:\n%s", want, body)
		}
	}
}

func TestGenCtxErrf(t *testing.T) {
	gc := &GenCtx{}
	if gc.Err() != nil {
		t.Error("fresh ctx has no error")
	}
	gc.Errf("boom %d", 7)
	gc.Errf("second")
	if gc.Err() == nil || !strings.Contains(gc.Err().Error(), "boom 7") {
		t.Errorf("Err() = %v", gc.Err())
	}
}

func TestCheckedStmtsShapes(t *testing.T) {
	add := checkedAddStmts(types.I32, "r", "a", "b", "ovf")
	if len(add) != 2 || !strings.Contains(add[1], "^") {
		t.Errorf("signed add stmts = %v", add)
	}
	addU := checkedAddStmts(types.U16, "r", "a", "b", "ovf")
	if !strings.Contains(addU[1], "r < a") {
		t.Errorf("unsigned add carry check = %v", addU)
	}
	addF := checkedAddStmts(types.F64, "r", "a", "b", "ovf")
	if len(addF) != 1 {
		t.Errorf("float add needs no check: %v", addF)
	}
	mul := checkedMulStmts(types.I16, "r", "a", "b", "ovf", "t")
	if len(mul) != 3 || !strings.Contains(mul[0], "int64(a) * int64(b)") {
		t.Errorf("i16 mul widening = %v", mul)
	}
	mul64 := checkedMulStmts(types.I64, "r", "a", "b", "ovf", "t")
	if !strings.Contains(mul64[1], "r/a != b") {
		t.Errorf("i64 mul division check = %v", mul64)
	}
	div := checkedDivStmts(types.I8, "r", "a", "b", "dbz", "ovf")
	if !strings.Contains(div[0], "== -128") {
		t.Errorf("i8 div MIN/-1 check = %v", div)
	}
	divF := checkedDivStmts(types.F32, "r", "a", "b", "dbz", "")
	if !strings.Contains(divF[0], "dbz = true") {
		t.Errorf("float div zero flag = %v", divF)
	}
}
