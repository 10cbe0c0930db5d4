package codegen_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"accmos/internal/actors"
	"accmos/internal/benchmodels"
	"accmos/internal/codegen"
	"accmos/internal/model"
	"accmos/internal/opt"
	"accmos/internal/testcase"
	"accmos/internal/types"
)

// diagnosableTypes are the actor types with calculation diagnosis rules.
var diagnosableTypes = []model.ActorType{
	"Abs", "Bias", "Counter", "DataTypeConversion", "DeadZone", "DiscreteIntegrator",
	"DotProduct", "Gain", "LookupDirect", "Math", "Mod", "MultiportSwitch",
	"Polynomial", "Product", "ProductOfElements", "Rounding", "Selector", "Shift",
	"Sqrt", "Sum", "SumOfElements", "UnaryMinus",
}

// diagFamilyModel holds every diagnosable actor type, with integer,
// float64 and float32 outputs and vector widths where the type accepts
// them, plus a downcast instance, so one generated program exercises each
// type's check emitter along every path it takes.
func diagFamilyModel() *model.Model {
	b := model.NewBuilder("DiagFamily")
	port := 0
	in := func(name string, k types.Kind) {
		port++
		b.Add(name, "Inport", 0, 1, model.WithOutKind(k), model.WithParam("Port", strconv.Itoa(port)))
	}
	in("Ii", types.I32)
	in("If", types.F64)
	in("Ig", types.F32)
	in("Il", types.I64)
	in("Iu", types.U32)
	in("Iw", types.U64)
	b.Add("Vi", "Mux", 3, 1).Wire("Ii", "Vi", 0).Wire("Ii", "Vi", 1).Wire("Ii", "Vi", 2)
	b.Add("Vf", "Mux", 2, 1).Wire("If", "Vf", 0).Wire("If", "Vf", 1)
	b.Add("Vg", "Mux", 2, 1).Wire("Ig", "Vg", 0).Wire("Ig", "Vg", 1)

	s := &sinkCounter{}
	add := func(name string, t model.ActorType, srcs []string, opts ...model.ActorOpt) {
		b.Add(name, t, len(srcs), 1, opts...)
		for p, src := range srcs {
			b.Wire(src, name, p)
		}
		s.out(b, name, 0)
	}
	op := model.WithOperator
	par := model.WithParam
	kind := model.WithOutKind

	add("SumI", "Sum", []string{"Ii", "Ii", "Ii"}, op("++-"))
	add("SumNeg", "Sum", []string{"Ii", "Ii"}, op("-+"))
	add("SumF", "Sum", []string{"If", "If"}, op("+-"))
	add("SumFV", "Sum", []string{"Vf", "If"}, op("-+"))
	add("SumG1", "Sum", []string{"Ig"}, op("+"))
	add("SumDc", "Sum", []string{"Ii", "Ii"}, op("++"), kind(types.I16))
	add("BiasI", "Bias", []string{"Ii"}, par("Bias", "5"))
	add("BiasGV", "Bias", []string{"Vg"}, par("Bias", "-1.5"))
	add("ProdI", "Product", []string{"Ii", "Ii"}, op("*/"))
	add("ProdID", "Product", []string{"Ii", "Ii"}, op("/*"))
	add("ProdU", "Product", []string{"Iu", "Iu"}, op("*/"))
	add("ProdF", "Product", []string{"If", "If"}, op("**"))
	add("ProdG", "Product", []string{"Ig", "Ig"}, op("/*"))
	add("ProdV", "Product", []string{"Vi", "Ii"}, op("**"))
	add("GainI", "Gain", []string{"Ii"}, par("Gain", "3"))
	add("GainL", "Gain", []string{"Il"}, par("Gain", "7"))
	add("GainFV", "Gain", []string{"Vf"}, par("Gain", "2.5"))
	add("DiI", "DiscreteIntegrator", []string{"Ii"}, par("Gain", "3"))
	add("DiF", "DiscreteIntegrator", []string{"If"}, par("Gain", "0.01"))
	add("CtI", "Counter", nil, par("Start", "10"), par("Inc", "3"))
	add("CtF", "Counter", nil, kind(types.F64), par("Start", "0.5"), par("Inc", "0.25"))
	add("AbsI", "Abs", []string{"Ii"})
	add("AbsV", "Abs", []string{"Vi"})
	add("UmI", "UnaryMinus", []string{"Ii"})
	add("UmF", "UnaryMinus", []string{"If"})
	add("Log", "Math", []string{"If"}, op("log"))
	add("AsinV", "Math", []string{"Vf"}, op("asin"))
	add("Rec", "Math", []string{"Ig"}, op("reciprocal"))
	add("Tanh", "Math", []string{"If"}, op("tanh"))
	add("ExpI", "Math", []string{"Ii"}, op("exp"))
	add("Sq", "Sqrt", []string{"If"})
	add("SqV", "Sqrt", []string{"Vg"})
	add("RndV", "Rounding", []string{"Vf"}, op("floor"))
	add("Rnd", "Rounding", []string{"Ig"}, op("round"))
	add("ModI", "Mod", []string{"Ii", "Ii"})
	add("ModF", "Mod", []string{"If", "If"})
	add("DtcF2I", "DataTypeConversion", []string{"If"}, kind(types.I16))
	add("DtcF2U", "DataTypeConversion", []string{"If"}, kind(types.U8))
	add("DtcI2I", "DataTypeConversion", []string{"Ii"}, kind(types.I8))
	add("DtcU2I", "DataTypeConversion", []string{"Iu"}, kind(types.I16))
	add("DtcI2U", "DataTypeConversion", []string{"Ii"}, kind(types.U16))
	add("DtcU2U", "DataTypeConversion", []string{"Iw"}, kind(types.U8))
	add("DtcL2F", "DataTypeConversion", []string{"Il"}, kind(types.F64))
	add("DtcW2F", "DataTypeConversion", []string{"Iw"}, kind(types.F64))
	add("DtcL2G", "DataTypeConversion", []string{"Il"}, kind(types.F32))
	add("DtcF2G", "DataTypeConversion", []string{"If"}, kind(types.F32))
	add("DtcI2B", "DataTypeConversion", []string{"Ii"}, kind(types.Bool))
	add("DtcV", "DataTypeConversion", []string{"Vf"}, kind(types.I32))
	add("ShL", "Shift", []string{"Ii"}, op("left"), par("Bits", "3"))
	add("ShR", "Shift", []string{"Ii"}, op("right"), par("Bits", "2"))
	add("Ld", "LookupDirect", []string{"Ii"}, par("Table", "[10 20 30 40]"))
	add("Mps", "MultiportSwitch", []string{"Ii", "If", "If"})
	add("SelD", "Selector", []string{"Vf", "Ii"})
	add("SelS", "Selector", []string{"Vf"}, par("Indices", "[2]"))
	add("Poly", "Polynomial", []string{"If"}, par("Coeffs", "[1.5 -2 0.5]"))
	add("PolyG", "Polynomial", []string{"Ig"}, par("Coeffs", "[1 0]"))
	add("DzI", "DeadZone", []string{"Ii"}, par("Start", "-5"), par("End", "5"))
	add("DzF", "DeadZone", []string{"If"})
	add("DpI", "DotProduct", []string{"Vi", "Vi"})
	add("DpF", "DotProduct", []string{"Vf", "Vf"})
	add("DpS", "DotProduct", []string{"Ii", "Ii"})
	add("SoeI", "SumOfElements", []string{"Vi"})
	add("SoeG", "SumOfElements", []string{"Vg"})
	add("PoeI", "ProductOfElements", []string{"Vi"})
	add("PoeG", "ProductOfElements", []string{"Vg"})
	return b.MustBuild()
}

// TestGeneratedSourceGolden pins the SHA-256 of whole generated programs
// against testdata/generated_source.sha256: the ten Table-1 models at O0,
// O1 and O2 with diagnosis off and on, and the diagnosis family model at
// O0 and O1 with diagnosis on, all with coverage on and stimulus seed
// 201. A refactor of the front end or of an actor's templates must leave
// every digest unchanged; a deliberate emission change regenerates them
// with UPDATE_GOLDEN=1.
func TestGeneratedSourceGolden(t *testing.T) {
	type program struct {
		model *model.Model
		level opt.Level
		diag  bool
	}
	var progs []program
	for _, name := range benchmodels.Names() {
		m := benchmodels.MustBuild(name)
		for _, lvl := range []opt.Level{opt.O0, opt.O1, opt.O2} {
			for _, diag := range []bool{false, true} {
				progs = append(progs, program{m, lvl, diag})
			}
		}
	}
	family := diagFamilyModel()
	checkFamilyCoverage(t, family)
	progs = append(progs, program{family, opt.O0, true}, program{family, opt.O1, true})

	var got strings.Builder
	digests := map[string]string{}
	for _, p := range progs {
		label := fmt.Sprintf("%s %s diagnose=%t", p.model.Name, p.level, p.diag)
		c, err := actors.Compile(p.model)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		or, err := opt.Optimize(c, opt.Options{Level: p.level, Coverage: true, Diagnose: p.diag})
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		prog, err := codegen.Generate(or.Compiled, codegen.Options{
			Coverage: true, Diagnose: p.diag,
			TestCases: testcase.NewRandomSet(len(c.Inports), 201, -1, 1),
			Layout:    or.Layout, Premark: or.Premark, Opt: p.level.String(), Plan: or.Plan,
		})
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		sum := sha256.Sum256([]byte(prog.Source))
		digests[label] = hex.EncodeToString(sum[:])
		fmt.Fprintf(&got, "%s %s\n", label, digests[label])
	}

	golden := filepath.Join("testdata", "generated_source.sha256")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(golden, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("regenerated %s", golden)
		return
	}
	data, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden (run with UPDATE_GOLDEN=1 to create): %v", err)
	}
	want := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		i := strings.LastIndexByte(line, ' ')
		want[line[:i]] = line[i+1:]
	}
	for _, p := range progs {
		label := fmt.Sprintf("%s %s diagnose=%t", p.model.Name, p.level, p.diag)
		if w, ok := want[label]; !ok {
			t.Errorf("%s: no digest in %s", label, golden)
		} else if digests[label] != w {
			t.Errorf("%s: generated source drifted (sha256 %s, golden %s)", label, digests[label], w)
		}
	}
	if len(want) != len(progs) {
		t.Errorf("%s holds %d digests, want %d", golden, len(want), len(progs))
	}
}

// checkFamilyCoverage fails the test unless diagnosableTypes lists every
// registered type with diagnosis rules, and the family model holds each
// with at least one instance that gets a diagnosis slot.
func checkFamilyCoverage(t *testing.T, m *model.Model) {
	t.Helper()
	for _, typ := range actors.Types() {
		spec, _ := actors.Lookup(model.ActorType(typ))
		if listed := slices.Contains(diagnosableTypes, spec.Type); listed != (spec.DiagRules != nil) {
			t.Errorf("%s: listed in diagnosableTypes %t, has DiagRules %t", typ, listed, spec.DiagRules != nil)
		}
	}
	c, err := actors.Compile(m)
	if err != nil {
		t.Fatal(err)
	}
	or, err := opt.Optimize(c, opt.Options{Level: opt.O0, Diagnose: true})
	if err != nil {
		t.Fatal(err)
	}
	prog, err := codegen.Generate(or.Compiled, codegen.Options{
		Diagnose: true, TestCases: testcase.NewRandomSet(len(c.Inports), 201, -1, 1),
		Layout: or.Layout, Premark: or.Premark, Opt: "O0",
	})
	if err != nil {
		t.Fatal(err)
	}
	start := strings.Index(prog.Source, "\nvar diagActors = ")
	table := prog.Source[start : start+strings.Index(prog.Source[start+1:], "\n")+1]
	for _, typ := range diagnosableTypes {
		found := false
		for _, info := range c.Order {
			if info.Actor.Type == typ && strings.Contains(table, strconv.Quote(info.Path)) {
				found = true
			}
		}
		if !found {
			t.Errorf("the family model has no %s instance with a diagnosis slot", typ)
		}
	}
}
