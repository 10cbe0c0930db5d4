package accmos

import (
	"path/filepath"
	"reflect"
	"testing"

	"accmos/internal/benchmodels"
	"accmos/internal/codegen"
	"accmos/internal/diagnose"
	"accmos/internal/model"
	"accmos/internal/opt"
	"accmos/internal/simresult"
	"accmos/internal/testcase"
	"accmos/internal/types"
)

// frontDerived lists the generator and optimizer option fields the
// front-end memo does not key: the tracer, and what the front end itself
// derives from keyed inputs.
var frontDerived = map[string]bool{"Trace": true, "Layout": true, "Premark": true, "Plan": true}

// flip sets v to a non-zero value of its type.
func flip(t *testing.T, name string, v reflect.Value) {
	t.Helper()
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(1)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(1)
	case reflect.Float32, reflect.Float64:
		v.SetFloat(1)
	case reflect.String:
		v.SetString("x")
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 1, 1))
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
	case reflect.Func:
		v.Set(reflect.MakeFunc(v.Type(), func([]reflect.Value) []reflect.Value { return nil }))
	default:
		t.Fatalf("field %s: no flip for kind %s", name, v.Kind())
	}
}

// forEachField flips each exported field of a fresh zero struct in turn
// and reports whether the digest moved.
func forEachField(t *testing.T, typ reflect.Type, digest func(s reflect.Value) [32]byte, check func(name string, moved bool)) {
	t.Helper()
	zero := digest(reflect.New(typ).Elem())
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		if !f.IsExported() {
			continue
		}
		s := reflect.New(typ).Elem()
		flip(t, typ.Name()+"."+f.Name, s.Field(i))
		check(typ.Name()+"."+f.Name, digest(s) != zero)
	}
}

// Every option field that reaches the optimizer or the code generator is
// keyed or listed as derived, and flipping a keyed field moves the
// digest: a new field that is neither fails here instead of letting two
// different programs share one memo record.
func TestFrontDigestKeysEveryOption(t *testing.T) {
	fp := [32]byte{1}
	keyed := func(name string, moved bool) {
		field := name[len("Options."):]
		switch {
		case frontDerived[field] && moved:
			t.Errorf("%s is listed as derived but moves the digest", name)
		case !frontDerived[field] && !moved:
			t.Errorf("%s is neither keyed nor listed as derived", name)
		}
	}
	forEachField(t, reflect.TypeOf(opt.Options{}), func(s reflect.Value) [32]byte {
		oo := s.Interface().(opt.Options)
		return inputDigest(fp, &oo, &codegen.Options{})
	}, keyed)
	forEachField(t, reflect.TypeOf(codegen.Options{}), func(s reflect.Value) [32]byte {
		co := s.Interface().(codegen.Options)
		return inputDigest(fp, &opt.Options{}, &co)
	}, keyed)

	// The contents of keyed fields are keyed too.
	mustMove := func(name string, moved bool) {
		if !moved {
			t.Errorf("%s does not move the digest", name)
		}
	}
	forEachField(t, reflect.TypeOf(testcase.Source{}), func(s reflect.Value) [32]byte {
		co := codegen.Options{TestCases: &testcase.Set{Sources: []testcase.Source{s.Interface().(testcase.Source)}}}
		return inputDigest(fp, &opt.Options{}, &co)
	}, mustMove)
	forEachField(t, reflect.TypeOf(diagnose.CustomCheck{}), func(s reflect.Value) [32]byte {
		co := codegen.Options{Custom: []diagnose.CustomCheck{s.Interface().(diagnose.CustomCheck)}}
		return inputDigest(fp, &opt.Options{}, &co)
	}, func(name string, moved bool) {
		// Generated code rejects CallbackCheck, so the callback is not keyed.
		if name != "CustomCheck.Callback" {
			mustMove(name, moved)
		}
	})

	if inputDigest(fp, &opt.Options{}, &codegen.Options{}) == inputDigest([32]byte{2}, &opt.Options{}, &codegen.Options{}) {
		t.Error("the model fingerprint does not move the digest")
	}
}

// For the Table-1 models in every benchmark configuration, a repeat
// Simulate is a front-end memo hit whose artifact is the program a fresh
// front end generates, and whose results equal the first run's.
func TestFrontMemoHitMatchesProgramHash(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles 120 generated programs")
	}
	for _, name := range benchmodels.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			m, err := LoadModel(filepath.Join("models", name+".xml"))
			if err != nil {
				t.Fatal(err)
			}
			cache := NewBuildCache(t.TempDir())
			for _, diag := range []bool{false, true} {
				for _, level := range []OptLevel{OptO0, OptO1, OptO2} {
					for _, seed := range []uint64{11, 12} {
						opts := Options{
							Steps: 200, Coverage: true, Diagnose: diag, OptLevel: level,
							TestCases: RandomTestCases(m, seed, -1, 1), Cache: cache,
						}
						first, err := Simulate(m, opts)
						if err != nil {
							t.Fatal(err)
						}
						before := cache.Stats().FrontHits
						again, err := Simulate(m, opts)
						if err != nil {
							t.Fatal(err)
						}
						if cache.Stats().FrontHits != before+1 || !again.CacheHit {
							t.Fatalf("diag=%v %v seed %d: repeat was not a front-end memo hit", diag, level, seed)
						}
						want, err := ProgramHash(m, opts)
						if err != nil {
							t.Fatal(err)
						}
						if first.ArtifactHash != want || again.ArtifactHash != want {
							t.Fatalf("diag=%v %v seed %d: artifacts %s/%s, fresh front end %s",
								diag, level, seed, first.ArtifactHash, again.ArtifactHash, want)
						}
						if d := simresult.Diff(again.Results, first.Results); d != "" {
							t.Fatalf("diag=%v %v seed %d: hit vs miss: %s", diag, level, seed, d)
						}
						if again.CoverageReport() != first.CoverageReport() || !reflect.DeepEqual(again.Opt, first.Opt) {
							t.Fatalf("diag=%v %v seed %d: hit reports coverage %+v opt %+v, miss %+v %+v", diag, level, seed,
								again.CoverageReport(), again.Opt, first.CoverageReport(), first.Opt)
						}
					}
				}
			}
		})
	}
}

// An edit to a loaded model moves its fingerprint: the next Simulate
// regenerates, and the regenerated program agrees with the interpreter.
func TestFrontMemoRegeneratesAfterSetParam(t *testing.T) {
	m := model.NewBuilder("EDIT").
		Add("In", "Inport", 0, 1, model.WithOutKind(types.F64), model.WithParam("Port", "1")).
		Add("G", "Gain", 1, 1, model.WithParam("Gain", "2")).
		Add("Out", "Outport", 1, 0, model.WithParam("Port", "1")).
		Chain("In", "G", "Out").
		MustBuild()
	cache := NewBuildCache(t.TempDir())
	opts := Options{Steps: 300, Coverage: true, TestCases: RandomTestCases(m, 5, -4, 4), Cache: cache}
	first, err := Simulate(m, opts)
	if err != nil {
		t.Fatal(err)
	}
	m.Actor("G").SetParam("Gain", "3")
	before := cache.Stats()
	tr := NewTracer()
	opts.Trace = tr
	edited, err := Simulate(m, opts)
	if err != nil {
		t.Fatal(err)
	}
	if st := cache.Stats(); st.FrontMisses != before.FrontMisses+1 || edited.CacheHit {
		t.Fatalf("edited model served from the memo (stats %+v, cache hit %v)", st, edited.CacheHit)
	}
	if sp := tr.Trace().Find("frontend"); len(sp) != 1 || sp[0].Attrs["memo"] != "miss" || len(tr.Trace().Find("generate")) != 1 {
		t.Fatalf("edited model's trace does not show a regenerating front end:\n%s", tr.Summary())
	}
	if edited.ArtifactHash == first.ArtifactHash || edited.OutputHash == first.OutputHash {
		t.Fatal("edited model ran the unedited program")
	}
	opts.Trace = nil
	ref, err := Interpret(m, opts)
	if err != nil {
		t.Fatal(err)
	}
	if d := simresult.Diff(edited.Results, ref.Results); d != "" {
		t.Fatalf("regenerated program vs interpreter: %s", d)
	}
}

// A hit replaces the schedule/optimize/instrument/generate spans with one
// frontend span marked memo=hit.
func TestFrontMemoHitTrace(t *testing.T) {
	m := model.NewBuilder("TRACE").
		Add("In", "Inport", 0, 1, model.WithOutKind(types.F64), model.WithParam("Port", "1")).
		Add("G", "Gain", 1, 1, model.WithParam("Gain", "2")).
		Add("Out", "Outport", 1, 0, model.WithParam("Port", "1")).
		Chain("In", "G", "Out").
		MustBuild()
	opts := Options{Steps: 100, Cache: NewBuildCache(t.TempDir())}
	if _, err := Simulate(m, opts); err != nil {
		t.Fatal(err)
	}
	tr := NewTracer()
	opts.Trace = tr
	if _, err := Simulate(m, opts); err != nil {
		t.Fatal(err)
	}
	trace := tr.Trace()
	if sp := trace.Find("frontend"); len(sp) != 1 || sp[0].Attrs["memo"] != "hit" {
		t.Fatalf("no frontend span with memo=hit:\n%s", tr.Summary())
	}
	for _, phase := range []string{"schedule", "optimize", "instrument", "generate"} {
		if n := len(trace.Find(phase)); n != 0 {
			t.Errorf("memo hit recorded %d %q spans", n, phase)
		}
	}
	for _, phase := range []string{"compile", "run"} {
		if n := len(trace.Find(phase)); n != 1 {
			t.Errorf("memo hit recorded %d %q spans, want 1", n, phase)
		}
	}
}
