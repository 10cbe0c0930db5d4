package accmos

import (
	"crypto/sha256"
	"encoding/binary"
	"math"

	"accmos/internal/codegen"
	"accmos/internal/diagnose"
	"accmos/internal/opt"
	"accmos/internal/testcase"
)

// inputDigest keys the build cache's front-end memo: a SHA-256 over the
// model's structural fingerprint and every option that reaches the
// optimizer and the code generator, test cases included. Equal digests
// mean the front end would generate the same program, so a repeat call
// can reuse the remembered program hash instead of regenerating it.
//
// Fields the front end derives (Layout, Premark, Plan) and the tracer
// are not keyed. TestFrontDigestKeysEveryOption holds this function to
// every other field of opt.Options and codegen.Options.
func inputDigest(model [32]byte, oo *opt.Options, co *codegen.Options) [32]byte {
	d := digester{b: make([]byte, 0, 256)}
	d.b = append(d.b, model[:]...)

	d.int(int64(oo.Level))
	d.bool(oo.Coverage)
	d.bool(oo.Diagnose)
	d.strs(oo.Monitor)
	d.checks(oo.Custom)
	d.str(oo.StopOnActor)

	d.bool(co.Coverage)
	d.bool(co.Diagnose)
	d.strs(co.Monitor)
	d.checks(co.Custom)
	d.int(int64(co.MaxMonitorSamples))
	d.str(string(co.StopOnDiag))
	d.str(co.StopOnActor)
	d.tests(co.TestCases)
	d.int(co.DefaultSteps)
	d.str(co.Opt)
	return sha256.Sum256(d.b)
}

// digester appends length-prefixed fields, so no two field sequences
// encode alike.
type digester struct{ b []byte }

func (d *digester) int(v int64)     { d.b = binary.AppendVarint(d.b, v) }
func (d *digester) float(v float64) { d.b = binary.LittleEndian.AppendUint64(d.b, math.Float64bits(v)) }

func (d *digester) bool(v bool) {
	if v {
		d.int(1)
	} else {
		d.int(0)
	}
}

func (d *digester) str(s string) {
	d.int(int64(len(s)))
	d.b = append(d.b, s...)
}

func (d *digester) strs(ss []string) {
	d.int(int64(len(ss)))
	for _, s := range ss {
		d.str(s)
	}
}

// checks keys custom diagnoses by value. A Callback cannot be keyed, and
// need not be: generated code rejects CallbackCheck, and the other kinds
// ignore it.
func (d *digester) checks(cs []diagnose.CustomCheck) {
	d.int(int64(len(cs)))
	for _, c := range cs {
		d.str(c.Actor)
		d.str(c.Name)
		d.int(int64(c.Kind))
		d.float(c.Lo)
		d.float(c.Hi)
		d.float(c.MaxDelta)
	}
}

// tests keys the stimulus content. A nil set (the facade's default
// stimulus, itself a function of the model) keys apart from an empty one.
func (d *digester) tests(s *testcase.Set) {
	if s == nil {
		d.int(-1)
		return
	}
	d.int(int64(len(s.Sources)))
	for i := range s.Sources {
		src := &s.Sources[i]
		d.int(int64(src.Kind))
		d.float(src.Value)
		d.float(src.Lo)
		d.float(src.Hi)
		d.int(int64(src.Seed))
		d.float(src.Start)
		d.float(src.Slope)
		d.float(src.Amp)
		d.float(src.Freq)
		d.float(src.Phase)
		d.int(src.Period)
		d.int(src.Width)
		d.float(src.High)
		d.float(src.Low)
		d.int(int64(len(src.Values)))
		for _, v := range src.Values {
			d.float(v)
		}
	}
}
