// Package testcase generates and transports simulation inputs (the
// paper's "test cases import"). Sources are deterministic: the same Set
// drives the interpreted engines and the generated program with
// bit-identical float64 sequences, so cross-engine output hashes are
// comparable. EmitGo renders each source as Go code embedded in generated
// programs; its formulas must stay in lockstep with At.
package testcase

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"strconv"

	"accmos/internal/actors"
)

// SourceKind selects a test-case source flavor.
type SourceKind int

// Source flavors.
const (
	Const SourceKind = iota
	Uniform
	Ramp
	Sine
	Pulse
	Table
)

// Source describes one input port's stimulus.
type Source struct {
	Kind SourceKind

	Value float64 // Const

	Lo, Hi float64 // Uniform range
	Seed   uint64  // Uniform LCG seed

	Start, Slope float64 // Ramp

	Amp, Freq, Phase float64 // Sine

	Period, Width int64   // Pulse timing
	High, Low     float64 // Pulse levels

	Values []float64 // Table, cycled
}

// Validate rejects ill-formed sources.
func (s *Source) Validate() error {
	switch s.Kind {
	case Const, Ramp, Sine:
		return nil
	case Uniform:
		if s.Hi < s.Lo {
			return fmt.Errorf("testcase: uniform Hi < Lo")
		}
		return nil
	case Pulse:
		if s.Period <= 0 {
			return fmt.Errorf("testcase: pulse period %d must be positive", s.Period)
		}
		return nil
	case Table:
		if len(s.Values) == 0 {
			return fmt.Errorf("testcase: empty table source")
		}
		return nil
	}
	return fmt.Errorf("testcase: unknown source kind %d", s.Kind)
}

// Set is one stimulus per input port, in the model's inport order.
type Set struct {
	Sources []Source
}

// Validate checks every source.
func (s *Set) Validate() error {
	for i := range s.Sources {
		if err := s.Sources[i].Validate(); err != nil {
			return fmt.Errorf("source %d: %w", i, err)
		}
	}
	return nil
}

// NewRandomSet builds n uniform sources over [lo, hi] with per-port seeds
// derived from seed — the "equivalent test cases generated through a
// random approach" of the paper's coverage experiment.
func NewRandomSet(n int, seed uint64, lo, hi float64) *Set {
	set := &Set{Sources: make([]Source, n)}
	for i := range set.Sources {
		set.Sources[i] = Source{
			Kind: Uniform,
			Lo:   lo, Hi: hi,
			Seed: seed + uint64(i)*0x9E3779B97F4A7C15,
		}
	}
	return set
}

// Stream is the runtime form of a source: sequential state plus the
// generation formula.
type Stream struct {
	src   Source
	state uint64
}

// Streams instantiates runtime streams for every source.
func (s *Set) Streams() []*Stream {
	out := make([]*Stream, len(s.Sources))
	for i := range s.Sources {
		out[i] = &Stream{src: s.Sources[i], state: s.Sources[i].Seed}
	}
	return out
}

// At returns the stimulus value for the given step. Uniform sources must
// be called with strictly increasing steps (they advance an LCG); the
// other kinds are pure functions of step.
func (st *Stream) At(step int64) float64 {
	s := &st.src
	switch s.Kind {
	case Const:
		return s.Value
	case Uniform:
		st.state = actors.LCGNext(st.state)
		return actors.LCGFloat(st.state)*(s.Hi-s.Lo) + s.Lo
	case Ramp:
		return s.Start + s.Slope*float64(step)
	case Sine:
		return s.Amp * math.Sin(s.Freq*float64(step)+s.Phase)
	case Pulse:
		if step%s.Period < s.Width {
			return s.High
		}
		return s.Low
	case Table:
		return s.Values[int(step%int64(len(s.Values)))]
	}
	return 0
}

// WriteCSV materialises the first steps values of every source as CSV, one
// row per step, one column per source.
func (s *Set) WriteCSV(w io.Writer, steps int64) error {
	cw := csv.NewWriter(w)
	streams := s.Streams()
	row := make([]string, len(streams))
	for step := int64(0); step < steps; step++ {
		for i, st := range streams {
			row[i] = strconv.FormatFloat(st.At(step), 'g', -1, 64)
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadCSV loads a CSV produced by WriteCSV (or any numeric CSV) into a Set
// of Table sources that cycle through the file's rows.
func ReadCSV(r io.Reader) (*Set, error) {
	cr := csv.NewReader(r)
	rows, err := cr.ReadAll()
	if err != nil {
		return nil, fmt.Errorf("testcase: reading CSV: %w", err)
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("testcase: empty CSV")
	}
	n := len(rows[0])
	set := &Set{Sources: make([]Source, n)}
	for i := 0; i < n; i++ {
		set.Sources[i] = Source{Kind: Table, Values: make([]float64, 0, len(rows))}
	}
	for ri, row := range rows {
		if len(row) != n {
			return nil, fmt.Errorf("testcase: row %d has %d columns, want %d", ri, len(row), n)
		}
		for i, cell := range row {
			f, err := strconv.ParseFloat(cell, 64)
			if err != nil {
				return nil, fmt.Errorf("testcase: row %d col %d: %w", ri, i, err)
			}
			set.Sources[i].Values = append(set.Sources[i].Values, f)
		}
	}
	return set, nil
}

// EmitGo renders source i as Go code for generated programs. It returns
// package-level declarations, modelInit statements, and the expression
// yielding the float64 stimulus inside the simulation loop (which may
// reference the loop variable "step"). The formulas mirror At exactly.
//
// A Uniform source's seed and range are run parameters, not code: its
// code reads them from params, an expression naming the simrt.Uniform
// value the program fills from its params file, so programs that
// differ only in them compile and link to the same binary. The other kinds are
// compiled in as literals.
func EmitGo(s *Source, prefix, params string) (globals, inits []string, expr string) {
	lit := func(f float64) string {
		switch {
		case math.IsNaN(f):
			return "math.NaN()"
		case math.IsInf(f, 1):
			return "math.Inf(1)"
		case math.IsInf(f, -1):
			return "math.Inf(-1)"
		}
		str := strconv.FormatFloat(f, 'g', -1, 64)
		for _, c := range str {
			if c == '.' || c == 'e' || c == 'E' {
				return str
			}
		}
		return str + ".0"
	}
	switch s.Kind {
	case Const:
		return nil, nil, lit(s.Value)
	case Uniform:
		sv := prefix + "_seed"
		globals = []string{fmt.Sprintf("var %s uint64", sv)}
		// seedXor is the run request's seed, which modelReset sets:
		// sweeping it reruns the same binary over fresh random suites.
		inits = []string{fmt.Sprintf("%s = %s.Seed ^ seedXor", sv, params)}
		// The advance must happen inside the loop; emit a helper function
		// so the expression stays self-contained. The bounds are float64
		// variables, so the range is subtracted in float64 as At does.
		fn := prefix + "_next"
		globals = append(globals, fmt.Sprintf(
			"func %s() float64 {\n\t%s = %s*%d + %d\n\treturn float64(%s>>11)/9007199254740992.0*(%s.Hi-%s.Lo) + %s.Lo\n}",
			fn, sv, sv, uint64(actors.LCGMul), uint64(actors.LCGInc), sv, params, params, params))
		return globals, inits, fn + "()"
	case Ramp:
		return nil, nil, fmt.Sprintf("(%s + %s*float64(step))", lit(s.Start), lit(s.Slope))
	case Sine:
		return nil, nil, fmt.Sprintf("(%s * math.Sin(%s*float64(step)+%s))", lit(s.Amp), lit(s.Freq), lit(s.Phase))
	case Pulse:
		fn := prefix + "_pulse"
		globals = []string{fmt.Sprintf(
			"func %s(step int64) float64 {\n\tif step%%%d < %d {\n\t\treturn %s\n\t}\n\treturn %s\n}",
			fn, s.Period, s.Width, lit(s.High), lit(s.Low))}
		return globals, nil, fn + "(step)"
	case Table:
		tv := prefix + "_table"
		decl := fmt.Sprintf("var %s = []float64{", tv)
		for i, v := range s.Values {
			if i > 0 {
				decl += ", "
			}
			decl += lit(v)
		}
		decl += "}"
		globals = []string{decl}
		return globals, nil, fmt.Sprintf("%s[int(step%%%d)]", tv, len(s.Values))
	}
	return nil, nil, "0.0"
}

// NeedsMath reports whether the emitted expression references package math.
// A Uniform source's bounds are run parameters, so it never does.
func NeedsMath(s *Source) bool {
	if s.Kind == Sine {
		return true
	}
	check := func(f float64) bool { return math.IsNaN(f) || math.IsInf(f, 0) }
	switch s.Kind {
	case Const:
		return check(s.Value)
	case Ramp:
		return check(s.Start) || check(s.Slope)
	case Pulse:
		return check(s.High) || check(s.Low)
	case Table:
		for _, v := range s.Values {
			if check(v) {
				return true
			}
		}
	}
	return false
}
