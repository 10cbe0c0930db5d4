package accmos_test

import (
	"path/filepath"
	"testing"

	accmos "accmos"
	"accmos/internal/benchmodels"
	"accmos/internal/simresult"
)

// TestTable1GeneratedMatchesInterpreter runs the ten shipped Table-1
// models in the benchmark's configurations (O1, stimulus [-1, 1]; coverage
// with and without diagnosis) and requires the generated program to match
// the interpreter on everything a result carries: output hash, coverage,
// diagnosis counts, first-detect steps and verbatim records. The output
// hash folds raw NaN bits, so a change to the generated step code that
// flips a NaN payload fails here.
func TestTable1GeneratedMatchesInterpreter(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles twenty generated programs")
	}
	for _, name := range benchmodels.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			m, err := accmos.LoadModel(filepath.Join("models", name+".xml"))
			if err != nil {
				t.Fatal(err)
			}
			for _, diag := range []bool{true, false} {
				opts := accmos.Options{
					Steps:     3000,
					OptLevel:  accmos.OptO1,
					Coverage:  true,
					Diagnose:  diag,
					TestCases: accmos.RandomTestCases(m, 1, -1, 1),
					Cache:     accmos.NewBuildCache(t.TempDir()),
				}
				gen, err := accmos.Simulate(m, opts)
				if err != nil {
					t.Fatal(err)
				}
				ref, err := accmos.Interpret(m, opts)
				if err != nil {
					t.Fatal(err)
				}
				if gen.Coverage == nil {
					t.Errorf("diagnose=%v: generated program collected no coverage", diag)
				}
				if d := simresult.Diff(gen.Results, ref.Results); d != "" {
					t.Errorf("diagnose=%v: generated vs interpreter: %s", diag, d)
				}
			}
		})
	}
}

// TestGeneratedNonDyadicStimulusMatchesInterpreter: with stimulus bounds
// whose difference is not exact in float64 ([-0.1, 0.2]), the generated
// program scales its uniform stimulus like the interpreter, which
// subtracts the bounds in float64.
func TestGeneratedNonDyadicStimulusMatchesInterpreter(t *testing.T) {
	for _, name := range []string{"CPUT", "SPV"} {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			m, err := accmos.LoadModel(filepath.Join("models", name+".xml"))
			if err != nil {
				t.Fatal(err)
			}
			opts := accmos.Options{
				Steps:     3000,
				OptLevel:  accmos.OptO1,
				Coverage:  true,
				Diagnose:  true,
				TestCases: accmos.RandomTestCases(m, 1, -0.1, 0.2),
				Cache:     accmos.NewBuildCache(t.TempDir()),
			}
			gen, err := accmos.Simulate(m, opts)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := accmos.Interpret(m, opts)
			if err != nil {
				t.Fatal(err)
			}
			if d := simresult.Diff(gen.Results, ref.Results); d != "" {
				t.Errorf("generated vs interpreter: %s", d)
			}
		})
	}
}
