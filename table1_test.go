package accmos_test

import (
	"path/filepath"
	"reflect"
	"testing"

	accmos "accmos"
	"accmos/internal/benchmodels"
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
					WorkDir:   t.TempDir(),
				}
				gen, err := accmos.Simulate(m, opts)
				if err != nil {
					t.Fatal(err)
				}
				ref, err := accmos.Interpret(m, opts)
				if err != nil {
					t.Fatal(err)
				}
				if gen.OutputHash != ref.OutputHash {
					t.Errorf("diagnose=%v: output hash %x, interpreter %x", diag, gen.OutputHash, ref.OutputHash)
				}
				if gen.Coverage == nil || !reflect.DeepEqual(gen.Coverage, ref.Coverage) {
					t.Errorf("diagnose=%v: coverage bitmaps differ", diag)
				}
				if gen.DiagTotal != ref.DiagTotal ||
					!reflect.DeepEqual(gen.DiagCounts, ref.DiagCounts) ||
					!reflect.DeepEqual(gen.FirstDetect, ref.FirstDetect) {
					t.Errorf("diagnose=%v: diagnosis differs:\ngenerated %d %v %v\ninterp    %d %v %v", diag,
						gen.DiagTotal, gen.DiagCounts, gen.FirstDetect, ref.DiagTotal, ref.DiagCounts, ref.FirstDetect)
				}
				if !reflect.DeepEqual(gen.Diags, ref.Diags) {
					t.Errorf("diagnose=%v: diag records differ:\ngenerated %v\ninterp    %v", diag, gen.Diags, ref.Diags)
				}
			}
		})
	}
}
