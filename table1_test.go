package accmos_test

import (
	"context"
	"os/exec"
	"path/filepath"
	"testing"

	accmos "accmos"
	"accmos/internal/benchmodels"
	"accmos/internal/harness"
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

// TestTable1CodeHashIgnoresRunParams: the run parameters (uniform seed and
// range, -steps default) are link-time data. For each Table-1 model, two
// seeds, two ranges (one non-dyadic) and two step counts give one code
// hash, so one compiled object, and eight distinct program hashes, so
// eight binaries.
func TestTable1CodeHashIgnoresRunParams(t *testing.T) {
	for _, name := range benchmodels.Names() {
		m, err := accmos.LoadModel(filepath.Join("models", name+".xml"))
		if err != nil {
			t.Fatal(err)
		}
		codes, hashes := map[string]bool{}, map[string]bool{}
		for _, seed := range []uint64{1, 2} {
			for _, r := range [][2]float64{{-1, 1}, {-0.1, 0.2}} {
				for _, steps := range []int64{3000, 100000} {
					p, err := accmos.GenerateProgram(m, accmos.Options{
						Steps:     steps,
						OptLevel:  accmos.OptO1,
						Coverage:  true,
						Diagnose:  true,
						TestCases: accmos.RandomTestCases(m, seed, r[0], r[1]),
					})
					if err != nil {
						t.Fatal(err)
					}
					codes[p.CodeHash()] = true
					hashes[p.Hash()] = true
				}
			}
		}
		if len(codes) != 1 || len(hashes) != 8 {
			t.Errorf("%s: %d code hashes and %d program hashes over 8 run-parameter sets, want 1 and 8", name, len(codes), len(hashes))
		}
	}
}

// TestRelinkMatchesFreshBuild: a binary relinked from a cached object with
// new run parameters (seed, non-dyadic range, step default) runs exactly
// like a from-scratch build of the same program and like the
// interpreter, in serve mode and on the one-shot -steps=N path.
func TestRelinkMatchesFreshBuild(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles ten generated programs")
	}
	for _, name := range benchmodels.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			m, err := accmos.LoadModel(filepath.Join("models", name+".xml"))
			if err != nil {
				t.Fatal(err)
			}
			cache := accmos.NewBuildCache(t.TempDir())
			defer cache.Remove()
			opts := func(seed uint64, lo, hi float64, steps int64) accmos.Options {
				return accmos.Options{
					Steps: steps, OptLevel: accmos.OptO1, Coverage: true, Diagnose: true,
					TestCases: accmos.RandomTestCases(m, seed, lo, hi), Cache: cache,
				}
			}
			if _, err := accmos.Simulate(m, opts(1, -1, 1, 3000)); err != nil {
				t.Fatal(err)
			}
			// Serve mode through the facade: the relinked binary against the
			// interpreter.
			relinked := opts(2, -0.1, 0.2, 2000)
			gen, err := accmos.Simulate(m, relinked)
			if err != nil {
				t.Fatal(err)
			}
			if st := cache.Stats(); gen.CacheHit || st.Misses != 2 || st.Relinks != 1 {
				t.Fatalf("second job: cache hit %v, stats %+v; want a relink", gen.CacheHit, st)
			}
			ref, err := accmos.Interpret(m, relinked)
			if err != nil {
				t.Fatal(err)
			}
			if d := simresult.Diff(gen.Results, ref.Results); d != "" {
				t.Errorf("relinked vs interpreter: %s", d)
			}
			// The same program built from scratch, in a cache of its own.
			p, err := accmos.GenerateProgram(m, relinked)
			if err != nil {
				t.Fatal(err)
			}
			relinkedBin, _, hit, err := cache.Build(p, nil)
			if err != nil || !hit {
				t.Fatalf("the relinked binary is not cached: hit %v, %v", hit, err)
			}
			freshBin, _, _, err := harness.NewBuildCache(t.TempDir()).Build(p, nil)
			if err != nil {
				t.Fatal(err)
			}
			for _, bin := range []string{relinkedBin, freshBin} {
				res, err := harness.RunContext(context.Background(), bin, harness.RunOptions{Steps: 2000, Model: name})
				if err != nil {
					t.Fatal(err)
				}
				if d := simresult.Diff(res, gen.Results); d != "" {
					t.Errorf("%s serving vs the relinked facade run: %s", filepath.Base(bin), d)
				}
				// The one-shot path, with the step count given and with the
				// linked-in default.
				for _, args := range [][]string{{"-steps=2000"}, nil} {
					out, err := exec.Command(bin, args...).Output()
					if err != nil {
						t.Fatalf("%s %v: %v", filepath.Base(bin), args, err)
					}
					var doc simresult.Results
					if err := simresult.Decode(out, &doc); err != nil {
						t.Fatal(err)
					}
					if d := simresult.Diff(&doc, gen.Results); d != "" {
						t.Errorf("%s %v vs the relinked facade run: %s", filepath.Base(bin), args, d)
					}
				}
			}
		})
	}
}
