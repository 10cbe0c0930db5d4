package accmos_test

import (
	"bytes"
	"context"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"testing"

	accmos "accmos"
	"accmos/internal/benchmodels"
	"accmos/internal/codegen"
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
// range, -steps default) are params-file data, not code. For each
// Table-1 model, two seeds, two ranges (one non-dyadic) and two step
// counts give one code hash, so one model binary, and eight distinct
// program hashes, so eight binaries with their own params files.
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

// TestRelinkMatchesFreshBuild: only the model is in the binary. For each
// Table-1 model, the eight programs over two seeds, two ranges (one
// non-dyadic) and two -steps defaults build in one cache with one compile
// and one link. Their binaries are byte-identical to each other and to a
// from-scratch build in a cache of its own, and each runs exactly like
// the interpreter: through the facade in serve mode, and on the one-shot
// path with its params file's step default.
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
			tr := accmos.NewTracer()
			var model []byte
			var last *codegen.Program
			var lastRes *simresult.Results
			for _, seed := range []uint64{1, 2} {
				for _, r := range [][2]float64{{-1, 1}, {-0.1, 0.2}} {
					for _, steps := range []int64{2000, 3000} {
						opts := accmos.Options{
							Steps: steps, OptLevel: accmos.OptO1, Coverage: true, Diagnose: true,
							TestCases: accmos.RandomTestCases(m, seed, r[0], r[1]),
						}
						ref, err := accmos.Interpret(m, opts)
						if err != nil {
							t.Fatal(err)
						}
						opts.Cache, opts.Trace = cache, tr
						gen, err := accmos.Simulate(m, opts)
						if err != nil {
							t.Fatal(err)
						}
						if d := simresult.Diff(gen.Results, ref.Results); d != "" {
							t.Errorf("seed %d, range %v, %d steps: generated vs interpreter: %s", seed, r, steps, d)
						}
						p, err := accmos.GenerateProgram(m, opts)
						if err != nil {
							t.Fatal(err)
						}
						bin, _, hit, err := cache.Build(p, nil)
						if err != nil || !hit {
							t.Fatalf("the facade's binary is not cached: hit %v, %v", hit, err)
						}
						data, err := os.ReadFile(bin)
						if err != nil {
							t.Fatal(err)
						}
						if model == nil {
							model = data
						} else if !bytes.Equal(data, model) {
							t.Errorf("seed %d, range %v, %d steps: the binary differs from the first one", seed, r, steps)
						}
						oneShot(t, bin, nil, gen.Results)
						last, lastRes = p, gen.Results
					}
				}
			}
			if gc, link, st := len(tr.Trace().Find("compile.gc")), len(tr.Trace().Find("compile.link")), cache.Stats(); gc != 1 || link != 1 || st.Misses != 8 || st.Relinks != 7 {
				t.Errorf("eight run-parameter sets: %d compile.gc and %d compile.link spans, stats %+v; want one of each, 8 misses, 7 relinks", gc, link, st)
			}
			// The last program built from scratch, in a cache of its own.
			fresh := harness.NewBuildCache(t.TempDir())
			defer fresh.Remove()
			freshBin, _, _, err := fresh.Build(last, nil)
			if err != nil {
				t.Fatal(err)
			}
			if data, err := os.ReadFile(freshBin); err != nil || !bytes.Equal(data, model) {
				t.Errorf("a fresh build's binary differs from the cached ones (%v)", err)
			}
			res, err := harness.RunContext(context.Background(), freshBin, harness.RunOptions{Steps: lastRes.Steps, Model: name})
			if err != nil {
				t.Fatal(err)
			}
			if d := simresult.Diff(res, lastRes); d != "" {
				t.Errorf("fresh build serving vs the cached facade run: %s", d)
			}
			oneShot(t, freshBin, []string{"-steps=" + strconv.FormatInt(lastRes.Steps, 10)}, lastRes)
		})
	}
}

// oneShot runs bin on the one-shot path with args and checks its result
// document against want.
func oneShot(t *testing.T, bin string, args []string, want *simresult.Results) {
	t.Helper()
	out, err := exec.Command(bin, args...).Output()
	if err != nil {
		t.Fatalf("%s %v: %v", filepath.Base(bin), args, err)
	}
	var doc simresult.Results
	if err := simresult.Decode(out, &doc); err != nil {
		t.Fatal(err)
	}
	if d := simresult.Diff(&doc, want); d != "" {
		t.Errorf("%s %v vs the facade run: %s", filepath.Base(bin), args, d)
	}
}
