package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"runtime"
	"sort"
	"sync"

	accmos "accmos"
	"accmos/internal/coverage"
	"accmos/internal/simresult"
	"accmos/internal/testcase"
)

// Ref is the interpreter's outcome for one oracle point: the observable
// results a generated run must reproduce bit for bit.
type Ref struct {
	OutputHash  uint64           `json:"outputHash"`
	DiagTotal   int64            `json:"diagTotal"`
	DiagCounts  map[string]int64 `json:"diagCounts,omitempty"`
	FirstDetect map[string]int64 `json:"firstDetect,omitempty"`
	Coverage    *coverage.Raw    `json:"coverage,omitempty"`
}

// Oracle maps refKey points to references.
type Oracle struct {
	Refs map[string]*Ref `json:"refs"`
}

const oracleFile = "oracle.json"

func loadOracle(path string) (*Oracle, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var o Oracle
	if err := json.Unmarshal(data, &o); err != nil {
		return nil, fmt.Errorf("oracle %s: %w", path, err)
	}
	return &o, nil
}

func (o *Oracle) ref(key string) (*Ref, error) {
	r := o.Refs[key]
	if r == nil {
		return nil, fmt.Errorf("oracle has no reference for %s", key)
	}
	return r, nil
}

// check compares a generated run against its reference. cov is the run's
// coverage (nil when the run reports none, as batched lanes do).
func (r *Ref) check(key string, got *simresult.Results, cov *coverage.Raw) error {
	switch {
	case got.OutputHash != r.OutputHash:
		return fmt.Errorf("%s: output hash %#x, reference %#x", key, got.OutputHash, r.OutputHash)
	case got.DiagTotal != r.DiagTotal:
		return fmt.Errorf("%s: %d diagnoses, reference %d", key, got.DiagTotal, r.DiagTotal)
	case !sameCounts(got.DiagCounts, r.DiagCounts):
		return fmt.Errorf("%s: diagnosis counts %v, reference %v", key, got.DiagCounts, r.DiagCounts)
	case !sameCounts(got.FirstDetect, r.FirstDetect):
		return fmt.Errorf("%s: first-detect steps %v, reference %v", key, got.FirstDetect, r.FirstDetect)
	}
	if r.Coverage != nil && cov != nil && !sameCoverage(cov, r.Coverage) {
		return fmt.Errorf("%s: coverage bitmaps differ from the reference", key)
	}
	return nil
}

func sameCounts(a, b map[string]int64) bool {
	if len(a) == 0 && len(b) == 0 {
		return true
	}
	return reflect.DeepEqual(a, b)
}

func sameCoverage(a, b *coverage.Raw) bool {
	return bytes.Equal(a.Actor, b.Actor) && bytes.Equal(a.Cond, b.Cond) &&
		bytes.Equal(a.Dec, b.Dec) && bytes.Equal(a.MCDC, b.MCDC)
}

// mergedCoverage ORs the reference bitmaps of a sweep's lanes: the merged
// coverage the sweep must report.
func (o *Oracle) mergedCoverage(model string, xors []uint64) (*coverage.Raw, error) {
	var merged *coverage.Raw
	for _, x := range xors {
		r, err := o.ref(refKey(lane, model, lane.Seeds[0], x))
		if err != nil {
			return nil, err
		}
		if merged == nil {
			merged = &coverage.Raw{
				Actor: append([]byte(nil), r.Coverage.Actor...), Cond: append([]byte(nil), r.Coverage.Cond...),
				Dec: append([]byte(nil), r.Coverage.Dec...), MCDC: append([]byte(nil), r.Coverage.MCDC...),
			}
			continue
		}
		if err := merged.Merge(r.Coverage); err != nil {
			return nil, err
		}
	}
	return merged, nil
}

// xorSuite applies a lane's seed perturbation to a suite, exactly as the
// generated program's seed-xor does to its embedded uniform seeds.
func xorSuite(tcs *accmos.TestCases, xor uint64) *accmos.TestCases {
	out := &accmos.TestCases{Sources: append([]testcase.Source(nil), tcs.Sources...)}
	for i := range out.Sources {
		if out.Sources[i].Kind == testcase.Uniform {
			out.Sources[i].Seed ^= xor
		}
	}
	return out
}

// buildOracle runs every oracle point on the in-process reference
// interpreter (never the generated code under test) and writes the
// references to path.
func buildOracle(root, path string) error {
	type point struct {
		key   string
		f     family
		model string
		seed  uint64
		xor   uint64
	}
	var points []point
	for _, f := range families {
		xors := f.Xors
		if len(xors) == 0 {
			xors = []uint64{0}
		}
		for _, m := range models {
			for _, s := range f.Seeds {
				for _, x := range xors {
					points = append(points, point{refKey(f, m, s, x), f, m, s, x})
				}
			}
		}
	}
	loaded := make(map[string]*accmos.Model)
	for _, name := range models {
		m, err := accmos.LoadModel(modelPath(root, name))
		if err != nil {
			return err
		}
		loaded[name] = m
	}
	refs := make(map[string]*Ref, len(points))
	var (
		mu       sync.Mutex
		wg       sync.WaitGroup
		firstErr error
		next     = make(chan point)
	)
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for p := range next {
				m := loaded[p.model]
				opts := p.f.options(m, p.seed)
				if p.xor != 0 {
					opts.TestCases = xorSuite(opts.TestCases, p.xor)
				}
				res, err := accmos.Interpret(m, opts)
				mu.Lock()
				if err != nil && firstErr == nil {
					firstErr = fmt.Errorf("%s: %w", p.key, err)
				} else if err == nil {
					refs[p.key] = &Ref{
						OutputHash: res.OutputHash, DiagTotal: res.DiagTotal,
						DiagCounts: res.DiagCounts, FirstDetect: res.FirstDetect,
						Coverage: res.Results.Coverage,
					}
					fmt.Fprintf(os.Stderr, "oracle: %d/%d %s\n", len(refs), len(points), p.key)
				}
				mu.Unlock()
			}
		}()
	}
	for _, p := range points {
		next <- p
	}
	close(next)
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	keys := make([]string, 0, len(refs))
	for k := range refs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	// One reference per line keeps the committed file diffable.
	var buf bytes.Buffer
	buf.WriteString("{\"refs\": {\n")
	for i, k := range keys {
		line, err := json.Marshal(refs[k])
		if err != nil {
			return err
		}
		fmt.Fprintf(&buf, "%q: %s", k, line)
		if i < len(keys)-1 {
			buf.WriteByte(',')
		}
		buf.WriteByte('\n')
	}
	buf.WriteString("}}\n")
	return os.WriteFile(path, buf.Bytes(), 0o644)
}
