package main

import (
	"fmt"
	"math/rand"
	"path/filepath"

	accmos "accmos"
)

// models are the ten Table-1 benchmark models, read from models/<name>.xml.
var models = []string{"CPUT", "CSEV", "FMTM", "LANS", "LEDLC", "RAC", "SPV", "TCP", "TWC", "UTPC"}

// A family is one simulation configuration the workloads run. Every job of
// every workload is one (family, model, stimulus seed, lane xor) point, and
// the committed oracle holds a reference for each point a run can draw.
type family struct {
	Name     string
	Steps    int64
	Opt      accmos.OptLevel
	Coverage bool
	Diagnose bool
	Seeds    []uint64 // stimulus seeds a run may draw per model
	Xors     []uint64 // lane seed perturbations (lane family only)
}

var (
	// pipe is the cmd/accmos default configuration (O1, coverage and
	// diagnosis on) at a Table-2-sized horizon: cold-pipeline and
	// repeat-jobs draw from its seed pool.
	pipe = family{Name: "pipe", Steps: 20_000, Opt: accmos.OptO1, Coverage: true, Diagnose: true, Seeds: seedRange(1, 8)}
	// horizon is the same configuration at a horizon where the step loop
	// dominates a job (long-horizon).
	horizon = family{Name: "horizon", Steps: 100_000, Opt: accmos.OptO1, Coverage: true, Diagnose: true, Seeds: seedRange(101, 2)}
	// lane is the coverage-sweep configuration (lane-sweep): coverage on,
	// diagnosis off, one base seed perturbed per lane. It runs at O1: at O2
	// the generated LANS program disagrees with the interpreter when
	// diagnosis is off (TestO2LaneMatchesOracle). The interpreter runs the
	// O1 model at every level, so the references serve both levels.
	lane = family{Name: "lane", Steps: 10_000, Opt: accmos.OptO1, Coverage: true, Seeds: []uint64{201}, Xors: xorRange(32)}
	// probe is the traced run's instrumentation-variant configuration: its
	// references cover the coverage+diagnosis build; the bare and
	// coverage-only builds are checked against the same reference.
	probe = family{Name: "probe", Steps: 50_000, Opt: accmos.OptO1, Coverage: true, Diagnose: true, Seeds: []uint64{301}}
)

var families = []family{pipe, horizon, lane, probe}

// sweepLanes is the number of suites one lane-sweep job runs.
const sweepLanes = 16

// stimulus range of every job (the accmosd default).
const stimLo, stimHi = -1.0, 1.0

func seedRange(first uint64, n int) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		out[i] = first + uint64(i)
	}
	return out
}

func xorRange(n int) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		out[i] = uint64(i+1) * 0x9E37
	}
	return out
}

// refKey names one oracle point.
func refKey(f family, model string, seed, xor uint64) string {
	return fmt.Sprintf("%s/%s/%d/%d", f.Name, model, seed, xor)
}

func modelPath(root, name string) string {
	return filepath.Join(root, "models", name+".xml")
}

// options returns the facade options of one job of f.
func (f family) options(m *accmos.Model, seed uint64) accmos.Options {
	return accmos.Options{
		Steps:     f.Steps,
		OptLevel:  f.Opt,
		Coverage:  f.Coverage,
		Diagnose:  f.Diagnose,
		TestCases: accmos.RandomTestCases(m, seed, stimLo, stimHi),
	}
}

// rng returns the workload's deterministic random source: the same seed
// always yields the same job sequence.
func rng(seed int64, stream string) *rand.Rand {
	h := int64(0)
	for _, c := range stream {
		h = h*131 + int64(c)
	}
	return rand.New(rand.NewSource(seed*1_000_003 + h))
}

// permuted returns a seeded permutation of xs.
func permuted[T any](r *rand.Rand, xs []T) []T {
	out := append([]T(nil), xs...)
	r.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}
