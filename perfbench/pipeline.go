package main

import (
	"context"
	"fmt"
	"os"

	accmos "accmos"
	"accmos/internal/actors"
	"accmos/internal/codegen"
	"accmos/internal/harness"
	"accmos/internal/opt"
	"accmos/internal/simresult"
)

// The traced run takes a job through the pipeline one public layer
// function at a time — the same calls accmos.Simulate makes, in the same
// order — so each layer gets its own span. Each traced job checks that it
// generated the very program the facade would (same content hash).

// built is a generated program and its compiled binary.
type built struct {
	prog *codegen.Program
	opt  *opt.Result
	bin  string
	hit  bool
}

func optLevel(l accmos.OptLevel) opt.Level {
	if l == accmos.OptO2 {
		return opt.O2
	}
	return opt.O1
}

// generate runs schedule, optimize and generate for m under opts.
func generate(led *ledger, parent *span, m *accmos.Model, opts accmos.Options) (*codegen.Program, *opt.Result, error) {
	sp := led.start(parent, "actors.Compile", m.Name)
	c, err := actors.Compile(m)
	sp.end()
	if err != nil {
		return nil, nil, err
	}
	sp = led.start(parent, "opt.Optimize", m.Name)
	or, err := opt.Optimize(c, opt.Options{Level: optLevel(opts.OptLevel), Coverage: opts.Coverage, Diagnose: opts.Diagnose})
	sp.end()
	if err != nil {
		return nil, nil, err
	}
	sp = led.start(parent, "codegen.Generate", m.Name)
	prog, err := codegen.Generate(or.Compiled, codegen.Options{
		Coverage:     opts.Coverage,
		Diagnose:     opts.Diagnose,
		TestCases:    opts.TestCases,
		Layout:       or.Layout,
		Premark:      or.Premark,
		Opt:          opts.OptLevel.String(),
		Plan:         or.Plan,
		DefaultSteps: opts.Steps,
	})
	sp.end()
	if err != nil {
		return nil, nil, err
	}
	sp.set("source_kb", float64(len(prog.Source))/1024)
	return prog, or, nil
}

// build generates m under opts and compiles it through cache.
func build(led *ledger, parent *span, m *accmos.Model, opts accmos.Options, cache *accmos.BuildCache) (*built, error) {
	prog, or, err := generate(led, parent, m, opts)
	if err != nil {
		return nil, err
	}
	sp := led.start(parent, "BuildCache.Build", m.Name)
	bin, _, hit, err := cache.Build(prog, nil)
	sp.end()
	if err != nil {
		return nil, err
	}
	sp.set("hit", b2f(hit))
	led.add("harness.cache_hits", b2f(hit))
	led.add("harness.cache_misses", b2f(!hit))
	if st, err := os.Stat(bin); err == nil {
		sp.set("binary_kb", float64(st.Size())/1024)
	}
	return &built{prog: prog, opt: or, bin: bin, hit: hit}, nil
}

// checkHash confirms the traced decomposition generated the program the
// facade generates for the same options.
func checkHash(m *accmos.Model, opts accmos.Options, got string) error {
	want, err := accmos.ProgramHash(m, opts)
	if err != nil {
		return err
	}
	if got != want {
		return fmt.Errorf("%s: traced pipeline generated program %s, the facade %s", m.Name, got, want)
	}
	return nil
}

// run executes a built binary once, spawning one process.
func run(ctx context.Context, led *ledger, parent *span, m *accmos.Model, b *built, steps int64) (*simresult.Results, *span, error) {
	sp := led.start(parent, "harness.RunContext", m.Name)
	res, err := harness.RunContext(ctx, b.bin, harness.RunOptions{Steps: steps, Model: m.Name})
	sp.end()
	if err != nil {
		return nil, nil, err
	}
	sp.set("exec_ns", float64(res.ExecNanos))
	sp.set("steps", float64(res.Steps))
	return res, sp, nil
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
