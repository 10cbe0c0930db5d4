package accmos

import (
	"context"

	"accmos/internal/codegen"
	"accmos/internal/coverage"
)

// SweepProgram builds m under opts as Sweep does (coverage forced on) and
// returns the generated binary and its coverage layout, for tests that
// drive a WorkerPool on the program directly.
func SweepProgram(m *Model, opts Options) (bin string, layout *coverage.Layout, err error) {
	opts.Coverage = true
	x, err := newExecutor(context.Background(), m, &opts, true)
	if err != nil {
		return "", nil, err
	}
	return x.bin, x.layout, nil
}

// GenerateProgram runs the front end for m under opts as Simulate does
// and returns the generated program, without building it.
func GenerateProgram(m *Model, opts Options) (*codegen.Program, error) {
	if err := opts.begin(); err != nil {
		return nil, err
	}
	prog, _, err := generate(m, &opts)
	return prog, err
}
