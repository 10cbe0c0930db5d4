package experiments

import (
	"fmt"
	"time"

	accmos "accmos"
	"accmos/internal/actors"
	"accmos/internal/benchmodels"
	"accmos/internal/codegen"
	"accmos/internal/coverage"
	"accmos/internal/harness"
)

// buildForPool compiles one benchmark model's coverage-instrumented
// program through the process-wide build cache. BenchServe and BenchBatch
// drive the binary through a harness.WorkerPool directly, below the
// facade, because they time the request framing the facade hides. The
// layout sizes the coverage records the runs report.
func (c *Config) buildForPool(name string) (bin string, layout *coverage.Layout, compileTime time.Duration, err error) {
	m, err := benchmodels.Build(name)
	if err != nil {
		return "", nil, 0, err
	}
	compiled, err := actors.Compile(m)
	if err != nil {
		return "", nil, 0, fmt.Errorf("%s: %w", name, err)
	}
	set := accmos.RandomTestCases(m, c.Seed, -100, 100)
	prog, err := codegen.Generate(compiled, codegen.Options{Coverage: true, TestCases: set})
	if err != nil {
		return "", nil, 0, fmt.Errorf("%s: %w", name, err)
	}
	bin, compileTime, _, err = harness.DefaultCache.Build(prog, nil)
	return bin, prog.Layout, compileTime, err
}
