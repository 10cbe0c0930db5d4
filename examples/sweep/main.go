// Test-suite adequacy sweep: compile the model once, then run it under
// many random test suites (one seed XOR per suite) and watch the merged
// coverage grow — the workflow the paper motivates ("validate that test
// cases are comprehensive enough to cover different parts of models").
// When adding suites stops growing the merged coverage, the remaining
// uncovered points need hand-written tests.
package main

import (
	"fmt"
	"log"

	accmos "accmos"
	"accmos/internal/benchmodels"
)

func main() {
	m := benchmodels.MustBuild("CSEV")
	opts := accmos.Options{
		Steps:     200_000,
		Diagnose:  true,
		TestCases: accmos.RandomTestCases(m, 1, -100, 100),
	}
	seeds := []uint64{0, 0xA5A5, 0x5A5A, 0xC0FFEE, 0xFACADE, 0xB0BA}

	sw, err := accmos.Sweep(m, opts, seeds)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("model CSEV, %d random suites x %d steps (one compiled binary)\n\n", len(seeds), opts.Steps)
	fmt.Printf("%-10s %8s %8s %8s %8s\n", "suite", "actor%", "cond%", "dec%", "mc/dc%")
	for i, run := range sw.Runs {
		rep := run.CoverageReport()
		fmt.Printf("xor %06x %7.1f%% %7.1f%% %7.1f%% %7.1f%%\n",
			seeds[i], rep.Actor, rep.Cond, rep.Dec, rep.MCDC)
	}
	merged := sw.MergedCoverage()
	fmt.Printf("%-10s %7.1f%% %7.1f%% %7.1f%% %7.1f%%\n", "merged", merged.Actor, merged.Cond, merged.Dec, merged.MCDC)

	missed := sw.MergedUncovered()
	fmt.Printf("\npoints no random suite reached: %d\n", len(missed))
	for i, line := range missed {
		if i >= 8 {
			fmt.Printf("  ... and %d more\n", len(missed)-8)
			break
		}
		fmt.Printf("  %s\n", line)
	}
}
