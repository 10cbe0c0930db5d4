// Command experiments regenerates the paper's evaluation artifacts:
//
//	experiments -run table2     # Table 2: simulation time, 4 engines x 10 models
//	experiments -run table3     # Table 3: coverage within equal budgets
//	experiments -run opt        # optimizing middle-end: O0 vs O1 vs O2 on all engines
//	experiments -run casestudy  # §4 error-injection study on CSEV
//	experiments -run figure1    # Figure 1 motivating measurement
//	experiments -run all
//
// Scales default to laptop-size runs; raise -steps / -budget-scale to
// approach the paper's setting (50 M steps, 5/15/60 s budgets).
package main

import (
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof"
	"os"
	"strings"
	"time"

	accmos "accmos"
	"accmos/internal/experiments"
)

func main() {
	// The experiments build through the default build cache, whose
	// private temporary directory every exit removes (fatal too).
	defer accmos.DefaultBuildCache().Remove()
	var (
		run         = flag.String("run", "all", "experiment: table2 | table3 | opt | casestudy | figure1 | all")
		steps       = flag.Int64("steps", 200_000, "Table 2 simulation steps (paper: 50000000)")
		budgetScale = flag.Float64("budget-scale", 0.1, "Table 3 budget scale; 1.0 = the paper's 5/15/60s")
		models      = flag.String("models", "", "comma-separated model subset (default: all ten)")
		seed        = flag.Uint64("seed", 2024, "test-case seed")
		chargeRate  = flag.Int64("charge-rate", 10_000, "case-study charge rate per step")
		increment   = flag.Int64("fig1-increment", 100, "Figure 1 per-step accumulation")
		verbose     = flag.Bool("v", false, "progress logging")
		timeout     = flag.Duration("timeout", 0, "kill a generated-binary run exceeding this wall-clock deadline, e.g. 5m (0 = none)")
		metricsJSON = flag.String("metrics-json", "", "write machine-readable benchmark rows (accmos-metrics/v1) to this file")
		heartbeatMS = flag.Int64("heartbeat-ms", 25, "progress/heartbeat interval for -metrics-json timelines (0 disables)")
		pprofAddr   = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060) for live profiling")
	)
	flag.Parse()
	if *pprofAddr != "" {
		go func() {
			fmt.Fprintln(os.Stderr, "experiments: pprof:", http.ListenAndServe(*pprofAddr, nil))
		}()
	}

	cfg := experiments.Config{
		Steps:      *steps,
		Seed:       *seed,
		ChargeRate: *chargeRate,
		Verbose:    *verbose,
		Timeout:    *timeout,
	}
	if *metricsJSON != "" && *heartbeatMS > 0 {
		cfg.Heartbeat = time.Duration(*heartbeatMS) * time.Millisecond
	}
	for _, b := range []float64{5, 15, 60} {
		cfg.Budgets = append(cfg.Budgets, time.Duration(b*(*budgetScale)*float64(time.Second)))
	}
	if *models != "" {
		cfg.Models = strings.Split(*models, ",")
	}

	var metrics *experiments.Metrics
	if *metricsJSON != "" {
		metrics = experiments.NewMetrics(cfg)
	}

	want := func(name string) bool { return *run == "all" || *run == name }
	ran := false
	if want("table2") {
		ran = true
		rows, err := experiments.Table2(cfg)
		if err != nil {
			fatal(err)
		}
		experiments.FormatTable2(os.Stdout, rows)
		fmt.Println()
		if metrics != nil {
			metrics.AddTable2(rows)
		}
	}
	if want("table3") {
		ran = true
		rows, err := experiments.Table3(cfg)
		if err != nil {
			fatal(err)
		}
		experiments.FormatTable3(os.Stdout, rows)
		fmt.Println()
		if metrics != nil {
			metrics.AddTable3(rows)
		}
	}
	if want("opt") {
		ran = true
		rows, err := experiments.BenchOpt(cfg)
		if err != nil {
			fatal(err)
		}
		experiments.FormatOpt(os.Stdout, rows)
		fmt.Println()
		if metrics != nil {
			metrics.AddOpt(rows)
		}
	}
	if want("casestudy") {
		ran = true
		res, err := experiments.CaseStudy(cfg)
		if err != nil {
			fatal(err)
		}
		experiments.FormatCaseStudy(os.Stdout, res)
		fmt.Println()
	}
	if want("figure1") {
		ran = true
		res, err := experiments.Figure1(cfg, *increment)
		if err != nil {
			fatal(err)
		}
		experiments.FormatFigure1(os.Stdout, res)
	}
	if !ran {
		fatal(fmt.Errorf("unknown experiment %q", *run))
	}
	if metrics != nil {
		if err := metrics.WriteFile(*metricsJSON); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "experiments: %d metric row(s) written to %s\n", len(metrics.Rows), *metricsJSON)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "experiments:", err)
	accmos.DefaultBuildCache().Remove()
	os.Exit(1)
}
