package experiments

import (
	"fmt"
	"io"
	"time"
)

// FormatTable2 prints the rows in the paper's Table 2 layout.
func FormatTable2(w io.Writer, rows []Table2Row) {
	fmt.Fprintf(w, "Table 2: Comparison of simulation time (%d steps)\n", stepsOf(rows))
	fmt.Fprintf(w, "%-6s %10s %10s %10s %10s %10s | %8s %8s %8s %s\n",
		"Model", "AccMoS", "SSE", "SSEac", "SSErac", "compile",
		"vs SSE", "vs ac", "vs rac", "outputs")
	var gSSE, gAc, gRac float64
	for _, r := range rows {
		ok := "match"
		if !r.HashOK {
			ok = "MISMATCH"
		}
		fmt.Fprintf(w, "%-6s %10s %10s %10s %10s %10s | %7.1fx %7.1fx %7.1fx %s\n",
			r.Model, fmtDur(r.AccMoS), fmtDur(r.SSE), fmtDur(r.SSEac), fmtDur(r.SSErac), fmtDur(r.Compile),
			r.SpeedupSSE, r.SpeedupAc, r.SpeedupRac, ok)
		gSSE += r.SpeedupSSE
		gAc += r.SpeedupAc
		gRac += r.SpeedupRac
	}
	if n := float64(len(rows)); n > 0 {
		fmt.Fprintf(w, "%-6s %54s | %7.1fx %7.1fx %7.1fx  (paper: 215.3x / 76.3x / 19.8x)\n",
			"mean", "", gSSE/n, gAc/n, gRac/n)
	}
}

// FormatRemoteTable2 prints the daemon-driven Table 2 variant: each
// model submitted twice to a running accmosd, proving the second
// request's latency excludes the compile.
func FormatRemoteTable2(w io.Writer, rows []RemoteRow) {
	fmt.Fprintln(w, "Table 2 (remote): cross-request compile amortization via accmosd")
	fmt.Fprintf(w, "%-6s %10s %12s %12s | %10s %12s %12s %6s\n",
		"Model", "steps", "cold", "cold cmpl", "warm", "warm cmpl", "amortized", "hit")
	for _, r := range rows {
		saved := r.Cold - r.Warm
		fmt.Fprintf(w, "%-6s %10d %12s %12s | %10s %12s %12s %6v\n",
			r.Model, r.Steps, fmtDur(r.Cold), fmtDur(r.ColdCompile),
			fmtDur(r.Warm), fmtDur(r.WarmCompile), fmtDur(saved), r.WarmHit)
	}
}

func stepsOf(rows []Table2Row) int64 {
	if len(rows) == 0 {
		return 0
	}
	return rows[0].Steps
}

// FormatTable3 prints the coverage comparison in the paper's Table 3
// layout: one line per (model, budget) with the four metrics for both
// engines.
func FormatTable3(w io.Writer, rows []Table3Row) {
	fmt.Fprintln(w, "Table 3: Coverage of AccMoS and SSE within equal time budgets")
	fmt.Fprintf(w, "%-6s %8s | %-15s %-15s %-15s %-15s | %12s %12s\n",
		"Model", "Budget", "Actor (A/S)", "Cond (A/S)", "Dec (A/S)", "MC/DC (A/S)", "A steps", "S steps")
	for _, r := range rows {
		pair := func(a, s float64) string { return fmt.Sprintf("%5.1f%% /%5.1f%%", a, s) }
		fmt.Fprintf(w, "%-6s %8s | %s %s %s %s | %12d %12d\n",
			r.Model, fmtDur(r.Budget),
			pair(r.AccMoS.Report.Actor, r.SSE.Report.Actor),
			pair(r.AccMoS.Report.Cond, r.SSE.Report.Cond),
			pair(r.AccMoS.Report.Dec, r.SSE.Report.Dec),
			pair(r.AccMoS.Report.MCDC, r.SSE.Report.MCDC),
			r.AccMoS.Steps, r.SSE.Steps)
	}
}

// FormatOpt prints the optimizer benchmark: O0/O1/O2 wall clock per
// (shape, engine) with the actor reduction, the O2 fusion report, the
// equivalence verdict and the aggregate O2 gate row.
func FormatOpt(w io.Writer, rows []OptRow) {
	fmt.Fprintln(w, "Optimizing middle-end: O0 vs O1 vs O2 wall clock (uninstrumented timing runs)")
	fmt.Fprintf(w, "%-6s %-7s %10s | %10s %10s %10s | %7s %7s | %9s %9s %9s | %s\n",
		"Model", "Engine", "actors", "O0", "O1", "O2", "O0/O1", "O1/O2",
		"ns/a O0", "ns/a O1", "ns/a O2", "oracle")
	perModel := make(map[string]bool)
	for _, r := range rows {
		ok := "match"
		if !r.EquivOK {
			ok = "MISMATCH"
		}
		if r.Model == "TOTAL" {
			bar := "BELOW BAR"
			if r.SpeedupOK {
				bar = "ok (geomean >= 1.3x over O2-sensitive shapes, all oracles match)"
			}
			fmt.Fprintf(w, "%-6s %-7s %10s | %10s %10s %10s | %7s %6.2fx | %s\n",
				"total", r.Engine, "", "", "", "", "", r.SpeedupO2, bar)
			continue
		}
		fmt.Fprintf(w, "%-6s %-7s %4d->%-4d | %10s %10s %10s | %6.1fx %6.1fx | %9.1f %9.1f %9.1f | %s\n",
			r.Model, r.Engine, r.ActorsBefore, r.ActorsAfter,
			fmtDur(r.O0), fmtDur(r.O1), fmtDur(r.O2), r.Speedup, r.SpeedupO2,
			r.NsPerActorStepO0, r.NsPerActorStepO1, r.NsPerActorStepO2, ok)
		if !perModel[r.Model] {
			perModel[r.Model] = true
			fmt.Fprintf(w, "%-6s   lower: %d fused, %d hoisted, %d narrowed -> %d effective actors\n",
				"", r.FusedExprs, r.HoistedExprs, r.NarrowedSignals, r.ActorsEffective)
		}
	}
}

// FormatCaseStudy prints the §4 error-injection study.
func FormatCaseStudy(w io.Writer, r *CaseStudyResult) {
	fmt.Fprintf(w, "Case study: injected errors in CSEV (charge rate %d/step, predicted overflow at step %d)\n",
		r.ChargeRate, r.PredictedStep)
	fmt.Fprintf(w, "  error 1 (quantity wrap on overflow, long-horizon):\n")
	fmt.Fprintf(w, "    AccMoS: detected at step %d in %s (+ compile %s)\n",
		r.OverflowAccMoS.Step, fmtDur(r.OverflowAccMoS.Wall), fmtDur(r.OverflowAccMoS.Compile))
	fmt.Fprintf(w, "    SSE:    detected at step %d in %s\n", r.OverflowSSE.Step, fmtDur(r.OverflowSSE.Wall))
	if r.OverflowAccMoS.Wall > 0 {
		red := 100 * (1 - float64(r.OverflowAccMoS.Wall)/float64(r.OverflowSSE.Wall))
		fmt.Fprintf(w, "    detection-time reduction: %.1f%% (paper: >99%%, 450.14s -> 0.74s)\n", red)
	}
	fmt.Fprintf(w, "  error 2 (charging-power downcast, immediate):\n")
	fmt.Fprintf(w, "    AccMoS: detected at step %d in %s (+ compile %s)\n",
		r.DowncastAccMoS.Step, fmtDur(r.DowncastAccMoS.Wall), fmtDur(r.DowncastAccMoS.Compile))
	fmt.Fprintf(w, "    SSE:    detected at step %d in %s (paper: both engines within 0.18-1.2s)\n",
		r.DowncastSSE.Step, fmtDur(r.DowncastSSE.Wall))
}

// FormatFigure1 prints the motivating measurement.
func FormatFigure1(w io.Writer, r *Figure1Result) {
	fmt.Fprintf(w, "Figure 1 motivation: overflow of the sample model (increment %d/step, detected at step %d)\n",
		r.Increment, r.DetectStep)
	fmt.Fprintf(w, "  SSE:    %s\n", fmtDur(r.SSE.Wall))
	fmt.Fprintf(w, "  AccMoS: %s (+ compile %s)\n", fmtDur(r.AccMoS.Wall), fmtDur(r.AccMoS.Compile))
	fmt.Fprintf(w, "  speedup: %.1fx (paper: 184.74s vs 0.37s, ~500x)\n", r.SpeedupWall)
}

func fmtDur(d time.Duration) string {
	switch {
	case d <= 0:
		return "-"
	case d < time.Millisecond:
		return fmt.Sprintf("%.0fµs", float64(d)/float64(time.Microsecond))
	case d < time.Second:
		return fmt.Sprintf("%.1fms", float64(d)/float64(time.Millisecond))
	default:
		return fmt.Sprintf("%.2fs", d.Seconds())
	}
}
