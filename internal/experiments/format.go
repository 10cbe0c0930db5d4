package experiments

import (
	"fmt"
	"io"
	"time"

	"accmos/internal/benchmodels"
	"accmos/internal/coverage"
)

// group splits rows into runs of consecutive rows with equal key, in
// order: the rows one model (or one model and engine) contributed.
func group(rows []MetricRow, key func(MetricRow) string) [][]MetricRow {
	var out [][]MetricRow
	for i, r := range rows {
		if i == 0 || key(r) != key(rows[i-1]) {
			out = append(out, nil)
		}
		out[len(out)-1] = append(out[len(out)-1], r)
	}
	return out
}

// find returns the row of rows with the given variant and engine (a
// zero row when there is none).
func find(rows []MetricRow, variant, engine string) MetricRow {
	for _, r := range rows {
		if r.Variant == variant && r.Engine == engine {
			return r
		}
	}
	return MetricRow{}
}

// verdict renders a row's HashOK.
func verdict(r MetricRow) string {
	if r.HashOK != nil && *r.HashOK {
		return "match"
	}
	return "MISMATCH"
}

// FormatTable2 prints the Table 2 rows in the paper's layout: one line per
// model with the four engines' wall clocks and AccMoS's speedups.
func FormatTable2(w io.Writer, rows []MetricRow) {
	var steps int64
	if len(rows) > 0 {
		steps = rows[0].Steps
	}
	fmt.Fprintf(w, "Table 2: Comparison of simulation time (%d steps)\n", steps)
	fmt.Fprintf(w, "%-6s %10s %10s %10s %10s %10s | %8s %8s %8s %s\n",
		"Model", "AccMoS", "SSE", "SSEac", "SSErac", "compile",
		"vs SSE", "vs ac", "vs rac", "outputs")
	var gSSE, gAc, gRac float64
	models := group(rows, func(r MetricRow) string { return r.Model })
	for _, g := range models {
		acc, sse, ac, rac := find(g, "", "AccMoS"), find(g, "", "SSE"), find(g, "", "SSEac"), find(g, "", "SSErac")
		vsSSE, vsAc, vsRac := ratio(sse.WallNanos, acc.WallNanos), ratio(ac.WallNanos, acc.WallNanos), ratio(rac.WallNanos, acc.WallNanos)
		fmt.Fprintf(w, "%-6s %10s %10s %10s %10s %10s | %7.1fx %7.1fx %7.1fx %s\n",
			acc.Model, fmtDur(acc.WallNanos), fmtDur(sse.WallNanos), fmtDur(ac.WallNanos), fmtDur(rac.WallNanos),
			fmtDur(acc.CompileNanos), vsSSE, vsAc, vsRac, verdict(acc))
		gSSE += vsSSE
		gAc += vsAc
		gRac += vsRac
	}
	if n := float64(len(models)); n > 0 {
		fmt.Fprintf(w, "%-6s %54s | %7.1fx %7.1fx %7.1fx  (paper: 215.3x / 76.3x / 19.8x)\n",
			"mean", "", gSSE/n, gAc/n, gRac/n)
	}
}

// FormatTable3 prints the coverage comparison in the paper's Table 3
// layout: one line per (model, budget) with the four metrics for both
// engines.
func FormatTable3(w io.Writer, rows []MetricRow) {
	fmt.Fprintln(w, "Table 3: Coverage of AccMoS and SSE within equal time budgets")
	fmt.Fprintf(w, "%-6s %8s | %-15s %-15s %-15s %-15s | %12s %12s\n",
		"Model", "Budget", "Actor (A/S)", "Cond (A/S)", "Dec (A/S)", "MC/DC (A/S)", "A steps", "S steps")
	cells := group(rows, func(r MetricRow) string { return fmt.Sprint(r.Model, r.BudgetNanos) })
	for _, g := range cells {
		acc, sse := find(g, "", "AccMoS"), find(g, "", "SSE")
		var a, s coverage.Report
		if acc.Coverage != nil && sse.Coverage != nil {
			a, s = *acc.Coverage, *sse.Coverage
		}
		pair := func(a, s float64) string { return fmt.Sprintf("%5.1f%% /%5.1f%%", a, s) }
		fmt.Fprintf(w, "%-6s %8s | %s %s %s %s | %12d %12d\n",
			acc.Model, fmtDur(acc.BudgetNanos),
			pair(a.Actor, s.Actor), pair(a.Cond, s.Cond), pair(a.Dec, s.Dec), pair(a.MCDC, s.MCDC),
			acc.Steps, sse.Steps)
	}
}

// FormatOpt prints the optimizer benchmark: O0/O1/O2 wall clock per
// (shape, engine) with the actor reduction, the O2 fusion report, the
// equivalence verdict and the aggregate O2 gate row.
func FormatOpt(w io.Writer, rows []MetricRow) {
	fmt.Fprintln(w, "Optimizing middle-end: O0 vs O1 vs O2 wall clock (uninstrumented timing runs)")
	fmt.Fprintf(w, "%-6s %-7s %10s | %10s %10s %10s | %7s %7s | %9s %9s %9s | %s\n",
		"Model", "Engine", "actors", "O0", "O1", "O2", "O0/O1", "O1/O2",
		"ns/a O0", "ns/a O1", "ns/a O2", "oracle")
	perModel := make(map[string]bool)
	for _, g := range group(rows, func(r MetricRow) string { return r.Model + "|" + r.Engine }) {
		if g[0].Model == "TOTAL" {
			bar := "BELOW BAR"
			if g[0].SpeedupOK {
				bar = "ok (geomean >= 1.3x over O2-sensitive shapes, all oracles match)"
			}
			fmt.Fprintf(w, "%-6s %-7s %10s | %10s %10s %10s | %7s %6.2fx | %s\n",
				"total", g[0].Engine, "", "", "", "", "", g[0].Speedup, bar)
			continue
		}
		o0, o1, o2 := g[0], g[1], g[2] // BenchOpt's level order
		fmt.Fprintf(w, "%-6s %-7s %4d->%-4d | %10s %10s %10s | %6.1fx %6.1fx | %9.1f %9.1f %9.1f | %s\n",
			o0.Model, o0.Engine, o0.ActorsBefore, o0.ActorsAfter,
			fmtDur(o0.WallNanos), fmtDur(o1.WallNanos), fmtDur(o2.WallNanos),
			ratio(o0.WallNanos, o1.WallNanos), o2.Speedup,
			o0.NsPerActorStep, o1.NsPerActorStep, o2.NsPerActorStep, verdict(o0))
		if !perModel[o0.Model] {
			perModel[o0.Model] = true
			fmt.Fprintf(w, "%-6s   lower: %d fused, %d hoisted, %d narrowed -> %d effective actors\n",
				"", o2.FusedExprs, o2.HoistedExprs, o2.NarrowedSignals, o2.ActorsEffective)
		}
	}
}

// step renders a detection row's first-detect step.
func step(r MetricRow) int64 {
	if r.FirstDetect == nil {
		return -1
	}
	return *r.FirstDetect
}

// FormatCaseStudy prints the §4 error-injection study from CaseStudy's
// rows; chargeRate is the Config.ChargeRate they ran at.
func FormatCaseStudy(w io.Writer, chargeRate int64, rows []MetricRow) {
	fmt.Fprintf(w, "Case study: injected errors in CSEV (charge rate %d/step, predicted overflow at step %d)\n",
		chargeRate, benchmodels.OverflowStepOf(chargeRate))
	acc, sse := find(rows, "overflow", "AccMoS"), find(rows, "overflow", "SSE")
	fmt.Fprintf(w, "  error 1 (quantity wrap on overflow, long-horizon):\n")
	fmt.Fprintf(w, "    AccMoS: detected at step %d in %s (+ compile %s)\n",
		step(acc), fmtDur(acc.WallNanos), fmtDur(acc.CompileNanos))
	fmt.Fprintf(w, "    SSE:    detected at step %d in %s\n", step(sse), fmtDur(sse.WallNanos))
	if acc.WallNanos > 0 {
		red := 100 * (1 - float64(acc.WallNanos)/float64(sse.WallNanos))
		fmt.Fprintf(w, "    detection-time reduction: %.1f%% (paper: >99%%, 450.14s -> 0.74s)\n", red)
	}
	acc, sse = find(rows, "downcast", "AccMoS"), find(rows, "downcast", "SSE")
	fmt.Fprintf(w, "  error 2 (charging-power downcast, immediate):\n")
	fmt.Fprintf(w, "    AccMoS: detected at step %d in %s (+ compile %s)\n",
		step(acc), fmtDur(acc.WallNanos), fmtDur(acc.CompileNanos))
	fmt.Fprintf(w, "    SSE:    detected at step %d in %s (paper: both engines within 0.18-1.2s)\n",
		step(sse), fmtDur(sse.WallNanos))
}

// FormatFigure1 prints the motivating measurement from Figure1's rows;
// increment is the per-step accumulation they ran at.
func FormatFigure1(w io.Writer, increment int64, rows []MetricRow) {
	acc, sse := find(rows, "", "AccMoS"), find(rows, "", "SSE")
	fmt.Fprintf(w, "Figure 1 motivation: overflow of the sample model (increment %d/step, detected at step %d)\n",
		increment, step(acc))
	fmt.Fprintf(w, "  SSE:    %s\n", fmtDur(sse.WallNanos))
	fmt.Fprintf(w, "  AccMoS: %s (+ compile %s)\n", fmtDur(acc.WallNanos), fmtDur(acc.CompileNanos))
	fmt.Fprintf(w, "  speedup: %.1fx (paper: 184.74s vs 0.37s, ~500x)\n", ratio(sse.WallNanos, acc.WallNanos))
}

// a4Spans are the trace spans the A4 table prints, in pipeline order.
var a4Spans = []string{"schedule", "optimize", "instrument", "generate", "compile.gc", "compile.link"}

// FormatAblation prints the ablation rows: A1's per-variant wall clock
// and output verdict, then A4's front-end and build cost by trace span.
func FormatAblation(w io.Writer, rows []MetricRow) {
	fmt.Fprintf(w, "Ablation A1: instrumentation overhead of generated LANS (%d steps)\n", find(rows, "none", "AccMoS").Steps)
	fmt.Fprintf(w, "%-10s %10s %10s %10s | %s\n", "Variant", "AccMoS", "ns/step", "compile", "outputs vs SSE")
	for _, r := range rows {
		if r.Phases == nil {
			fmt.Fprintf(w, "%-10s %10s %10.1f %10s | %s\n", r.Variant, fmtDur(r.WallNanos),
				ratio(r.WallNanos, r.Steps), fmtDur(r.CompileNanos), verdict(r))
		}
	}
	fmt.Fprintf(w, "Ablation A4: one-time pipeline cost by trace span\n%-6s %-10s", "Model", "Variant")
	for _, s := range a4Spans {
		fmt.Fprintf(w, " %12s", s)
	}
	for _, r := range rows {
		if r.Phases != nil {
			fmt.Fprintf(w, "\n%-6s %-10s", r.Model, r.Variant)
			for _, s := range a4Spans {
				fmt.Fprintf(w, " %12s", fmtDur(r.Phases[s]))
			}
		}
	}
	fmt.Fprintln(w)
}

// fmtDur renders a duration in nanoseconds ("-" when not positive).
func fmtDur(ns int64) string {
	d := time.Duration(ns)
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
