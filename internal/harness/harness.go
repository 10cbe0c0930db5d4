// Package harness compiles and executes AccMoS-generated simulation
// programs: it writes the generated source, invokes the Go compiler (the
// paper's "compile and execute the code" step), runs the binary, and
// decodes its results into the shared simresult schema.
//
// A BuildCache is the one builder: it compiles and links a model at most
// once per code content, under the caller's context (BuildContext), so
// a caller that gives up kills the compile or link in flight. A
// program's binary is a hard link to its model binary plus a params file
// holding its run parameters, so programs that differ only in those
// cost no compile and no link.
//
// Every run speaks one protocol: NDJSON requests on the binary's stdin
// (-serve) and, per request, one ordered stream on its stdout: the
// request's heartbeats, then its response frame. Stderr carries only
// diagnostics. A WorkerPool keeps such processes warm across requests;
// RunContext is the ephemeral case, one request per process. Both kill a
// wedged or runaway binary (its whole process group, so grandchildren
// die too) when the context is cancelled or the per-run Timeout elapses,
// and report the deadline in the error instead of hanging the caller.
package harness

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"time"

	"accmos/internal/codegen"
	"accmos/internal/obs"
	"accmos/internal/simresult"
)

// buildError wraps a failed build of p: the context's error when it was
// cancelled, else the tool's output with the offending source lines.
func buildError(ctx context.Context, p *codegen.Program, err error) error {
	if ctxErr := ctx.Err(); ctxErr != nil {
		return fmt.Errorf("harness: compiling generated program for %s: %w", p.Model, ctxErr)
	}
	var te *toolError
	if errors.As(err, &te) {
		return fmt.Errorf("harness: compiling generated program: %v\n%s", te.err, annotate(p.Source, te.output))
	}
	return fmt.Errorf("harness: compiling generated program: %w", err)
}

// artifactTag names a program's binary. It carries a short content hash:
// distinct models whose names sanitize identically (m.1 vs m_1) get
// distinct binaries, and two builds sharing one directory never race on
// a common file. Optimized programs additionally carry their opt level,
// so an -O0 and an -O1 build of one model are tell-apart on disk and can
// never serve each other's binary even if a hash were ever truncated
// into collision.
func artifactTag(p *codegen.Program) string {
	return tagFor(p, p.Hash())
}

// codeTag names the source and model binary a BuildCache keeps for a
// program, which programs differing only in their run parameters share:
// the same form as artifactTag, over the code hash.
func codeTag(p *codegen.Program) string {
	return tagFor(p, p.CodeHash())
}

// tagFor renders an artifact name from the model name, the opt level and
// the first ten digits of hash.
func tagFor(p *codegen.Program, hash string) string {
	if len(hash) > 10 {
		hash = hash[:10]
	}
	if p.Opt != "" {
		return "sim_" + sanitizeFile(p.Model) + "_" + sanitizeFile(p.Opt) + "_" + hash
	}
	return "sim_" + sanitizeFile(p.Model) + "_" + hash
}

// sanitizeFile keeps binary names filesystem-safe.
func sanitizeFile(s string) string {
	out := make([]rune, 0, len(s))
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_':
			out = append(out, r)
		default:
			out = append(out, '_')
		}
	}
	return string(out)
}

// annotate prefixes compiler errors with the offending source lines so
// generation bugs are debuggable from test failures.
func annotate(src, errs string) string {
	if len(errs) > 4096 {
		errs = errs[:4096] + "\n... (truncated)"
	}
	lines := strings.Split(strings.TrimSuffix(src, "\n"), "\n")
	out := errs + "\n--- generated source (first 120 lines) ---\n"
	for i, l := range lines {
		if i >= 120 {
			out += "...\n"
			break
		}
		out += fmt.Sprintf("%4d| %s\n", i+1, l)
	}
	return out
}

// RunOptions selects the simulated span for one execution.
type RunOptions struct {
	// Steps bounds the simulated step count. With Budget also set, the
	// run stops at whichever bound is reached first; Steps <= 0 under a
	// Budget means budget-only, and Steps <= 0 without one means the
	// default from the program's params file.
	Steps  int64
	Budget time.Duration // wall-clock budget
	// SeedXor perturbs the program's uniform test-case seeds, so one
	// binary sweeps many random suites.
	SeedXor uint64

	// Model and Suite label this run in errors: in a multi-model,
	// multi-suite workload (a parallel sweep, or the accmosd daemon
	// serving many jobs) a bare binary path does not say which model or
	// which sweep suite died. Model is the model name; Suite is the
	// 1-based suite index within a sweep (0 outside one). Both are
	// optional and purely diagnostic.
	Model string
	Suite int

	// RunID is the run's correlation ID (the job ID under accmosd, a
	// generated run ID for CLI runs). The harness stamps it onto every
	// decoded heartbeat (Snapshot.Corr) and onto run errors, so logs,
	// NDJSON events and failures for one run are joinable. Optional.
	RunID string

	// Timeout kills the binary (and its process group) when it runs
	// longer than this wall clock span — the guard against a wedged or
	// runaway generated program. Zero means no deadline.
	Timeout time.Duration

	// Heartbeat enables the binary's NDJSON progress records at this
	// interval. Zero leaves them off — the default.
	Heartbeat time.Duration
	// Progress receives each heartbeat snapshot as it is decoded; every
	// call has returned before the run does.
	Progress func(obs.Snapshot)
	// Trace records a "run" span when non-nil.
	Trace *obs.Tracer
}

// label renders the run's error identity: the model name and suite tag
// when the caller supplied them, always ending with the binary path.
// "CSEV suite 3 (/tmp/.../sim_CSEV_ab12cd34)" or just the path.
func (o *RunOptions) label(binPath string) string {
	var sb strings.Builder
	if o.Model != "" {
		sb.WriteString(o.Model)
		sb.WriteByte(' ')
	}
	if o.Suite > 0 {
		fmt.Fprintf(&sb, "suite %d ", o.Suite)
	}
	if sb.Len() > 0 {
		fmt.Fprintf(&sb, "(%s)", binPath)
		return sb.String()
	}
	return binPath
}

// errTailLines bounds how many stderr lines a run error carries — enough
// to diagnose a crash without drowning the error in a long panic trace.
const errTailLines = 20

// clampMS renders a positive duration in the whole milliseconds the
// request contract speaks, clamping sub-millisecond spans up to 1:
// emitting 0 would read as "disabled" on the other side.
func clampMS(d time.Duration) int64 {
	ms := d.Milliseconds()
	if ms <= 0 {
		ms = 1
	}
	return ms
}

// RunContext executes a built simulation binary once as an ephemeral
// serve-mode worker: spawn it, send one request, close its stdin and
// reap it. Heartbeat records ahead of the response frame become progress
// snapshots, delivered to opts.Progress and collected as the result
// Timeline. Stderr is diagnostics, of which the last errTailLines
// accompany a run error. When ctx is cancelled — or the opts.Timeout
// deadline passes — the binary's process group is killed and the
// returned *RunError names the reason instead of blocking until the
// process chooses to exit. A binary that exits non-zero fails with
// ReasonExit whatever it wrote.
func RunContext(ctx context.Context, binPath string, opts RunOptions) (*simresult.Results, error) {
	defer opts.Trace.Start("run").End()
	if opts.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, opts.Timeout)
		defer cancel()
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("harness: running %s: %w", opts.label(binPath), err)
	}
	w, err := spawnWorker(binPath)
	if err != nil {
		return nil, fmt.Errorf("harness: starting %s: %w", opts.label(binPath), err)
	}
	lanes, timeline, err := w.run(ctx, opts, []uint64{opts.SeedXor})
	if waitErr := w.reap(ctx); waitErr != nil {
		var re *RunError
		if err == nil || errors.As(err, &re) && re.Reason != ReasonTimeout && re.Reason != ReasonCanceled {
			return nil, w.exitError(opts, timeline, waitErr)
		}
	}
	if err != nil {
		return nil, err
	}
	lanes[0].Timeline = timeline
	return lanes[0], nil
}
