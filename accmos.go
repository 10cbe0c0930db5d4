// Package accmos is the public entry point of the AccMoS reproduction: it
// accelerates the simulation of discrete dataflow (Simulink-style) models
// by translating them into instrumented native code — with runtime actor
// information collection, coverage collection (actor, condition, decision,
// MC/DC) and calculation diagnosis — compiling and executing it, and
// returning the simulation results (paper: "AccMoS: Accelerating Model
// Simulation for Simulink via Code Generation", DAC 2024).
//
// The typical flow:
//
//	m, _ := accmos.LoadModel("model.xml")          // or build one with NewModelBuilder
//	res, _ := accmos.Simulate(m, accmos.Options{   // code-generated simulation
//	    Steps:    50_000_000,
//	    Coverage: true,
//	    Diagnose: true,
//	    TestCases: accmos.RandomTestCases(m, 42, -100, 100),
//	})
//	fmt.Println(res.CoverageReport(), res.DiagSummary())
//
// Interpret runs the same model on the reference step-by-step interpreter
// (the SSE baseline); both produce bit-identical output hashes, coverage
// bitmaps and diagnostic findings.
package accmos

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"runtime"
	"strings"
	"sync"
	"time"

	"accmos/internal/actors"
	"accmos/internal/codegen"
	"accmos/internal/coverage"
	"accmos/internal/diagnose"
	"accmos/internal/harness"
	"accmos/internal/interp"
	"accmos/internal/irjson"
	"accmos/internal/lint"
	"accmos/internal/model"
	"accmos/internal/obs"
	"accmos/internal/opt"
	"accmos/internal/rapid"
	"accmos/internal/simresult"
	"accmos/internal/simrt"
	"accmos/internal/slx"
	"accmos/internal/testcase"
)

// Re-exported building blocks, so library users need only this package.
type (
	// Model is a dataflow model (actors + relationships).
	Model = model.Model
	// ModelBuilder constructs models programmatically.
	ModelBuilder = model.Builder
	// TestCases describes the stimulus for every input port.
	TestCases = testcase.Set
	// TestSource is one port's stimulus generator.
	TestSource = testcase.Source
	// CustomCheck is a user-defined signal diagnosis.
	CustomCheck = diagnose.CustomCheck
	// DiagKind names a diagnosable error class.
	DiagKind = diagnose.Kind
	// CoverageReport holds the four coverage percentages.
	CoverageReport = coverage.Report
	// Tracer records pipeline phase spans (see Options.Trace).
	Tracer = obs.Tracer
	// Snapshot is one live progress observation (see Options.Progress).
	Snapshot = obs.Snapshot
)

// NewTracer starts a pipeline phase tracer for Options.Trace.
func NewTracer() *Tracer { return obs.NewTracer() }

// BuildCache memoises compiled generated programs by content hash; see
// Options.Cache. CacheStats snapshots its hit/miss/eviction counters.
type (
	BuildCache = harness.BuildCache
	CacheStats = harness.CacheStats
)

// NewBuildCache creates a private build cache rooted at dir ("" = a
// process-lifetime temp directory). A long-lived service should bound it
// with SetLimit.
func NewBuildCache(dir string) *BuildCache { return harness.NewBuildCache(dir) }

// WorkerPool keeps warm serve-mode processes per compiled artifact; see
// Options.Pool. WorkerStats snapshots its spawn/reuse/respawn counters.
type (
	WorkerPool  = harness.WorkerPool
	WorkerStats = harness.WorkerStats
)

// NewWorkerPool creates a worker pool keeping up to perArtifact warm
// serve-mode processes per compiled binary (minimum 1). Close it when
// done — warm workers are live child processes.
func NewWorkerPool(perArtifact int) *WorkerPool { return harness.NewWorkerPool(perArtifact) }

// RunError is the structured form of a generated-binary execution
// failure: what died (model, suite, binary, correlation ID), why (a
// Reason* constant, exit code, deadline) and bounded evidence (stderr
// tail, last heartbeats). Extract it with errors.As; Error() renders the
// familiar harness message.
type RunError = harness.RunError

// Machine-readable failure reasons recorded on a RunError.
const (
	ReasonTimeout  = harness.ReasonTimeout
	ReasonCanceled = harness.ReasonCanceled
	ReasonExit     = harness.ReasonExit
	ReasonProtocol = harness.ReasonProtocol
	ReasonWorker   = harness.ReasonWorker
	ReasonDecode   = harness.ReasonDecode
)

// NewRunID returns a fresh correlation ID ("r-" + 12 hex digits) for
// Options.RunID when the caller has no natural job ID of its own.
func NewRunID() string { return obs.NewRunID() }

// DefaultBuildCache returns the process-wide cache used when
// Options.Cache is not set.
func DefaultBuildCache() *BuildCache { return harness.DefaultCache }

// Diagnosis kinds (see internal/diagnose for the full catalogue).
const (
	WrapOnOverflow   = diagnose.WrapOnOverflow
	Downcast         = diagnose.Downcast
	DivisionByZero   = diagnose.DivisionByZero
	PrecisionLoss    = diagnose.PrecisionLoss
	IndexOutOfBounds = diagnose.IndexOutOfBounds
	DomainError      = diagnose.DomainError
)

// Test-case source kinds.
const (
	TestConst   = testcase.Const
	TestUniform = testcase.Uniform
	TestRamp    = testcase.Ramp
	TestSine    = testcase.Sine
	TestPulse   = testcase.Pulse
	TestTable   = testcase.Table
)

// NewModelBuilder starts building a model in code.
func NewModelBuilder(name string) *ModelBuilder { return model.NewBuilder(name) }

// LoadModel reads a model file: the two-part XML format by default, or
// the tool-agnostic JSON IR (§5 extensibility) for .json paths.
func LoadModel(path string) (*Model, error) {
	if strings.HasSuffix(path, ".json") {
		return irjson.ReadModelFile(path)
	}
	return slx.ReadFile(path)
}

// LoadModelBytes parses a model from an in-memory document — the
// submission path of a network service, where no file exists. The format
// is auto-detected: a document whose first non-space byte is '{' is JSON
// IR, anything else is the two-part SLX XML.
func LoadModelBytes(data []byte) (*Model, error) {
	if isJSONDoc(data) {
		doc, err := irjson.Decode(bytes.NewReader(data))
		if err != nil {
			return nil, err
		}
		return doc.ToModel()
	}
	return slx.Decode(bytes.NewReader(data))
}

func isJSONDoc(data []byte) bool {
	trimmed := bytes.TrimLeft(data, " \t\r\n")
	return len(trimmed) > 0 && trimmed[0] == '{'
}

// SaveModel writes a model file, selecting the format by extension like
// LoadModel.
func SaveModel(path string, m *Model) error {
	if strings.HasSuffix(path, ".json") {
		return irjson.WriteModelFile(path, m)
	}
	return slx.WriteFile(path, m)
}

// RandomTestCases builds uniform random stimuli over [lo, hi] for every
// input port of m, seeded deterministically.
func RandomTestCases(m *Model, seed uint64, lo, hi float64) *TestCases {
	n := 0
	for _, a := range m.Actors {
		if a.Type == "Inport" {
			n++
		}
	}
	return testcase.NewRandomSet(n, seed, lo, hi)
}

// OptLevel selects the optimizing middle-end level (see internal/opt):
// the pass pipeline over the compiled model that runs before any engine.
type OptLevel int

const (
	// OptDefault applies the default level, currently O1.
	OptDefault OptLevel = iota
	// OptO0 disables every optimization pass.
	OptO0
	// OptO1 enables constant folding, common-subexpression elimination
	// and dead-actor elimination.
	OptO1
	// OptO2 additionally lowers the O1 graph to a typed expression IR:
	// single-consumer arithmetic/logic/compare chains fuse into one
	// generated Go expression, loop-invariant subtrees hoist out of the
	// step loop, and signal storage narrows by inferred width. Only the
	// generated engine changes; the in-process engines run the O1 model.
	OptO2
)

// String renders the level the way the -O flag spells it.
func (l OptLevel) String() string { return l.level().String() }

func (l OptLevel) level() opt.Level {
	switch l {
	case OptO0:
		return opt.O0
	case OptO2:
		return opt.O2
	}
	return opt.O1
}

// OptLevelFromInt maps a CLI -O value (0, 1 or 2) to an OptLevel.
func OptLevelFromInt(n int) (OptLevel, error) {
	switch n {
	case 0:
		return OptO0, nil
	case 1:
		return OptO1, nil
	case 2:
		return OptO2, nil
	}
	return OptDefault, fmt.Errorf("accmos: unsupported opt level -O%d (supported: 0, 1, 2)", n)
}

// OptPassStat records how many sites one optimizer pass rewrote.
type OptPassStat = opt.PassStat

// OptStats summarises what the optimizing middle-end did for one run.
type OptStats struct {
	Level        string        `json:"level"`
	ActorsBefore int           `json:"actorsBefore"`
	ActorsAfter  int           `json:"actorsAfter"`
	Passes       []OptPassStat `json:"passes,omitempty"`
	// O2 middle-end counters (zero below O2).
	FusedExprs      int `json:"fusedExprs,omitempty"`
	HoistedExprs    int `json:"hoistedExprs,omitempty"`
	NarrowedSignals int `json:"narrowedSignals,omitempty"`
	// EffectiveActors is the post-fusion step-loop statement count —
	// the denominator ns-per-actor-step reporting uses. Equals
	// ActorsAfter below O2.
	EffectiveActors int `json:"effectiveActors"`
}

// Options configures a simulation through the facade.
type Options struct {
	// Steps bounds the simulation length (default 1000). With Budget
	// also set, the run stops at whichever bound is reached first; zero
	// with Budget set means budget-only. Every engine reads the budget
	// before every 1024th step. A negative Steps or Budget is an error.
	Steps int64
	// Budget bounds wall-clock execution instead of (or alongside) the
	// step count.
	Budget time.Duration

	// Coverage enables actor/condition/decision/MC-DC collection.
	Coverage bool
	// Diagnose enables calculation diagnosis.
	Diagnose bool
	// Monitor lists actor names whose outputs are recorded each step.
	Monitor []string
	// Custom adds user-defined signal diagnoses.
	Custom []CustomCheck
	// MaxMonitorSamples bounds recorded samples per monitored actor
	// (default 16).
	MaxMonitorSamples int
	// StopOnDiag stops the run when this diagnosis kind first fires;
	// StopOnActor optionally narrows it to one actor path.
	StopOnDiag  DiagKind
	StopOnActor string

	// TestCases supplies input stimuli; defaults to uniform random [-1,1].
	TestCases *TestCases

	// OptLevel selects the optimizing middle-end level (default: O1).
	// All engines run the same optimized model; instrumentation-sound
	// passes keep output hashes, coverage bitmaps and diagnosis counts
	// byte-identical to an O0 run.
	OptLevel OptLevel

	// Cache is the build cache that compiles and keeps the generated
	// program (default: the process-wide cache, so repeated calls on the
	// same model and options reuse the compiled binary instead of
	// compiling again). A long-lived service gives each daemon instance
	// its own bounded cache; NewBuildCache(dir) keeps the generated
	// sources and binaries in dir for inspection.
	Cache *BuildCache

	// Timeout kills a generated-binary execution (its whole process
	// group) that exceeds this wall-clock deadline, turning a wedged or
	// runaway program into an error instead of a hang. Zero = no
	// deadline. Applies per run: each suite of a Sweep gets its own span.
	Timeout time.Duration

	// Parallelism bounds how many requests Sweep executes concurrently
	// (default GOMAXPROCS; 1 forces the sequential path). Merged
	// coverage and the Runs order are identical at any parallelism.
	Parallelism int

	// Pool routes execution through an externally owned worker pool —
	// how a long-lived service (accmosd) keeps serve-mode processes warm
	// across calls that share an artifact. The caller closes it. Without
	// one, each Simulate or Sweep call runs on a pool of its own that
	// dies with the call.
	Pool *WorkerPool

	// RunID is the run's correlation ID — the job ID under accmosd, a
	// NewRunID() value for CLI runs. When set, every progress snapshot,
	// trace span set, and structured run error carries it, so logs and
	// event streams from one run are joinable across processes. Optional;
	// empty leaves everything untagged as before.
	RunID string

	// Progress receives live progress snapshots while the simulation
	// runs: for Simulate these are the generated program's
	// heartbeats; for the in-process engines, step-loop ticks. Setting it
	// (or ProgressEvery) also records the Timeline in the Result.
	Progress func(Snapshot)
	// ProgressEvery is the snapshot interval (default 500ms).
	ProgressEvery time.Duration
	// Trace, when non-nil, records pipeline phase spans
	// (schedule/instrument/generate/compile/run) for this call.
	Trace *Tracer
}

// progressEvery returns the heartbeat interval, or 0 when progress
// reporting is disabled.
func (o *Options) progressEvery() time.Duration {
	if o.Progress == nil && o.ProgressEvery <= 0 {
		return 0
	}
	if o.ProgressEvery > 0 {
		return o.ProgressEvery
	}
	return obs.DefaultInterval
}

// runSteps is the step bound of a run: the 1000-step default applies
// only to unbudgeted runs — under a Budget, a zero Steps means
// budget-only and an explicit Steps bounds the run alongside the budget
// (whichever is reached first wins).
func (o *Options) runSteps() int64 {
	if o.Steps == 0 && o.Budget == 0 {
		return 1000
	}
	return o.Steps
}

// Result is a simulation outcome.
type Result struct {
	*simresult.Results
	layout *coverage.Layout

	// CacheHit reports that the generated binary came from the build
	// cache (CompileNanos is then the original build's amortised cost) —
	// how a serving layer proves cross-request compile amortization.
	CacheHit bool

	// WorkerReuse reports that this run was served by an already-warm
	// serve-mode worker — the per-run process startup was amortized away
	// (false for the first request a fresh worker serves).
	WorkerReuse bool

	// Opt reports what the optimizing middle-end did (nil only for
	// results that never went through prepare).
	Opt *OptStats

	// ArtifactHash is the content-hash key of the generated program
	// (codegen.Program.Hash): the build-cache key of the binary this run
	// executed, so a caller can tell which runs shared one binary ("" for
	// the in-process engines, which compile nothing).
	ArtifactHash string
}

// CoverageReport computes the four coverage percentages, or a zero report
// when coverage was not collected.
func (r *Result) CoverageReport() CoverageReport {
	if r.Results.Coverage == nil || r.layout == nil {
		return CoverageReport{}
	}
	return r.layout.Report(r.Results.Coverage)
}

// Uncovered lists the coverage points the run missed, as human-readable
// lines ("actor M_SUB_ADD2 never executed", "decision ... never false"),
// or nil when coverage was not collected.
func (r *Result) Uncovered() []string {
	if r.Results.Coverage == nil || r.layout == nil {
		return nil
	}
	return r.layout.Uncovered(r.Results.Coverage)
}

// CSVTestCases loads stimuli from a CSV file (one column per input port,
// one row per step, cycled).
func CSVTestCases(path string) (*TestCases, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("accmos: %w", err)
	}
	defer f.Close()
	return testcase.ReadCSV(f)
}

// Compile elaborates and schedules a model (the model preprocessing step).
func Compile(m *Model) (*actors.Compiled, error) { return actors.Compile(m) }

// LintFinding is one static model diagnosis.
type LintFinding = lint.Finding

// Lint runs the static model checks (dead logic, constant branch
// conditions, downcasts, coupled MC/DC conditions, ...) without
// simulating.
func Lint(m *Model) ([]LintFinding, error) {
	c, err := actors.Compile(m)
	if err != nil {
		return nil, err
	}
	return lint.Check(c), nil
}

// GenerateSource returns the instrumented simulation program AccMoS
// generates for m, without compiling it — useful for inspection. A
// header comment gives the run parameters (steps default, uniform seeds
// and ranges), which the source itself does not hold, and the command
// that writes them to the params file beside a built binary: a binary
// without that file exits with status 2.
func GenerateSource(m *Model, opts Options) (string, error) {
	if err := opts.begin(); err != nil {
		return "", err
	}
	prog, _, err := generate(m, &opts)
	if err != nil {
		return "", err
	}
	return "// Build inside module accmos with go build -o BIN, then write its run parameters: printf %s '" +
		prog.Params + "' > BIN" + simrt.ParamsSuffix + "\n" + prog.Source, nil
}

// ProgramHash returns the content-hash key the build cache would use for
// m under opts — the codegen.Program.Hash of the generated (but not
// compiled) program. Two callers computing it with identical model
// documents and options get identical keys, so a caller can tell whether
// a job will hit the cache without compiling anything. Sweep jobs force
// coverage on (exactly as Sweep does), so pass the options the job will
// actually run with.
func ProgramHash(m *Model, opts Options) (string, error) {
	if err := opts.begin(); err != nil {
		return "", err
	}
	prog, _, err := generate(m, &opts)
	if err != nil {
		return "", err
	}
	return prog.Hash(), nil
}

// generate runs the front end for the generated engine: prepare and
// code generation.
func generate(m *Model, opts *Options) (*codegen.Program, *opt.Result, error) {
	or, tcs, err := prepare(m, opts)
	if err != nil {
		return nil, nil, err
	}
	co := codegenOptions(*opts, tcs)
	co.Layout, co.Premark, co.Plan = or.Layout, or.Premark, or.Plan
	prog, err := codegen.Generate(or.Compiled, co)
	if err != nil {
		return nil, nil, err
	}
	return prog, or, nil
}

// begin validates the run bounds and stamps the run's correlation ID on
// its telemetry. Every public entry point calls it once, before the front
// end runs or is skipped.
func (opts *Options) begin() error {
	if opts.Steps < 0 || opts.Budget < 0 {
		return fmt.Errorf("accmos: negative run bound (Steps %d, Budget %v)", opts.Steps, opts.Budget)
	}
	if opts.RunID != "" {
		// Stamp the correlation ID everywhere this call emits telemetry:
		// the tracer's spans, and every progress snapshot (the harness
		// stamps heartbeats from generated binaries itself; this wrapper
		// covers the in-process engines, which publish snapshots directly).
		opts.Trace.SetCorr(opts.RunID)
		if cb, corr := opts.Progress, opts.RunID; cb != nil {
			opts.Progress = func(s Snapshot) {
				if s.Corr == "" {
					s.Corr = corr
				}
				cb(s)
			}
		}
	}
	return nil
}

// prepare compiles the model, fills the test-case default, and runs the
// optimizing middle-end. Every entry point — all four engines and source
// generation — consumes the returned opt.Result, so one pass pipeline
// accelerates every execution path.
func prepare(m *Model, opts *Options) (*opt.Result, *TestCases, error) {
	sp := opts.Trace.Start("schedule")
	c, err := actors.Compile(m)
	sp.End()
	if err != nil {
		return nil, nil, err
	}
	tcs := opts.TestCases
	if tcs == nil {
		tcs = testcase.NewRandomSet(len(c.Inports), 1, -1, 1)
	}
	osp := opts.Trace.Start("optimize")
	or, err := opt.Optimize(c, optOptions(*opts))
	osp.End()
	if err != nil {
		return nil, nil, err
	}
	return or, tcs, nil
}

// optStats renders an opt.Result for the public Result.
func optStats(opts *Options, or *opt.Result) *OptStats {
	return &OptStats{
		Level:           opts.OptLevel.String(),
		ActorsBefore:    or.ActorsBefore,
		ActorsAfter:     or.ActorsAfter,
		Passes:          or.Passes,
		FusedExprs:      or.FusedExprs,
		HoistedExprs:    or.HoistedExprs,
		NarrowedSignals: or.NarrowedSignals,
		EffectiveActors: or.EffectiveActors,
	}
}

// optOptions maps the facade options onto the optimizer's.
func optOptions(opts Options) opt.Options {
	return opt.Options{
		Level:       opts.OptLevel.level(),
		Coverage:    opts.Coverage,
		Diagnose:    opts.Diagnose,
		Monitor:     opts.Monitor,
		Custom:      opts.Custom,
		StopOnActor: opts.StopOnActor,
		Trace:       opts.Trace,
	}
}

// codegenOptions maps the facade options onto the code generator's. The
// fields the optimizer derives (Layout, Premark, Plan) are left for
// generate to fill.
func codegenOptions(opts Options, tcs *TestCases) codegen.Options {
	return codegen.Options{
		Coverage:          opts.Coverage,
		Diagnose:          opts.Diagnose,
		Monitor:           opts.Monitor,
		Custom:            opts.Custom,
		MaxMonitorSamples: opts.MaxMonitorSamples,
		StopOnDiag:        opts.StopOnDiag,
		StopOnActor:       opts.StopOnActor,
		TestCases:         tcs,
		Trace:             opts.Trace,
		Opt:               opts.OptLevel.String(),
		DefaultSteps:      opts.Steps, // 0: codegen's 1000, written to the params file
	}
}

// Simulate runs the full AccMoS pipeline on m: model preprocessing,
// simulation-oriented instrumentation, simulation code synthesis,
// compilation, and execution. Compiled binaries are cached by program
// content (see Options.Cache), so repeated calls on the same model and
// options skip the compile step.
func Simulate(m *Model, opts Options) (*Result, error) {
	return SimulateContext(context.Background(), m, opts)
}

// SimulateContext is Simulate bounded by ctx: cancellation kills the
// compile or link in flight, or the generated binary's process group, and
// returns an error wrapping ctx's error instead of waiting for either to
// finish. Options.Timeout bounds the run alone.
func SimulateContext(ctx context.Context, m *Model, opts Options) (*Result, error) {
	x, err := newExecutor(ctx, m, &opts, false)
	if err != nil {
		return nil, err
	}
	runs, _, err := x.execute(ctx, []uint64{0})
	if err != nil {
		return nil, err
	}
	return runs[0], nil
}

// SweepResult aggregates a multi-suite coverage sweep.
type SweepResult struct {
	// Runs holds each suite's individual results, in seedXors order.
	Runs   []*Result
	layout *coverage.Layout
	merged *coverage.Raw
}

// MergedCoverage reports coverage accumulated across every suite.
func (s *SweepResult) MergedCoverage() CoverageReport {
	if s.merged == nil {
		return CoverageReport{}
	}
	return s.layout.Report(s.merged)
}

// MergedUncovered lists the points no suite reached.
func (s *SweepResult) MergedUncovered() []string {
	if s.merged == nil {
		return nil
	}
	return s.layout.Uncovered(s.merged)
}

// Sweep compiles the model once and executes it under one random test
// suite per seedXor (each XORed into the uniform seeds of the binary's
// params file), merging coverage across suites — the test-adequacy workflow the paper motivates:
// keep adding random suites until the merged coverage stops growing.
// Coverage is forced on, and every suite is one request that reports its
// own coverage. Requests run concurrently up to Options.Parallelism
// (default GOMAXPROCS); the merged coverage and the Runs order are
// deterministic regardless of concurrency.
func Sweep(m *Model, opts Options, seedXors []uint64) (*SweepResult, error) {
	return SweepContext(context.Background(), m, opts, seedXors)
}

// SweepContext is Sweep bounded by a context: cancelling ctx kills the
// compile or link in flight, or the in-flight generated binaries, and an
// Options.Timeout expiring on any suite kills that suite; either returns
// the first error. Alongside a non-nil error the returned SweepResult is
// the partial sweep: suites that never finished (all of them when the
// build was cancelled) leave nil entries in Runs (callers must nil-check
// before dereferencing) and the merged coverage covers only the
// completed suites.
func SweepContext(ctx context.Context, m *Model, opts Options, seedXors []uint64) (*SweepResult, error) {
	if len(seedXors) == 0 {
		return nil, fmt.Errorf("accmos: Sweep needs at least one seed")
	}
	opts.Coverage = true
	x, err := newExecutor(ctx, m, &opts, true)
	if err != nil {
		if ctx.Err() != nil && errors.Is(err, ctx.Err()) {
			return &SweepResult{Runs: make([]*Result, len(seedXors))}, err
		}
		return nil, err
	}
	sw := &SweepResult{layout: x.layout}
	sw.Runs, sw.merged, err = x.execute(ctx, seedXors)
	return sw, err
}

// executor runs one compiled generated program for Simulate and Sweep.
type executor struct {
	opts        *Options
	model       string
	suites      bool // tag runs with their 1-based suite index (sweeps)
	hash        string
	layout      *coverage.Layout
	stats       *OptStats
	bin         string
	compileTime time.Duration
	cacheHit    bool
}

// newExecutor gets the built program for m under opts. Inputs the cache's
// front-end memo has seen (same model structure, options and test cases)
// reuse the remembered program and its binary; new inputs go through the
// front end and BuildContext under ctx, and are remembered. A "frontend"
// span with a memo attribute records which path ran; on a miss it holds
// the schedule/optimize/instrument/generate spans.
func newExecutor(ctx context.Context, m *Model, opts *Options, suites bool) (*executor, error) {
	if err := opts.begin(); err != nil {
		return nil, err
	}
	cache := opts.Cache
	if cache == nil {
		cache = harness.DefaultCache
	}
	fp := m.Fingerprint()
	oo, co := optOptions(*opts), codegenOptions(*opts, opts.TestCases)
	digest := inputDigest(fp, &oo, &co)
	x := &executor{opts: opts, model: m.Name, suites: suites}

	sp := opts.Trace.Start("frontend")
	if fr, bin, compileTime, ok := cache.Recall(digest); ok {
		sp.Set("memo", "hit")
		sp.End()
		// The binary came from the cache: keep the traced pipeline's
		// one-compile-per-run shape, as a Build hit does.
		opts.Trace.Start("compile").End()
		x.hash, x.layout, x.stats = fr.Hash, fr.Layout, fr.Opt.(*OptStats)
		x.bin, x.compileTime, x.cacheHit = bin, compileTime, true
		return x, nil
	}
	sp.Set("memo", "miss")
	prog, or, err := generate(m, opts)
	sp.End()
	if err != nil {
		return nil, err
	}
	x.bin, x.compileTime, x.cacheHit, err = cache.BuildContext(ctx, prog, opts.Trace)
	if err != nil {
		return nil, err
	}
	x.hash, x.layout, x.stats = prog.Hash(), prog.Layout, optStats(opts, or)
	cache.Remember(digest, &harness.Front{Model: fp, Hash: x.hash, Layout: x.layout, Opt: x.stats})
	return x, nil
}

// execute runs the program once per seed, one WorkerPool request each,
// and returns the runs in seed order plus their OR-merged coverage. Runs
// execute concurrently up to Options.Parallelism (default GOMAXPROCS) on
// the caller's Options.Pool, or on a pool local to the call. The first
// failure cancels the rest; unfinished seeds leave nil Runs slots and
// the merged coverage covers only what completed.
func (x *executor) execute(ctx context.Context, seedXors []uint64) ([]*Result, *coverage.Raw, error) {
	n := len(seedXors)
	workers := x.opts.Parallelism
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, n)
	pool := x.opts.Pool
	if pool == nil {
		pool = NewWorkerPool(workers)
		defer pool.Close()
	}

	runs := make([]*Result, n)
	merged := x.layout.NewRaw()
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		mu       sync.Mutex // guards runs and merged (bitwise OR: order-independent)
		cbMu     sync.Mutex // serialises the caller's Progress callback
		errOnce  sync.Once
		firstErr error
		wg       sync.WaitGroup
	)
	fail := func(err error) {
		errOnce.Do(func() {
			firstErr = err
			cancel() // kill in-flight requests; queued ones are skipped
		})
	}
	jobs := make(chan int)
	for w := 1; w <= workers; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for i := range jobs {
				if runCtx.Err() != nil {
					continue
				}
				res, reused, err := x.run(runCtx, pool, worker, i, seedXors[i], &cbMu)
				if err != nil {
					fail(err)
					continue
				}
				res.CompileNanos = x.compileTime.Nanoseconds()
				stats := *x.stats
				mu.Lock()
				if res.Coverage != nil {
					err = merged.Merge(res.Coverage)
				}
				runs[i] = &Result{
					Results: res, layout: x.layout, CacheHit: x.cacheHit,
					WorkerReuse: reused, Opt: &stats, ArtifactHash: x.hash,
				}
				mu.Unlock()
				if err != nil {
					fail(err)
				}
			}
		}(w)
	}
	for i := 0; i < n; i++ {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	if firstErr != nil {
		return runs, merged, firstErr
	}
	return runs, merged, ctx.Err()
}

// run sends suite i (0-based) with its seedXor as one pool request.
func (x *executor) run(ctx context.Context, pool *WorkerPool, worker, i int, seedXor uint64, cbMu *sync.Mutex) (*simresult.Results, bool, error) {
	opts := x.opts
	ro := harness.RunOptions{
		Steps:     opts.runSteps(),
		Budget:    opts.Budget,
		SeedXor:   seedXor,
		Model:     x.model,
		RunID:     opts.RunID,
		Timeout:   opts.Timeout,
		Heartbeat: opts.progressEvery(),
		Progress:  opts.Progress,
		Trace:     opts.Trace,
	}
	if x.suites {
		ro.Suite = i + 1 // 1-based, for error labels and snapshots
		if cb := opts.Progress; cb != nil {
			ro.Progress = func(s Snapshot) {
				s.Worker, s.Suite = worker, i+1
				cbMu.Lock()
				defer cbMu.Unlock()
				cb(s)
			}
		}
	}
	return pool.RunContext(ctx, x.bin, ro)
}

// Interpret runs m on the reference interpreted engine (the SSE baseline)
// with the same functionality: full diagnostics, coverage, monitoring and
// custom checks.
func Interpret(m *Model, opts Options) (*Result, error) {
	return runInProcess(m, opts, func(or *opt.Result, opts *Options) (engine, *coverage.Layout, error) {
		e, err := interp.New(or.Compiled, interp.Options{
			Coverage:          opts.Coverage,
			Diagnose:          opts.Diagnose,
			Monitor:           opts.Monitor,
			Custom:            opts.Custom,
			MaxMonitorSamples: opts.MaxMonitorSamples,
			StopOnDiag:        opts.StopOnDiag,
			StopOnActor:       opts.StopOnActor,
			Progress:          opts.Progress,
			ProgressEvery:     opts.progressEvery(),
			Layout:            or.Layout,
			Premark:           or.Premark,
		})
		if err != nil {
			return nil, nil, err
		}
		return e, e.Layout(), nil
	})
}

// Accelerate runs m on the Accelerator-mode baseline (compiled closures,
// per-step host synchronisation, no diagnostics or coverage).
func Accelerate(m *Model, opts Options) (*Result, error) {
	return runInProcess(m, opts, func(or *opt.Result, opts *Options) (engine, *coverage.Layout, error) {
		e, err := interp.NewAccel(or.Compiled)
		if err != nil {
			return nil, nil, err
		}
		e.SetProgress(opts.progressEvery(), opts.Progress)
		return e, nil, nil
	})
}

// RapidAccelerate runs m on the Rapid-Accelerator-mode baseline (unboxed
// precompiled closures, batched host synchronisation, no diagnostics or
// coverage).
func RapidAccelerate(m *Model, opts Options) (*Result, error) {
	return runInProcess(m, opts, func(or *opt.Result, opts *Options) (engine, *coverage.Layout, error) {
		e, err := rapid.New(or.Compiled)
		if err != nil {
			return nil, nil, err
		}
		e.SetProgress(opts.progressEvery(), opts.Progress)
		return e, nil, nil
	})
}

// engine is the run surface the three in-process engines share: Run
// stops at whichever of steps and budget is reached first.
type engine interface {
	Run(tcs *TestCases, steps int64, budget time.Duration) (*simresult.Results, error)
}

// runInProcess runs m on the in-process engine newEngine builds from the
// optimized model: prepare, then one "run" span bounded like a generated
// run (see Options.Steps). newEngine wires progress reporting from the
// prepared options; the layout it returns (nil without coverage) backs
// Result.CoverageReport.
func runInProcess(m *Model, opts Options, newEngine func(*opt.Result, *Options) (engine, *coverage.Layout, error)) (*Result, error) {
	if err := opts.begin(); err != nil {
		return nil, err
	}
	or, tcs, err := prepare(m, &opts)
	if err != nil {
		return nil, err
	}
	e, layout, err := newEngine(or, &opts)
	if err != nil {
		return nil, err
	}
	steps := opts.runSteps()
	if steps == 0 {
		steps = math.MaxInt64 // budget-only
	}
	sp := opts.Trace.Start("run")
	res, err := e.Run(tcs, steps, opts.Budget)
	sp.End()
	if err != nil {
		return nil, err
	}
	return &Result{Results: res, layout: layout, Opt: optStats(&opts, or)}, nil
}
