package harness

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os/exec"
	"strings"
	"sync"
	"time"

	"accmos/internal/coverage"
	"accmos/internal/obs"
	"accmos/internal/simresult"
	"accmos/internal/simrt"
)

// serveFrame is the response header line on a worker's stdout: exactly
// one per request, carrying an error or followed by the run's raw result
// line.
type serveFrame struct {
	Marker int    `json:"accmosRun"`
	ID     string `json:"id"`
	Error  string `json:"error,omitempty"`
}

// WorkerStats summarizes a pool's lifetime activity. Spawns counts
// serve-mode processes started, Reuses counts requests served by an
// already-warm worker (the startup cost the pool amortized away), and
// Respawns counts workers destroyed after a failed request (a deadline,
// a protocol error, the worker's own death) — their slot respawns lazily
// on the next request. A RunBatch call counts as one request. Warm is
// the number of workers currently parked idle (a live gauge, not a
// lifetime counter). PerArtifact is the pool's per-binary worker cap.
type WorkerStats struct {
	PerArtifact int   `json:"perArtifact"`
	Spawns      int64 `json:"spawns"`
	Reuses      int64 `json:"reuses"`
	Respawns    int64 `json:"respawns"`
	Artifacts   int   `json:"artifacts"`
	Warm        int   `json:"warm"`
}

// WorkerPool keeps warm serve-mode processes per built artifact, so a
// sweep of many short runs pays Go process startup once per worker
// instead of once per run. Workers are spawned on demand, up to
// perArtifact per binary, and parked between requests. A worker that
// misses its deadline or breaks the frame protocol is killed (whole
// process group) and its slot respawns on the next request. All methods
// are safe for concurrent use.
type WorkerPool struct {
	perArtifact int

	mu     sync.Mutex
	arts   map[string]*poolArtifact
	closed bool

	spawns, reuses, respawns int64
}

// poolArtifact is the per-binary worker set: slots holds one token per
// not-yet-spawned worker; idle holds warm workers awaiting a request.
// A worker serving a request holds neither, so draining perArtifact
// tokens across both channels observes every worker exactly once.
type poolArtifact struct {
	bin   string
	slots chan struct{}
	idle  chan *serveWorker
}

// NewWorkerPool creates a pool keeping up to perArtifact warm processes
// per built binary (minimum 1).
func NewWorkerPool(perArtifact int) *WorkerPool {
	if perArtifact < 1 {
		perArtifact = 1
	}
	return &WorkerPool{perArtifact: perArtifact, arts: make(map[string]*poolArtifact)}
}

// Stats returns the pool's lifetime counters and the current warm-idle
// worker count.
func (p *WorkerPool) Stats() WorkerStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	warm := 0
	for _, art := range p.arts {
		warm += len(art.idle)
	}
	return WorkerStats{
		PerArtifact: p.perArtifact,
		Spawns:      p.spawns,
		Reuses:      p.reuses,
		Respawns:    p.respawns,
		Artifacts:   len(p.arts),
		Warm:        warm,
	}
}

// RunContext executes one simulation request on a warm worker for
// binPath, spawning one if none is idle and the per-artifact cap allows.
// It honors RunOptions exactly like the package-level RunContext:
// Steps/Budget/SeedXor select the simulated span, Timeout bounds the
// request (the worker is killed and left to respawn on overrun),
// Heartbeat/Progress stream run-tagged snapshots. reused reports whether
// an already-warm worker served the request.
func (p *WorkerPool) RunContext(ctx context.Context, binPath string, opts RunOptions) (res *simresult.Results, reused bool, err error) {
	defer opts.Trace.Start("run").End()
	reused, err = p.withWorker(ctx, binPath, &opts, func(w *serveWorker) (err error) {
		res, _, err = w.run(ctx, opts)
		return err
	})
	if err != nil {
		return nil, reused, err
	}
	return res, reused, nil
}

// RunBatch runs one request per seedXor, in seed order, on one warm
// worker for binPath: each a full run bounded by opts.Steps, opts.Budget
// and opts.Timeout, as RunContext runs it with that SeedXor. It returns
// the results in seed order plus the OR-merge of their coverage (nil when
// coverage is off); the results carry none. A run that fails fails the
// batch and retires the worker.
func (p *WorkerPool) RunBatch(ctx context.Context, binPath string, opts RunOptions, seedXors []uint64) (res []*simresult.Results, cov *coverage.Raw, reused bool, err error) {
	defer opts.Trace.Start("run").End()
	if len(seedXors) == 0 {
		return nil, nil, false, errors.New("harness: RunBatch needs at least one seed")
	}
	reused, err = p.withWorker(ctx, binPath, &opts, func(w *serveWorker) error {
		for _, seed := range seedXors {
			opts.SeedXor = seed
			r, _, err := w.run(ctx, opts)
			if err != nil {
				return err
			}
			if cov == nil {
				cov = r.Coverage
			} else if err := cov.Merge(r.Coverage); err != nil {
				return fmt.Errorf("harness: running %s: %w", opts.label(binPath), err)
			}
			r.Coverage = nil
			res = append(res, r)
		}
		return nil
	})
	if err != nil {
		return nil, nil, reused, err
	}
	return res, cov, reused, nil
}

// withWorker runs fn on a worker for binPath, acquired and released around
// the call; a worker that fn fails on is destroyed.
func (p *WorkerPool) withWorker(ctx context.Context, binPath string, opts *RunOptions, fn func(*serveWorker) error) (reused bool, err error) {
	art, err := p.artifact(binPath)
	if err != nil {
		return false, err
	}
	w, reused, err := p.acquire(ctx, art, opts)
	if err != nil {
		return false, err
	}
	err = fn(w)
	p.release(art, w, reused, err != nil)
	return reused, err
}

// artifact returns (creating on first use) the per-binary worker set.
func (p *WorkerPool) artifact(binPath string) (*poolArtifact, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return nil, errors.New("harness: worker pool is closed")
	}
	art := p.arts[binPath]
	if art == nil {
		art = &poolArtifact{
			bin:   binPath,
			slots: make(chan struct{}, p.perArtifact),
			idle:  make(chan *serveWorker, p.perArtifact),
		}
		for i := 0; i < p.perArtifact; i++ {
			art.slots <- struct{}{}
		}
		p.arts[binPath] = art
	}
	return art, nil
}

// release returns a worker to the idle set after a successful request,
// or destroys it and frees its slot: a worker that erred has suspect
// state and must never serve again (its slot respawns on demand), and a
// pool closed mid-request must not re-park live processes.
func (p *WorkerPool) release(art *poolArtifact, w *serveWorker, reused, failed bool) {
	if failed {
		w.destroy()
		art.slots <- struct{}{}
		p.mu.Lock()
		p.respawns++
		p.mu.Unlock()
		return
	}
	p.mu.Lock()
	if reused {
		p.reuses++
	}
	closed := p.closed
	p.mu.Unlock()
	if closed {
		w.destroy()
		art.slots <- struct{}{}
	} else {
		art.idle <- w
	}
}

// acquire obtains a worker: an idle one when available (preferred — that
// is the whole point of the pool), otherwise a fresh spawn if a slot is
// free, otherwise it blocks until either appears or ctx ends.
func (p *WorkerPool) acquire(ctx context.Context, art *poolArtifact, opts *RunOptions) (*serveWorker, bool, error) {
	select {
	case w := <-art.idle:
		return w, true, nil
	default:
	}
	select {
	case w := <-art.idle:
		return w, true, nil
	case <-art.slots:
		w, err := spawnWorker(art.bin)
		if err != nil {
			art.slots <- struct{}{}
			return nil, false, fmt.Errorf("harness: spawning worker for %s: %w", opts.label(art.bin), err)
		}
		p.mu.Lock()
		p.spawns++
		p.mu.Unlock()
		return w, false, nil
	case <-ctx.Done():
		return nil, false, fmt.Errorf("harness: running %s: %w", opts.label(art.bin), ctx.Err())
	}
}

// Close kills every worker and rejects further requests. It waits for
// in-flight requests to release their workers, so no serve-mode process
// outlives the pool.
func (p *WorkerPool) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	arts := make([]*poolArtifact, 0, len(p.arts))
	for _, a := range p.arts {
		arts = append(arts, a)
	}
	p.mu.Unlock()
	for _, art := range arts {
		// Collect perArtifact tokens per artifact: each worker is either
		// unspawned (slots), parked (idle — destroy it), or in flight (its
		// request's release path sees closed, destroys it, and returns the
		// slot token, which this loop then collects).
		for i := 0; i < p.perArtifact; i++ {
			select {
			case w := <-art.idle:
				w.destroy()
			case <-art.slots:
			}
		}
	}
}

// serveWorker is one live serve-mode process. A worker serves requests
// strictly one at a time (the pool guarantees exclusive ownership while a
// request is in flight). Its stdout is the one ordered stream of a
// request: heartbeats, then the response frame. Its stderr is
// diagnostics only; tailMu synchronizes the request goroutine with the
// long-lived stderr drain goroutine that keeps the tail.
type serveWorker struct {
	bin    string
	cmd    *exec.Cmd
	stdin  io.WriteCloser
	out    *bufio.Reader
	nextID int64

	tailMu     sync.Mutex
	tail       []string
	stderrDone chan struct{}

	waitOnce sync.Once
	exited   chan struct{} // closed once the process is reaped
	waitErr  error         // the exit status, set before exited closes
}

// spawnWorker starts binPath in serve mode with its pipes wired up and
// the stderr drain running. It is the only place the harness execs a
// generated binary.
func spawnWorker(binPath string) (*serveWorker, error) {
	cmd := exec.Command(binPath, "-serve")
	setProcGroup(cmd)
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	w := &serveWorker{
		bin:   binPath,
		cmd:   cmd,
		stdin: stdin,
		out:   bufio.NewReaderSize(stdout, 64*1024),

		stderrDone: make(chan struct{}),
		exited:     make(chan struct{}),
	}
	go w.drain(stderr)
	return w, nil
}

// drain consumes the worker's stderr for its whole life, keeping the
// last errTailLines lines as the diagnostic tail.
func (w *serveWorker) drain(r io.Reader) {
	defer close(w.stderrDone)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 1024*1024)
	for sc.Scan() {
		w.addTail(sc.Text())
	}
	if err := sc.Err(); err != nil {
		w.addTail(fmt.Sprintf("harness: stderr scan aborted (diagnostic tail truncated): %v", err))
		io.Copy(io.Discard, r)
	}
}

// addTail appends one line to the bounded diagnostic tail.
func (w *serveWorker) addTail(line string) {
	w.tailMu.Lock()
	defer w.tailMu.Unlock()
	w.tail = append(w.tail, line)
	if len(w.tail) > errTailLines {
		w.tail = w.tail[len(w.tail)-errTailLines:]
	}
}

// errTail snapshots the worker's diagnostic stderr tail for an error.
func (w *serveWorker) errTail() string {
	w.tailMu.Lock()
	defer w.tailMu.Unlock()
	return strings.Join(w.tail, "\n")
}

// fail builds a structured RunError around the worker's current
// evidence: the diagnostic stderr tail and the request's trailing
// heartbeats.
func (w *serveWorker) fail(opts RunOptions, timeline []obs.Snapshot, reason string, cause error, msg string) *RunError {
	w.tailMu.Lock()
	defer w.tailMu.Unlock()
	return &RunError{
		Model: opts.Model, Suite: opts.Suite, Bin: w.bin, Corr: opts.RunID,
		Reason: reason, ExitCode: -1,
		StderrTail: append([]string(nil), w.tail...), Heartbeats: heartbeatTail(timeline),
		Err: cause, msg: msg,
	}
}

// run sends one request, for opts.SeedXor, and decodes its result,
// whose Timeline is the request's heartbeats; it returns the timeline on
// failure too. The request carries the step count AND the budget: with
// both set the run stops at whichever bound is reached first. A worker
// that errors here must not be reused.
func (w *serveWorker) run(ctx context.Context, opts RunOptions) (*simresult.Results, []obs.Snapshot, error) {
	req := simrt.Request{SeedXor: opts.SeedXor, Steps: opts.Steps}
	if opts.Budget > 0 {
		req.BudgetMS = clampMS(opts.Budget)
	}
	line, timeline, err := w.exchange(ctx, opts, req)
	if err != nil {
		return nil, timeline, err
	}
	res := new(simresult.Results)
	if err := simresult.Decode(line, res); err != nil {
		return nil, timeline, w.fail(opts, timeline, ReasonDecode, err,
			fmt.Sprintf("harness: running %s: decoding the result: %v", opts.label(w.bin), err))
	}
	res.Timeline = timeline
	return res, timeline, nil
}

// exchange assigns the request id, sends one request line and reads the
// worker's stdout up to and through the response frame, returning the
// raw result line and the request's timeline. Heartbeat lines ahead of the
// frame are handled as they arrive: stamped with opts.RunID, appended to
// the timeline and passed to opts.Progress, so every Progress call has
// returned when exchange does. It enforces the per-request Timeout by
// killing the process group — the reading goroutine then unblocks on the
// closed pipe. Frame validation (marker, id, worker error) happens here;
// result decoding is the caller's.
func (w *serveWorker) exchange(ctx context.Context, opts RunOptions, req simrt.Request) ([]byte, []obs.Snapshot, error) {
	if opts.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, opts.Timeout)
		defer cancel()
	}
	if err := ctx.Err(); err != nil {
		return nil, nil, fmt.Errorf("harness: running %s: %w", opts.label(w.bin), err)
	}
	w.nextID++
	id := fmt.Sprintf("r%d", w.nextID)
	req.ID, req.Corr = id, opts.RunID
	if opts.Heartbeat > 0 {
		req.HeartbeatMS = clampMS(opts.Heartbeat)
	}
	line, err := json.Marshal(req)
	if err != nil {
		return nil, nil, fmt.Errorf("harness: encoding request: %w", err)
	}
	line = append(line, '\n')

	type exchanged struct {
		timeline []obs.Snapshot
		frame    serveFrame
		frameErr error // the frame line arrived but did not decode
		result   []byte
		err      error // the stream broke
	}
	ch := make(chan exchanged, 1)
	go func() {
		var ex exchanged
		defer func() { ch <- ex }()
		// A worker that died before reading the request still left its
		// heartbeats on stdout: read them, and report the failed write
		// only when the stream ends without a frame.
		_, werr := w.stdin.Write(line)
		var raw []byte
		for {
			if raw, ex.err = w.out.ReadBytes('\n'); ex.err != nil {
				if werr != nil {
					ex.err = fmt.Errorf("writing request: %w", werr)
				}
				return
			}
			snap, ok := obs.ParseHeartbeat(raw)
			if !ok {
				break
			}
			snap.Corr = opts.RunID
			ex.timeline = append(ex.timeline, snap)
			if opts.Progress != nil {
				opts.Progress(snap)
			}
		}
		ex.frameErr = json.Unmarshal(raw, &ex.frame)
		// A frame of this request that is no error is followed by the
		// result line; read it here so the cancellation kill path below
		// covers a worker wedged mid-request too.
		if ex.frameErr == nil && ex.frame.Marker == 1 && ex.frame.ID == id && ex.frame.Error == "" {
			if ex.result, ex.err = w.out.ReadBytes('\n'); ex.err != nil {
				ex.err = fmt.Errorf("reading the result line: %w", ex.err)
			}
		}
	}()
	var ex exchanged
	select {
	case <-ctx.Done():
		killProcGroup(w.cmd)
		ex = <-ch
		if errors.Is(ctx.Err(), context.DeadlineExceeded) && opts.Timeout > 0 {
			e := w.fail(opts, ex.timeline, ReasonTimeout, context.DeadlineExceeded,
				fmt.Sprintf("harness: running %s: worker killed after exceeding the %v timeout\n%s",
					opts.label(w.bin), opts.Timeout, w.errTail()))
			e.Timeout = opts.Timeout
			return nil, ex.timeline, e
		}
		return nil, ex.timeline, w.fail(opts, ex.timeline, ReasonCanceled, ctx.Err(),
			fmt.Sprintf("harness: running %s: worker killed: %v\n%s",
				opts.label(w.bin), ctx.Err(), w.errTail()))
	case ex = <-ch:
	}
	timeline := ex.timeline
	if ex.err != nil {
		// The stream broke, which usually means the worker died: reap it,
		// for a bounded while, so the error carries its exit code and its
		// complete stderr. A worker still alive after that broke the
		// protocol.
		w.stdin.Close()
		select {
		case <-w.reaped():
			if w.waitErr != nil {
				return nil, timeline, w.exitError(opts, timeline, w.waitErr)
			}
		case <-ctx.Done():
		case <-time.After(time.Second):
		}
		return nil, timeline, w.fail(opts, timeline, ReasonProtocol, ex.err,
			fmt.Sprintf("harness: running %s: worker protocol failure: %v\n%s",
				opts.label(w.bin), ex.err, w.errTail()))
	}
	frame := &ex.frame
	if err := ex.frameErr; err != nil {
		return nil, timeline, w.fail(opts, timeline, ReasonProtocol, err,
			fmt.Sprintf("harness: running %s: decoding worker frame: %v\n%s",
				opts.label(w.bin), err, w.errTail()))
	}
	if frame.Marker != 1 || frame.ID != id {
		return nil, timeline, w.fail(opts, timeline, ReasonProtocol, nil,
			fmt.Sprintf("harness: running %s: worker frame mismatch (marker %d, id %q, want %q)",
				opts.label(w.bin), frame.Marker, frame.ID, id))
	}
	if frame.Error != "" {
		return nil, timeline, w.fail(opts, timeline, ReasonWorker, nil,
			fmt.Sprintf("harness: running %s: worker: %s", opts.label(w.bin), frame.Error))
	}
	return ex.result, timeline, nil
}

// reaped starts, once, the goroutine that waits for the process to exit
// and returns the channel it closes when it has; waitErr then holds the
// exit status. The goroutine waits for stderr to drain first, so the
// diagnostic tail is complete. Wait closes the stdout pipe, so call
// reaped only once stdout holds nothing more the harness wants.
func (w *serveWorker) reaped() <-chan struct{} {
	w.waitOnce.Do(func() {
		go func() {
			<-w.stderrDone
			w.waitErr = w.cmd.Wait()
			close(w.exited)
		}()
	})
	return w.exited
}

// reap retires an ephemeral worker: close its stdin — a serving binary
// exits at EOF — and wait until it has exited, discarding anything more
// it writes to stdout, killing its process group if ctx ends first. It
// returns the exit error of a binary that exited non-zero on its own,
// and nil for a clean exit or a kill (the caller then already holds its
// answer or its error).
func (w *serveWorker) reap(ctx context.Context) error {
	w.stdin.Close()
	drained := make(chan struct{})
	go func() {
		io.Copy(io.Discard, w.out) // ends at EOF, or when Wait closes the pipe
		close(drained)
	}()
	var err error
	select {
	case <-w.reaped():
		err = w.waitErr
	case <-ctx.Done():
		w.destroy()
	}
	<-drained
	return err
}

// exitError is the failure of a binary that exited non-zero on its own,
// carrying its exit code and complete stderr evidence.
func (w *serveWorker) exitError(opts RunOptions, timeline []obs.Snapshot, waitErr error) *RunError {
	e := w.fail(opts, timeline, ReasonExit, waitErr,
		fmt.Sprintf("harness: running %s: %v\n%s", opts.label(w.bin), waitErr, w.errTail()))
	if ps := w.cmd.ProcessState; ps != nil {
		e.ExitCode = ps.ExitCode()
	}
	return e
}

// destroy kills the worker's process group, unless the process was
// already reaped, and waits until it is.
func (w *serveWorker) destroy() {
	w.stdin.Close()
	select {
	case <-w.exited:
	default:
		killProcGroup(w.cmd)
	}
	<-w.reaped()
}
