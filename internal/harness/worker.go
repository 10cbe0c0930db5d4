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
// one per request, carrying an error or the count of raw result lines
// that follow it, one per lane.
type serveFrame struct {
	Marker    int    `json:"accmosRun"`
	ID        string `json:"id"`
	Error     string `json:"error,omitempty"`
	LaneCount int    `json:"laneCount,omitempty"`
}

// WorkerStats summarizes a pool's lifetime activity. Spawns counts
// serve-mode processes started, Reuses counts requests served by an
// already-warm worker (the startup cost the pool amortized away), and
// Respawns counts workers killed after a deadline or protocol error —
// their slot respawns lazily on the next request. Batches counts batch
// requests dispatched (each covering many lanes in one frame). Warm is
// the number of workers currently parked idle (a live gauge, not a
// lifetime counter).
type WorkerStats struct {
	Spawns    int64 `json:"spawns"`
	Reuses    int64 `json:"reuses"`
	Respawns  int64 `json:"respawns"`
	Batches   int64 `json:"batches,omitempty"`
	Artifacts int   `json:"artifacts"`
	Warm      int   `json:"warm"`
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

	spawns, reuses, respawns, batches int64
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

// PerArtifact returns the pool's per-binary worker cap.
func (p *WorkerPool) PerArtifact() int { return p.perArtifact }

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
		Spawns: p.spawns, Reuses: p.reuses, Respawns: p.respawns,
		Batches: p.batches, Artifacts: len(p.arts), Warm: warm,
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
	reused, err = p.withWorker(ctx, binPath, &opts, func(w *serveWorker) error {
		lanes, err := w.run(ctx, opts, []uint64{opts.SeedXor})
		if err == nil {
			res = lanes[0]
			res.Timeline = w.endRun()
		}
		return err
	})
	if err != nil {
		return nil, reused, err
	}
	return res, reused, nil
}

// RunBatch executes one multi-lane request on a warm worker for binPath:
// one lane per seedXor, each a full run bounded by opts.Steps and
// opts.Budget like a single run, which the program runs back to back
// behind a single request/response frame. It returns per-lane results in
// seed order plus the lanes' OR-merged coverage (nil when coverage is
// off), which it moves off the last lane; the lanes carry no coverage.
// opts.Timeout bounds the whole request — callers scale it by the lane
// count when they mean a per-run deadline. The request's heartbeats sum
// steps over its lanes.
func (p *WorkerPool) RunBatch(ctx context.Context, binPath string, opts RunOptions, seedXors []uint64) (res []*simresult.Results, cov *coverage.Raw, reused bool, err error) {
	defer opts.Trace.Start("run").End()
	if len(seedXors) == 0 {
		return nil, nil, false, errors.New("harness: RunBatch needs at least one seed")
	}
	reused, err = p.withWorker(ctx, binPath, &opts, func(w *serveWorker) error {
		if res, err = w.run(ctx, opts, seedXors); err == nil {
			w.endRun() // request heartbeats aggregate lanes; no lane owns them
		}
		return err
	})
	if err != nil {
		return nil, nil, reused, err
	}
	last := res[len(res)-1]
	cov, last.Coverage = last.Coverage, nil
	p.mu.Lock()
	p.batches++
	p.mu.Unlock()
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
// request is in flight); hbMu only synchronizes the request goroutine
// with the long-lived stderr drain goroutine.
type serveWorker struct {
	bin    string
	cmd    *exec.Cmd
	stdin  io.WriteCloser
	out    *bufio.Reader
	nextID int64

	hbMu       sync.Mutex
	curRun     string
	curCorr    string
	progress   func(obs.Snapshot)
	timeline   []obs.Snapshot
	finalSeen  chan struct{} // closed when the current run's final heartbeat lands
	tail       []string
	stderrDone chan struct{}
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
	}
	go w.drain(stderr)
	return w, nil
}

// drain consumes the worker's stderr for its whole life: heartbeats
// tagged with the current request id feed that request's timeline and
// progress callback (stale tags from an earlier request are dropped);
// everything else lands in the diagnostic tail ring.
func (w *serveWorker) drain(r io.Reader) {
	defer close(w.stderrDone)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Bytes()
		if snap, ok := obs.ParseHeartbeat(line); ok {
			w.hbMu.Lock()
			var cb func(obs.Snapshot)
			var fin chan struct{}
			// Untagged heartbeats belong to whichever run is current: a
			// serving binary tags its own, so only a -steps style
			// program emits them.
			if snap.Run == "" || snap.Run == w.curRun {
				snap.Corr = w.curCorr
				w.timeline = append(w.timeline, snap)
				cb = w.progress
				if snap.Final && w.finalSeen != nil {
					fin = w.finalSeen
					w.finalSeen = nil
				}
			}
			w.hbMu.Unlock()
			if cb != nil {
				cb(snap)
			}
			// Signal the final snapshot only after its callback returns,
			// so a run that waits on finalSeen observes every progress
			// invocation for its own run as already finished.
			if fin != nil {
				close(fin)
			}
			continue
		}
		w.hbMu.Lock()
		w.tail = append(w.tail, string(line))
		if len(w.tail) > errTailLines {
			w.tail = w.tail[len(w.tail)-errTailLines:]
		}
		w.hbMu.Unlock()
	}
	if err := sc.Err(); err != nil {
		w.hbMu.Lock()
		w.tail = append(w.tail, fmt.Sprintf("harness: stderr scan aborted (diagnostic tail truncated): %v", err))
		w.hbMu.Unlock()
		io.Copy(io.Discard, r)
	}
}

// errTail snapshots the worker's diagnostic stderr tail for an error.
func (w *serveWorker) errTail() string {
	w.hbMu.Lock()
	defer w.hbMu.Unlock()
	return strings.Join(w.tail, "\n")
}

// fail builds a structured RunError around the worker's current
// evidence: the diagnostic stderr tail and the run's trailing heartbeats.
func (w *serveWorker) fail(opts RunOptions, reason string, cause error, msg string) *RunError {
	w.hbMu.Lock()
	defer w.hbMu.Unlock()
	return &RunError{
		Model: opts.Model, Suite: opts.Suite, Bin: w.bin, Corr: opts.RunID,
		Reason: reason, ExitCode: -1,
		StderrTail: append([]string(nil), w.tail...), Heartbeats: heartbeatTail(w.timeline),
		Err: cause, msg: msg,
	}
}

// run sends one request, one lane per seed, and decodes the per-lane
// result lines in seed order; the caller collects the request's timeline
// with endRun. The request carries the step count AND the budget: with
// both set each lane stops at whichever bound is reached first. A worker
// that errors here must not be reused.
func (w *serveWorker) run(ctx context.Context, opts RunOptions, seedXors []uint64) ([]*simresult.Results, error) {
	req := simrt.Request{SeedXors: seedXors, Steps: opts.Steps}
	if opts.Budget > 0 {
		req.BudgetMS = clampMS(opts.Budget)
	}
	lanes, err := w.exchange(ctx, opts, req)
	if err != nil {
		return nil, err
	}
	if len(lanes) != len(seedXors) {
		return nil, w.fail(opts, ReasonProtocol, nil,
			fmt.Sprintf("harness: running %s: frame mismatch (%d lanes for %d seeds)",
				opts.label(w.bin), len(lanes), len(seedXors)))
	}
	out := make([]*simresult.Results, len(lanes))
	for i, lane := range lanes {
		out[i] = new(simresult.Results)
		if err := simresult.Decode(lane, out[i]); err != nil {
			return nil, w.fail(opts, ReasonDecode, err,
				fmt.Sprintf("harness: running %s: decoding lane %d: %v", opts.label(w.bin), i, err))
		}
	}
	return out, nil
}

// exchange assigns the request id, sends one request line and reads its
// validated response frame, returning the raw lane lines. It enforces
// the per-request Timeout by killing the process group — the exchange
// goroutine then unblocks on the closed pipe. It registers the request
// for heartbeats; endRun collects the timeline and clears the
// registration. Frame validation (marker, id, worker error) happens
// here; result decoding is the caller's.
func (w *serveWorker) exchange(ctx context.Context, opts RunOptions, req simrt.Request) ([][]byte, error) {
	if opts.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, opts.Timeout)
		defer cancel()
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("harness: running %s: %w", opts.label(w.bin), err)
	}
	w.nextID++
	id := fmt.Sprintf("r%d", w.nextID)
	req.ID, req.Corr = id, opts.RunID
	if opts.Heartbeat > 0 {
		req.HeartbeatMS = clampMS(opts.Heartbeat)
	}
	line, err := json.Marshal(req)
	if err != nil {
		return nil, fmt.Errorf("harness: encoding request: %w", err)
	}
	line = append(line, '\n')

	w.hbMu.Lock()
	w.curRun, w.curCorr, w.progress = id, opts.RunID, opts.Progress
	for i := range w.timeline {
		w.timeline[i].Corr = opts.RunID // untagged heartbeats that beat the request in
	}
	var finalSeen chan struct{}
	if req.HeartbeatMS > 0 {
		finalSeen = make(chan struct{})
	}
	w.finalSeen = finalSeen
	w.hbMu.Unlock()

	type exchanged struct {
		frame    serveFrame
		frameErr error // the frame line arrived but did not decode
		lanes    [][]byte
		err      error // the pipe broke
	}
	ch := make(chan exchanged, 1)
	go func() {
		if _, err := w.stdin.Write(line); err != nil {
			ch <- exchanged{err: fmt.Errorf("writing request: %w", err)}
			return
		}
		raw, err := w.out.ReadBytes('\n')
		if err != nil {
			ch <- exchanged{err: err}
			return
		}
		var ex exchanged
		ex.frameErr = json.Unmarshal(raw, &ex.frame)
		// The header frame is followed by one raw result line per lane;
		// read them here so the cancellation kill path below covers a
		// worker wedged mid-request too.
		for i := 0; ex.frameErr == nil && i < ex.frame.LaneCount; i++ {
			lane, err := w.out.ReadBytes('\n')
			if err != nil {
				ch <- exchanged{err: fmt.Errorf("reading lane %d of %d: %w", i+1, ex.frame.LaneCount, err)}
				return
			}
			ex.lanes = append(ex.lanes, lane)
		}
		ch <- ex
	}()
	var ex exchanged
	select {
	case <-ctx.Done():
		killProcGroup(w.cmd)
		<-ch
		if errors.Is(ctx.Err(), context.DeadlineExceeded) && opts.Timeout > 0 {
			e := w.fail(opts, ReasonTimeout, context.DeadlineExceeded,
				fmt.Sprintf("harness: running %s: worker killed after exceeding the %v timeout\n%s",
					opts.label(w.bin), opts.Timeout, w.errTail()))
			e.Timeout = opts.Timeout
			return nil, e
		}
		return nil, w.fail(opts, ReasonCanceled, ctx.Err(),
			fmt.Sprintf("harness: running %s: worker killed: %v\n%s",
				opts.label(w.bin), ctx.Err(), w.errTail()))
	case ex = <-ch:
	}
	if ex.err != nil {
		// A broken pipe usually means the worker is dying: give its
		// stderr a moment to drain so the error carries its last words.
		w.stdin.Close()
		select {
		case <-w.stderrDone:
		case <-ctx.Done():
		case <-time.After(time.Second):
		}
		return nil, w.fail(opts, ReasonProtocol, ex.err,
			fmt.Sprintf("harness: running %s: worker protocol failure: %v\n%s",
				opts.label(w.bin), ex.err, w.errTail()))
	}
	frame := &ex.frame
	if err := ex.frameErr; err != nil {
		return nil, w.fail(opts, ReasonProtocol, err,
			fmt.Sprintf("harness: running %s: decoding worker frame: %v\n%s",
				opts.label(w.bin), err, w.errTail()))
	}
	if frame.Marker != 1 || frame.ID != id {
		return nil, w.fail(opts, ReasonProtocol, nil,
			fmt.Sprintf("harness: running %s: worker frame mismatch (marker %d, id %q, want %q)",
				opts.label(w.bin), frame.Marker, frame.ID, id))
	}
	if frame.Error != "" {
		return nil, w.fail(opts, ReasonWorker, nil,
			fmt.Sprintf("harness: running %s: worker: %s", opts.label(w.bin), frame.Error))
	}
	if finalSeen != nil {
		// The worker writes the run's final heartbeat to stderr before its
		// stdout frame, so the bytes are already in flight — wait briefly
		// for the drain goroutine to deliver it rather than return a
		// timeline missing its final snapshot. Bounded so a pathological
		// stderr consumer can't wedge the request.
		select {
		case <-finalSeen:
		case <-time.After(time.Second):
		case <-ctx.Done():
		}
	}
	return ex.lanes, nil
}

// endRun returns the current run's timeline and clears its heartbeat
// registration.
func (w *serveWorker) endRun() []obs.Snapshot {
	w.hbMu.Lock()
	defer w.hbMu.Unlock()
	timeline := w.timeline
	w.curRun, w.curCorr, w.timeline, w.progress, w.finalSeen = "", "", nil, nil, nil
	return timeline
}

// reap retires an ephemeral worker: close its stdin — a serving binary
// exits at EOF — and wait until it has exited and both output pipes are
// drained, killing its process group if ctx ends first. It returns the
// exit error of a binary that exited non-zero on its own, and nil for a
// clean exit or a kill (the caller then already holds its answer or its
// error).
func (w *serveWorker) reap(ctx context.Context) error {
	w.stdin.Close()
	drained := make(chan struct{})
	go func() {
		io.Copy(io.Discard, w.out)
		<-w.stderrDone
		close(drained)
	}()
	select {
	case <-drained:
		return w.cmd.Wait()
	case <-ctx.Done():
		killProcGroup(w.cmd)
		<-drained
		w.cmd.Wait()
		return nil
	}
}

// exitError is the failure of a binary that exited non-zero on its own,
// carrying its exit code and complete stderr evidence.
func (w *serveWorker) exitError(opts RunOptions, waitErr error) *RunError {
	e := w.fail(opts, ReasonExit, waitErr, "")
	if ps := w.cmd.ProcessState; ps != nil {
		e.ExitCode = ps.ExitCode()
	}
	e.msg = fmt.Sprintf("harness: running %s: %v\n%s", opts.label(w.bin), waitErr, strings.Join(e.StderrTail, "\n"))
	return e
}

// destroy kills the worker's process group and reaps it. Safe to call on
// an already-dead worker.
func (w *serveWorker) destroy() {
	w.stdin.Close()
	killProcGroup(w.cmd)
	w.cmd.Wait()
	<-w.stderrDone
}
