// Package simrt is the model-independent runtime every AccMoS-generated
// program links: the -steps/-serve entry point, the NDJSON serve loop
// and its request decoding, batch requests (one generated run per lane,
// back to back), the response frames, heartbeats, the result document
// encoder and the signal monitor's sample recorder.
//
// The harness compiles this package once per process into an archive
// and links every generated program against it, so a build compiles only
// the model. The generated file keeps everything its step function
// calls or may inline (hashing, conversions, the diagnosis reporter and
// checkers, the tables and bitmaps) and hands its state to the runtime
// as a Program: views of its globals plus the model-specific hooks.
//
// The runtime imports only the standard library, and simrt.go and
// encode.go are all of it that a generated program links; source.go
// serves the host.
package simrt

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"
)

// Request is one run request: a single NDJSON line on a serve-mode
// program's stdin. The harness encodes it and the serve loop decodes it.
// Steps and BudgetMS each bound the run when positive; with both set,
// whichever is reached first wins, and with neither the program's -steps
// default applies. Batch set with SeedXors runs one lane per seed, each
// a full run from a fresh reset, instead of a single run. HeartbeatMS
// <= 0 disables heartbeats.
type Request struct {
	Batch       int      `json:"accmosBatch,omitempty"`
	ID          string   `json:"id"`
	Steps       int64    `json:"steps"`
	BudgetMS    int64    `json:"budgetMs"`
	SeedXor     uint64   `json:"seedXor"`
	SeedXors    []uint64 `json:"seedXors,omitempty"`
	HeartbeatMS int64    `json:"heartbeatMs"`
	// Corr is the run's correlation ID, carried for log joinability; the
	// program ignores it.
	Corr string `json:"corr,omitempty"`
}

// DiagRecord is one verbatim diagnosis finding (simresult "diags").
type DiagRecord struct {
	Step   int64
	Actor  string
	Kind   string
	Detail string
}

// MonitorSample is one recorded monitor observation (simresult
// "monitor").
type MonitorSample struct {
	Step  int64
	Value string
}

// Coverage views the four coverage bitmaps of a generated program.
type Coverage struct {
	Actor, Cond, Dec, MCDC []uint8
}

// Program is a generated program as the runtime sees it. The views alias
// the program's globals: the slices share their arrays' storage and the
// pointers address the variables, so they read whatever state the step
// loop left there. The hooks are the model-specific code; the program
// sets them in main, because they refer back to the Program value.
type Program struct {
	Model string

	OutputHash *uint64
	DiagTotal  *int64
	Diags      *[]DiagRecord
	// DiagCounts, DiagFirst, DiagActors and DiagKinds are indexed by
	// diagnosis slot; a result keys them "actor|kind".
	DiagCounts, DiagFirst []int64
	DiagActors, DiagKinds []string
	MonHits               []int64
	MonSamples            [][]MonitorSample
	MonNames              []string
	MaxMonitorSamples     int
	// Coverage is nil when coverage is off. The runtime clears it once
	// per request, before the first Reset.
	Coverage *Coverage

	// Reset restores every piece of per-run state except coverage to its
	// fresh-process value for a run with the given seedXor.
	Reset func(seedXor uint64)
	// Run steps the model from its current state (see Request for the
	// bounds) and returns the executed steps and the loop's wall time.
	// runID tags its heartbeats.
	Run func(steps, budgetMS int64, heartbeat time.Duration, runID string) (int64, time.Duration)

	// batch is the running batch's heartbeat clock (nil outside a batch).
	batch *batchClock
}

// batchClock turns the heartbeats of a batch's back-to-back lane runs
// into the batch's own: steps summed over lanes, elapsed time and
// throttling on the batch's clock, and one final record after the last
// lane.
type batchClock struct {
	start, next time.Time
	every       time.Duration
	steps       int64 // executed by the lanes already finished
}

// Main is the program's entry point. With -serve it answers requests on
// stdin until EOF; otherwise it runs once for -steps steps (defSteps by
// default) and prints the bare result document.
func (p *Program) Main(defSteps int64) {
	steps := flag.Int64("steps", defSteps, "simulation steps; without -serve, run once and print the result document")
	serve := flag.Bool("serve", false, "serve NDJSON run requests from stdin until it closes")
	flag.Parse()
	if *serve {
		if err := p.serve(os.Stdin, os.Stdout, *steps); err != nil {
			fmt.Fprintln(os.Stderr, "accmos: serve: reading requests:", err)
			os.Exit(1)
		}
		return
	}
	os.Stdout.Write(append(p.runRequest(&Request{Steps: *steps}, *steps), '\n'))
}

// serve is the -serve mode, the host's only way to run the program: read
// NDJSON requests from in, run each against freshly reset model state,
// and answer with one frame per request on out, flushed at once.
// Heartbeats go to stderr, tagged with the request id. A batch request
// answers with a laneCount header frame carrying the lanes' OR-merged
// coverage, followed by one result line per lane. It returns at EOF, or
// with the error that ended reading.
func (p *Program) serve(in io.Reader, out io.Writer, defSteps int64) error {
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 64*1024), 8*1024*1024)
	w := bufio.NewWriter(out)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var req Request
		if err := json.Unmarshal(line, &req); err != nil {
			writeFrame(w, req.ID, nil, "decoding request: "+err.Error())
			continue
		}
		if req.Batch == 0 {
			writeFrame(w, req.ID, p.runRequest(&req, defSteps), "")
			continue
		}
		if len(req.SeedXors) == 0 {
			writeFrame(w, req.ID, nil, "batch request carries no seedXors")
			continue
		}
		if req.BudgetMS > 0 {
			writeFrame(w, req.ID, nil, "batch requests are step-bounded; budgetMs is unsupported")
			continue
		}
		writeBatchFrame(w, req.ID, p.runBatch(&req, defSteps), p.coverageJSON())
	}
	return sc.Err()
}

// runRequest executes one single-run request against freshly reset
// model state and returns its result document.
func (p *Program) runRequest(req *Request, defSteps int64) []byte {
	p.clearCoverage()
	p.Reset(req.SeedXor)
	steps := req.Steps
	if steps <= 0 && req.BudgetMS <= 0 {
		steps = defSteps
	}
	executed, elapsed := p.Run(steps, req.BudgetMS, time.Duration(req.HeartbeatMS)*time.Millisecond, req.ID)
	return p.Result(executed, elapsed.Nanoseconds(), true)
}

// runBatch executes a batch request: one run per seed, in order, each
// from a fresh reset and stepped to the request's bound, returning one
// result document per lane. Coverage is cleared once, so when the batch
// ends the bitmaps hold the OR-merge of every lane (instrumentation
// writes are idempotent 1-sets). A lane's execNanos is its own loop
// time.
func (p *Program) runBatch(req *Request, defSteps int64) [][]byte {
	steps := req.Steps
	if steps <= 0 {
		steps = defSteps
	}
	hb := time.Duration(req.HeartbeatMS) * time.Millisecond
	now := time.Now()
	b := &batchClock{start: now, next: now.Add(hb), every: hb}
	p.batch = b
	p.clearCoverage()
	lanes := make([][]byte, len(req.SeedXors))
	for i, seed := range req.SeedXors {
		p.Reset(seed)
		executed, elapsed := p.Run(steps, 0, hb, req.ID)
		b.steps += executed
		lanes[i] = p.Result(executed, elapsed.Nanoseconds(), false)
	}
	p.batch = nil
	if hb > 0 {
		p.Heartbeat(req.ID, b.steps, time.Since(b.start), true)
	}
	return lanes
}

// clearCoverage zeroes the coverage bitmaps.
func (p *Program) clearCoverage() {
	if c := p.Coverage; c != nil {
		for _, bm := range [][]uint8{c.Actor, c.Cond, c.Dec, c.MCDC} {
			clear(bm)
		}
	}
}

// Collect is the signal-monitor instrumentation (the paper's
// outputCollect): it counts every observation of slot's actor and
// records the first MaxMonitorSamples values.
func (p *Program) Collect(slot int, step int64, value string) {
	p.MonHits[slot]++
	if len(p.MonSamples[slot]) < p.MaxMonitorSamples {
		p.MonSamples[slot] = append(p.MonSamples[slot], MonitorSample{Step: step, Value: value})
	}
}

// Heartbeat writes one NDJSON progress record to stderr; the line is
// what obs.ParseHeartbeat decodes. runID tags serve-mode heartbeats with
// the request they belong to. During a batch, steps and elapsed describe
// the current lane: the record reports the batch's summed steps and
// elapsed time instead, no more often than the request's heartbeat
// interval, and a lane's final record is dropped (the batch sends its
// own after the last lane).
func (p *Program) Heartbeat(runID string, steps int64, elapsed time.Duration, final bool) {
	if b := p.batch; b != nil {
		if final {
			return
		}
		now := time.Now()
		if now.Before(b.next) {
			return
		}
		b.next = now.Add(b.every)
		steps, elapsed = b.steps+steps, now.Sub(b.start)
	}
	os.Stderr.Write(p.appendHeartbeat(nil, runID, steps, elapsed, final))
}
