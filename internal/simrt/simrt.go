// Package simrt is the model-independent runtime every AccMoS-generated
// program links: the -steps/-serve entry point, the NDJSON serve loop
// and its request decoding, the response frames, heartbeats, the result
// document encoder and the signal monitor's sample recorder.
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
// default applies. Batch set with SeedXors runs one lane per seed through
// the batched loop instead of a single run. HeartbeatMS <= 0 disables
// heartbeats.
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
// loop and the lane swaps left there. The hooks are the model-specific
// code; the program sets them in main, because they refer back to the
// Program value.
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
	Coverage              *Coverage // nil when coverage is off

	// Reset restores every piece of per-run state to its fresh-process
	// value for a run with the given seedXor.
	Reset func(seedXor uint64)
	// Run steps the model from its current state (see Request for the
	// bounds) and returns the executed steps and the loop's wall time.
	// runID tags its heartbeats.
	Run func(steps, budgetMS int64, heartbeat time.Duration, runID string) (int64, time.Duration)
	// Batch steps one lane per seed to steps and returns one result
	// document per lane, in seed order.
	Batch func(seedXors []uint64, steps int64, heartbeat time.Duration, runID string) [][]byte
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
// answers with a laneCount header frame followed by one result line per
// lane. It returns at EOF, or with the error that ended reading.
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
		steps := req.Steps
		if steps <= 0 {
			steps = defSteps
		}
		hb := time.Duration(req.HeartbeatMS) * time.Millisecond
		writeBatchFrame(w, req.ID, p.Batch(req.SeedXors, steps, hb, req.ID), p.coverageJSON())
	}
	return sc.Err()
}

// runRequest executes one single-run request against freshly reset
// model state and returns its result document.
func (p *Program) runRequest(req *Request, defSteps int64) []byte {
	p.Reset(req.SeedXor)
	steps := req.Steps
	if steps <= 0 && req.BudgetMS <= 0 {
		steps = defSteps
	}
	executed, elapsed := p.Run(steps, req.BudgetMS, time.Duration(req.HeartbeatMS)*time.Millisecond, req.ID)
	return p.Result(executed, elapsed.Nanoseconds(), true)
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
// the request they belong to.
func (p *Program) Heartbeat(runID string, steps int64, elapsed time.Duration, final bool) {
	os.Stderr.Write(p.appendHeartbeat(nil, runID, steps, elapsed, final))
}
