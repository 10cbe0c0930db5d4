// Package simrt is the model-independent runtime every AccMoS-generated
// program links: the -steps/-serve entry point, the NDJSON serve loop
// and its request decoding, the step loop that drives the model's lanes,
// the response frames and the heartbeats that precede them on stdout, the
// result document encoder and the signal monitor's sample recorder.
//
// The harness compiles this package once per process into an archive
// and links every generated program against it, so a build compiles only
// the model. The generated file keeps everything its step function
// calls or may inline (hashing, conversions, the diagnosis reporter and
// checkers, the tables and bitmaps) and hands its state to the runtime
// as a Program: views of its globals plus the model-specific hooks. The
// run parameters (the -steps default, each uniform source's seed and
// range) are in neither: Main reads them from the params file beside the
// executable, so one linked binary serves every seed, range and step
// default of a model.
//
// simrt.go, encode.go and request.go are all of the runtime that a
// generated program links; source.go serves the host. They import only
// bufio, io, math, os, strconv, time and unicode/utf8. The request
// reader, the argument parser, the base64 appender and the custom-check
// detail formatters stand in for encoding/json, flag, encoding/base64
// and fmt: those would bring reflect and the packages built on it into
// every generated binary, and every link would load and lay them out.
package simrt

import (
	"bufio"
	"io"
	"math"
	"os"
	"strconv"
	"time"
)

// Request is one run request: a single NDJSON line on a serve-mode
// program's stdin. The harness encodes it with encoding/json, and the
// serve loop decodes it with decodeRequest.
// It runs one lane per seed in SeedXors, each a full run from a fresh
// reset; a single run is a one-lane request. Steps and BudgetMS each
// bound every lane when positive; with both set, whichever is reached
// first wins, and with neither the program's -steps default applies.
// HeartbeatMS <= 0 disables heartbeats.
type Request struct {
	ID          string   `json:"id"`
	Steps       int64    `json:"steps"`
	BudgetMS    int64    `json:"budgetMs"`
	SeedXors    []uint64 `json:"seedXors"`
	HeartbeatMS int64    `json:"heartbeatMs"`
	// Corr is the run's correlation ID, carried for log joinability; the
	// program ignores it.
	Corr string `json:"corr,omitempty"`
}

// ParamsSuffix names a program's params file: the file beside the
// executable, at its path plus this suffix, that holds its run
// parameters in the FormatParams form. The harness writes it next to
// each program it builds, so the binary holds only the model: programs
// that differ only in their run parameters are one linked binary, and a
// new seed, range or step default costs neither a compile nor a link.
const ParamsSuffix = ".params"

// Uniform is one uniform stimulus source's run parameters: its LCG seed
// and its range [Lo, Hi). The generated source reads them, and Main
// fills them from the run parameters.
type Uniform struct {
	Seed   uint64
	Lo, Hi float64
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
	// Uniform views the parameters of the program's uniform stimulus
	// sources, in inport order; Main fills it from the run parameters.
	Uniform []Uniform

	// Reset restores every piece of per-run state except coverage to its
	// fresh-process value for a run with the given seedXor.
	Reset func(seedXor uint64)
	// Run executes steps from, from+1, ..., to-1 against the current
	// model state and returns the step after the last one it ran: to, or
	// earlier when a stop-on diagnosis fires. A stop holds until the next
	// Reset: Run then returns from at once, so a stop on the last step of
	// a chunk ends the lane at the next call. The runtime calls it once
	// per chunk of at most chunkSteps steps, always with from < to: a
	// generated program sets its always-run actors' coverage bits at the
	// top of every call that runs a step.
	Run func(from, to int64) int64
}

// chunkSteps is the most steps one Run call executes. Between chunks the
// runtime reads the lane's budget and the request's heartbeat clock, so
// a chunk is the granularity of both.
const chunkSteps = 1024

// Main is the program's entry point. It reads the run parameters, the
// -steps default and the uniform sources' parameters (see readParams),
// from the params file beside the executable (ParamsSuffix). With -serve
// it answers requests on stdin until EOF; otherwise it runs one lane for
// -steps steps and prints its bare result document. A program whose
// params file is missing or does not fit it exits with status 2, naming
// the file, before running anything, as does a bad argument.
func (p *Program) Main() {
	defSteps, err := p.loadParams()
	if err != nil {
		os.Stderr.WriteString("accmos: " + err.Error() + "\n")
		os.Exit(2)
	}
	steps, serve, err := parseArgs(os.Args[1:], defSteps)
	if err != nil {
		os.Stderr.WriteString("accmos: " + err.Error() + "\nusage: " + os.Args[0] + " [-steps N] [-serve]\n")
		os.Exit(2)
	}
	if serve {
		if err := p.serve(os.Stdin, os.Stdout, steps); err != nil {
			os.Stderr.WriteString("accmos: serve: reading requests: " + err.Error() + "\n")
			os.Exit(1)
		}
		return
	}
	lanes := p.run(&Request{Steps: steps, SeedXors: []uint64{0}}, steps, nil) // no heartbeats
	os.Stdout.Write(append(lanes[0], '\n'))
}

// loadParams reads the params file beside the executable into p.Uniform
// and returns the -steps default. Its errors name the file.
func (p *Program) loadParams() (int64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, inputError("locating the run parameters: " + err.Error())
	}
	name := exe + ParamsSuffix
	data, err := os.ReadFile(name)
	if err != nil {
		return 0, inputError("reading run parameters: " + err.Error() + " (accmos -gen prints them in the source's header)")
	}
	steps, err := p.readParams(string(data))
	if err != nil {
		return 0, inputError(name + ": " + err.Error())
	}
	return steps, nil
}

// parseArgs reads the program's arguments: -steps N or -steps=N, the
// step count (steps by default), and -serve.
func parseArgs(args []string, steps int64) (int64, bool, error) {
	serve := false
	for i := 0; i < len(args); i++ {
		arg := args[i]
		switch {
		case arg == "-serve":
			serve = true
			continue
		case arg == "-steps":
			if i++; i == len(args) {
				return 0, false, inputError("-steps needs a value")
			}
			arg = "-steps=" + args[i]
		case len(arg) < 7 || arg[:7] != "-steps=":
			return 0, false, inputError("unknown argument " + strconv.Quote(arg))
		}
		n, err := strconv.ParseInt(arg[7:], 10, 64)
		if err != nil {
			return 0, false, inputError("-steps wants an integer, got " + strconv.Quote(arg[7:]))
		}
		steps = n
	}
	return steps, serve, nil
}

// serve is the -serve mode, the host's only way to run the program: read
// NDJSON requests from in, run each against freshly reset model state,
// and answer each on out with one frame, flushed at once: a header line
// naming the request id and lane count (or an error), then one result
// line per lane. The request's heartbeats go to out too, each flushed as
// it is written and tagged with the request id, so they reach the host
// in order, ahead of the frame. Stderr carries only diagnostics. It
// returns at EOF, or with the error that ended reading.
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
		if err := decodeRequest(line, &req); err != nil {
			writeFrame(w, req.ID, nil, "decoding request: "+err.Error())
			continue
		}
		if len(req.SeedXors) == 0 {
			writeFrame(w, req.ID, nil, "request carries no seedXors")
			continue
		}
		writeFrame(w, req.ID, p.run(&req, defSteps, w), "")
	}
	return sc.Err()
}

// run executes a request: one lane per seed, in order, each from a fresh
// reset and stepped to the request's bounds, returning one result
// document per lane. A lane's execNanos is its own loop time. Coverage is
// cleared once, so when the request ends the bitmaps hold the OR-merge
// of every lane (instrumentation writes are idempotent 1-sets); the last
// lane's document carries them. The request heartbeats on one clock:
// steps summed over its lanes, elapsed time from its start, records no
// faster than its interval, and one final record after the last lane,
// each written to hb (unused when the request's heartbeats are off).
func (p *Program) run(req *Request, defSteps int64, hb *bufio.Writer) [][]byte {
	steps, budget := req.Steps, time.Duration(req.BudgetMS)*time.Millisecond
	if steps <= 0 {
		steps = defSteps
		if budget > 0 {
			steps = math.MaxInt64 // budget-only
		}
	}
	every := time.Duration(req.HeartbeatMS) * time.Millisecond
	start := time.Now()
	next := start.Add(every)
	var done int64 // steps executed by the finished lanes
	p.clearCoverage()
	lanes := make([][]byte, len(req.SeedXors))
	for i, seed := range req.SeedXors {
		p.Reset(seed)
		laneStart := time.Now()
		step := int64(0)
		for step < steps && (budget <= 0 || time.Since(laneStart) < budget) {
			to := step + min(chunkSteps, steps-step)
			step = p.Run(step, to)
			if every > 0 {
				if now := time.Now(); !now.Before(next) {
					next = now.Add(every)
					p.heartbeat(hb, req.ID, done+step, now.Sub(start), false)
				}
			}
			if step < to {
				break // a stop-on diagnosis fired
			}
		}
		elapsed := time.Since(laneStart)
		done += step
		lanes[i] = p.Result(step, elapsed.Nanoseconds(), i == len(lanes)-1)
	}
	if every > 0 {
		p.heartbeat(hb, req.ID, done, time.Since(start), true)
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

// heartbeat writes one NDJSON progress record to out and flushes it, so
// the host sees it live; the line is what obs.ParseHeartbeat decodes.
// runID tags it with its request.
func (p *Program) heartbeat(out *bufio.Writer, runID string, steps int64, elapsed time.Duration, final bool) {
	out.Write(p.appendHeartbeat(nil, runID, steps, elapsed, final))
	out.Flush()
}
