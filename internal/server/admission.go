package server

import (
	"fmt"
	"time"

	accmos "accmos"
	"accmos/internal/lint"
)

// AdmissionError is a submission rejected before it ever became a job:
// the model failed to parse, elaborate, or passed lint with blocking
// findings. accmosd's submit handler maps it to a structured 400.
type AdmissionError struct {
	Msg string
	// Lint carries the blocking findings when lint caused the rejection.
	Lint []LintLine
}

func (e *AdmissionError) Error() string { return e.Msg }

// SpecFromRequest validates a submission and builds the runnable JobSpec:
// reject negative run bounds and a stimulus range whose hi is below its
// lo, admit the model document (parse, elaborate,
// lint-gate), then map the wire fields onto the spec's facade options
// with the daemon's defaults (opt level, heartbeat, seed 1 and the
// [-1, 1] stimulus range of a job that sets only part of its stimulus)
// and the job-timeout clamp applied. The returned findings are the full
// advisory list recorded on the job.
//
// The document's admission verdict is memoised in cache under the
// document's SHA-256, so a repeat submission skips parse, elaboration and
// lint and its job shares the first submission's model, which every
// stage downstream only reads. A rejected document is rejected the same
// way again.
func SpecFromRequest(cache *accmos.BuildCache, req SubmitRequest, defaultOpt accmos.OptLevel, jobTimeout time.Duration) (JobSpec, []lint.Finding, error) {
	if req.Model == "" {
		return JobSpec{}, nil, &AdmissionError{Msg: "submission has no model document"}
	}
	if req.Steps < 0 || req.BudgetMS < 0 || req.TimeoutMS < 0 {
		return JobSpec{}, nil, &AdmissionError{Msg: fmt.Sprintf(
			"negative run bound (steps %d, budgetMs %d, timeoutMs %d)", req.Steps, req.BudgetMS, req.TimeoutMS)}
	}
	if req.Hi < req.Lo {
		return JobSpec{}, nil, &AdmissionError{Msg: fmt.Sprintf(
			"stimulus range has hi below lo (lo %g, hi %g)", req.Lo, req.Hi)}
	}
	doc := []byte(req.Model)
	v, _ := cache.Admit(doc, func() any { return admitDocument(doc) })
	ad := v.(*admission)
	if ad.err != nil {
		return JobSpec{}, ad.findings, ad.err
	}
	m, findings := ad.model, ad.findings

	opts := accmos.Options{
		Steps:         req.Steps,
		Budget:        time.Duration(req.BudgetMS) * time.Millisecond,
		Timeout:       time.Duration(req.TimeoutMS) * time.Millisecond,
		Coverage:      req.Coverage,
		Diagnose:      req.Diagnose,
		OptLevel:      defaultOpt,
		ProgressEvery: defaultHeartbeat,
	}
	if req.Seed != 0 || req.Lo != 0 || req.Hi != 0 {
		seed, lo, hi := req.Seed, req.Lo, req.Hi
		if seed == 0 {
			seed = 1 // the facade's default seed
		}
		if lo == 0 && hi == 0 {
			lo, hi = -1, 1
		}
		opts.TestCases = accmos.RandomTestCases(m, seed, lo, hi)
	}
	if req.OptLevel != nil {
		lv, err := accmos.OptLevelFromInt(*req.OptLevel)
		if err != nil {
			return JobSpec{}, findings, &AdmissionError{Msg: fmt.Sprintf("optLevel: %v", err)}
		}
		opts.OptLevel = lv
	}
	if req.HeartbeatMS > 0 {
		opts.ProgressEvery = time.Duration(req.HeartbeatMS) * time.Millisecond
	}
	if cap := jobTimeout; cap > 0 && (opts.Timeout <= 0 || opts.Timeout > cap) {
		opts.Timeout = cap
	}
	return JobSpec{Model: m, Options: opts, SweepSeeds: req.SweepSeeds}, findings, nil
}

// admission is the verdict on one model document: the admitted model and
// its advisory findings, or the AdmissionError that rejected it (with the
// findings when lint did).
type admission struct {
	model    *accmos.Model
	findings []lint.Finding
	err      error
}

// admitDocument parses, elaborates and lint-gates one model document.
func admitDocument(doc []byte) *admission {
	m, err := accmos.LoadModelBytes(doc)
	if err != nil {
		return &admission{err: &AdmissionError{Msg: fmt.Sprintf("parsing model: %v", err)}}
	}
	compiled, err := accmos.Compile(m)
	if err != nil {
		return &admission{err: &AdmissionError{Msg: fmt.Sprintf("elaborating model: %v", err)}}
	}
	findings := lint.Check(compiled)
	if blocking := lint.Errors(findings); len(blocking) > 0 {
		return &admission{findings: findings, err: &AdmissionError{
			Msg:  fmt.Sprintf("model %s failed lint with %d error(s)", m.Name, len(blocking)),
			Lint: lintLines(blocking),
		}}
	}
	return &admission{model: m, findings: findings}
}
