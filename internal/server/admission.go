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
// parse, elaborate, lint-gate, then map the wire fields onto the spec
// with the daemon's defaults (opt level, heartbeat) and the job-timeout
// clamp applied. The returned findings are the full advisory list
// recorded on the job.
func SpecFromRequest(req SubmitRequest, defaultOpt accmos.OptLevel, jobTimeout time.Duration) (JobSpec, []lint.Finding, error) {
	if req.Model == "" {
		return JobSpec{}, nil, &AdmissionError{Msg: "submission has no model document"}
	}
	m, err := accmos.LoadModelBytes([]byte(req.Model))
	if err != nil {
		return JobSpec{}, nil, &AdmissionError{Msg: fmt.Sprintf("parsing model: %v", err)}
	}
	compiled, err := accmos.Compile(m)
	if err != nil {
		return JobSpec{}, nil, &AdmissionError{Msg: fmt.Sprintf("elaborating model: %v", err)}
	}
	findings := lint.Check(compiled)
	if blocking := lint.Errors(findings); len(blocking) > 0 {
		return JobSpec{}, findings, &AdmissionError{
			Msg:  fmt.Sprintf("model %s failed lint with %d error(s)", m.Name, len(blocking)),
			Lint: lintLines(blocking),
		}
	}

	spec := JobSpec{
		ModelName:  m.Name,
		Model:      m,
		Steps:      req.Steps,
		Budget:     time.Duration(req.BudgetMS) * time.Millisecond,
		Timeout:    time.Duration(req.TimeoutMS) * time.Millisecond,
		Coverage:   req.Coverage,
		Diagnose:   req.Diagnose,
		OptLevel:   defaultOpt,
		Seed:       req.Seed,
		Lo:         req.Lo,
		Hi:         req.Hi,
		SweepSeeds: req.SweepSeeds,
		Heartbeat:  defaultHeartbeat,
	}
	if req.Batch != nil {
		spec.DisableBatch = !*req.Batch
	}
	if req.OptLevel != nil {
		lv, err := accmos.OptLevelFromInt(*req.OptLevel)
		if err != nil {
			return JobSpec{}, findings, &AdmissionError{Msg: fmt.Sprintf("optLevel: %v", err)}
		}
		spec.OptLevel = lv
	}
	if req.HeartbeatMS > 0 {
		spec.Heartbeat = time.Duration(req.HeartbeatMS) * time.Millisecond
	}
	if cap := jobTimeout; cap > 0 && (spec.Timeout <= 0 || spec.Timeout > cap) {
		spec.Timeout = cap
	}
	return spec, findings, nil
}
