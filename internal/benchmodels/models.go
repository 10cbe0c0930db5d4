package benchmodels

import (
	"fmt"
	"sort"

	"accmos/internal/model"
	"accmos/internal/types"
)

// Table 1 profiles. Computation-heavy mixes match the paper's analysis:
// "LANS, LEDLC, SPV, and TCP ... contain more computational actors than
// other models", which is why their code-generation speedups are highest.
var profiles = map[string]Profile{
	"CPUT":  {Name: "CPUT", Actors: 275, Subsystems: 27, ComputeFrac: 0.40, Seed: 101, Inports: 4, Outports: 3},
	"CSEV":  {Name: "CSEV", Actors: 152, Subsystems: 17, ComputeFrac: 0.45, Seed: 102, Inports: 3, Outports: 2},
	"FMTM":  {Name: "FMTM", Actors: 276, Subsystems: 42, ComputeFrac: 0.40, Seed: 103, Inports: 6, Outports: 3},
	"LANS":  {Name: "LANS", Actors: 570, Subsystems: 39, ComputeFrac: 0.85, Seed: 104, Inports: 5, Outports: 4},
	"LEDLC": {Name: "LEDLC", Actors: 170, Subsystems: 31, ComputeFrac: 0.85, Seed: 105, Inports: 3, Outports: 2},
	"RAC":   {Name: "RAC", Actors: 667, Subsystems: 57, ComputeFrac: 0.45, Seed: 106, Inports: 6, Outports: 4},
	"SPV":   {Name: "SPV", Actors: 131, Subsystems: 16, ComputeFrac: 0.85, Seed: 107, Inports: 3, Outports: 2},
	"TCP":   {Name: "TCP", Actors: 330, Subsystems: 42, ComputeFrac: 0.80, Seed: 108, Inports: 4, Outports: 3},
	"TWC":   {Name: "TWC", Actors: 214, Subsystems: 13, ComputeFrac: 0.45, Seed: 109, Inports: 4, Outports: 3},
	"UTPC":  {Name: "UTPC", Actors: 214, Subsystems: 21, ComputeFrac: 0.45, Seed: 110, Inports: 4, Outports: 3},
}

// descriptions reproduce Table 1's functionality column.
var descriptions = map[string]string{
	"CPUT":  "AutoSAR CPU task dispatch system",
	"CSEV":  "Charging system of electric vehicle",
	"FMTM":  "Factory Multi-point Temperature Monitor",
	"LANS":  "LAN Switch controller",
	"LEDLC": "LED light controller",
	"RAC":   "Robotic arm controller",
	"SPV":   "Solar PV panel output control",
	"TCP":   "TCP three-way handshake protocol",
	"TWC":   "Train wheel speed controller",
	"UTPC":  "Underwater thruster power control",
}

// Names returns the benchmark model names in Table 1 order.
func Names() []string {
	out := make([]string, 0, len(profiles))
	for n := range profiles {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Description returns the Table 1 functionality string.
func Description(name string) string { return descriptions[name] }

// Build constructs the named benchmark model.
func Build(name string) (*model.Model, error) {
	p, ok := profiles[name]
	if !ok {
		return nil, fmt.Errorf("benchmodels: unknown model %q (have %v)", name, Names())
	}
	s := newSynth(p)
	outs := s.boundary()
	cores[name](s)
	s.fill()
	return s.finish(outs), nil
}

// MustBuild is Build for tests and benchmarks.
func MustBuild(name string) *model.Model {
	m, err := Build(name)
	if err != nil {
		panic(err)
	}
	return m
}

// cores hold the hand-written domain skeleton of each model.
var cores = map[string]func(*synth){
	"CPUT":  coreCPUT,
	"CSEV":  func(s *synth) { coreCSEV(s, false, "1") },
	"FMTM":  coreFMTM,
	"LANS":  coreLANS,
	"LEDLC": coreLEDLC,
	"RAC":   coreRAC,
	"SPV":   coreSPV,
	"TCP":   coreTCP,
	"TWC":   coreTWC,
	"UTPC":  coreUTPC,
}

// intIndexSource adds a small int32 index source cycling 1..n, seeding the
// integer pool used by dispatch switches.
func (s *synth) intIndexSource(stem string, n int) string {
	ct := s.addRoot(s.name(stem+"Ct"), "Counter", 0, 1, model.WithParam("Inc", "1"))
	md := s.addRoot(s.name(stem+"Md"), "Mod", 2, 1)
	nC := s.addRoot(s.name(stem+"N"), "Constant", 0, 1,
		model.WithOutKind(types.I32), model.WithParam("Value", fmt.Sprint(n)))
	bi := s.addRoot(s.name(stem+"Bi"), "Bias", 1, 1, model.WithParam("Bias", "1"))
	s.b.Connect(ct, 0, md, 0)
	s.b.Connect(nC, 0, md, 1)
	s.b.Connect(md, 0, bi, 0)
	s.pushI32(bi)
	return bi
}

// pidLoop adds a discrete PI controller around an input signal: the
// canonical control-loop core shared by several domain models.
func (s *synth) pidLoop(stem string, src sigRef, kp, ki string) string {
	errS := s.addRoot(s.name(stem+"Err"), "Sum", 2, 1, model.WithOperator("+-"))
	p := s.addRoot(s.name(stem+"P"), "Gain", 1, 1, model.WithParam("Gain", kp))
	i := s.addRoot(s.name(stem+"I"), "DiscreteIntegrator", 1, 1, model.WithParam("Gain", ki))
	u := s.addRoot(s.name(stem+"U"), "Sum", 2, 1, model.WithOperator("++"))
	sat := s.addRoot(s.name(stem+"Sat"), "Saturation", 1, 1,
		model.WithParam("Min", "-50"), model.WithParam("Max", "50"))
	fb := s.addRoot(s.name(stem+"Fb"), "DiscreteFilter", 1, 1,
		model.WithParam("A", "0.9"), model.WithParam("B", "0.1"))
	// The feedback path needs a unit delay: DiscreteFilter has direct
	// feedthrough, so closing the loop through it alone would be an
	// algebraic loop.
	dly := s.addRoot(s.name(stem+"Z"), "UnitDelay", 1, 1)
	s.b.Connect(src.actor, src.port, errS, 0)
	s.b.Connect(dly, 0, errS, 1)
	s.b.Connect(errS, 0, p, 0)
	s.b.Connect(errS, 0, i, 0)
	s.b.Connect(p, 0, u, 0)
	s.b.Connect(i, 0, u, 1)
	s.b.Connect(u, 0, sat, 0)
	s.b.Connect(sat, 0, fb, 0)
	s.b.Connect(fb, 0, dly, 0)
	s.pushF64(errS)
	s.pushF64(u)
	s.pushF64(sat)
	return sat
}

func coreCPUT(s *synth) {
	// Task dispatch: a rotating task index drives a MultiportSwitch that
	// selects per-task load signals; queue lengths accumulate leakily.
	idx := s.intIndexSource("Task", 3)
	mps := s.addRoot("Dispatch", "MultiportSwitch", 4, 1)
	s.b.Connect(idx, 0, mps, 0)
	for p := 1; p <= 3; p++ {
		src := s.pickF64()
		s.b.Connect(src.actor, src.port, mps, p)
	}
	s.pushF64(mps)
	q := s.addRoot("QueueLen", "DiscreteIntegrator", 1, 1, model.WithParam("Gain", "0.001"))
	s.b.Connect(mps, 0, q, 0)
	s.pushF64(q)
	over := s.addRoot("Overload", "CompareToConstant", 1, 1,
		model.WithOperator(">"), model.WithParam("Constant", "10"))
	s.b.Connect(q, 0, over, 0)
	s.pushBool(over)
}

// coreCSEV builds the EV charging core. With inject=true the saturation
// guard on the charge accumulator is removed (case-study error 1: wrap on
// overflow in the "quantity" data store) and the charging-power product
// gets a short-int output narrower than its int inputs (error 2: wrap on
// overflow through downcast).
func coreCSEV(s *synth, inject bool, chargeRate string) {
	// Mode selection: charging mode index picks rated voltage/current.
	idx := s.intIndexSource("Mode", 3)
	volt := s.addRoot("RatedVoltage", "LookupDirect", 1, 1,
		model.WithParam("Table", "[220 380 750]"), model.WithOutKind(types.I32))
	curr := s.addRoot("RatedCurrent", "LookupDirect", 1, 1,
		model.WithParam("Table", "[16 32 250]"), model.WithOutKind(types.I32))
	s.b.Connect(idx, 0, volt, 0)
	s.b.Connect(idx, 0, curr, 0)

	// Charging power = U * I. The injected variant narrows the output to
	// int16, the paper's second injected error.
	powerOpts := []model.ActorOpt{model.WithOperator("**")}
	if inject {
		powerOpts = append(powerOpts, model.WithOutKind(types.I16))
	}
	power := s.addRoot("ChargePower", "Product", 2, 1, powerOpts...)
	s.b.Connect(volt, 0, power, 0)
	s.b.Connect(curr, 0, power, 1)

	// Charged-electricity quantity: a global data store accumulating the
	// charge rate — the paper's first injected error site.
	s.addRoot("QuantityStore", "DataStoreMemory", 0, 0,
		model.WithParam("Store", "quantity"), model.WithOutKind(types.I32))
	rd := s.addRoot("QuantityRead", "DataStoreRead", 0, 1,
		model.WithParam("Store", "quantity"), model.WithOutKind(types.I32))
	rate := s.addRoot("ChargeRate", "Constant", 0, 1,
		model.WithOutKind(types.I32), model.WithParam("Value", chargeRate))
	acc := s.addRoot("QuantityAdd", "Sum", 2, 1, model.WithOperator("++"))
	s.b.Connect(rd, 0, acc, 0)
	s.b.Connect(rate, 0, acc, 1)
	wr := s.addRoot("QuantityWrite", "DataStoreWrite", 1, 0, model.WithParam("Store", "quantity"))
	if inject {
		s.b.Connect(acc, 0, wr, 0)
	} else {
		guard := s.addRoot("QuantityGuard", "Saturation", 1, 1,
			model.WithParam("Min", "0"), model.WithParam("Max", "2000000000"))
		s.b.Connect(acc, 0, guard, 0)
		s.b.Connect(guard, 0, wr, 0)
	}

	// Monitoring path back into the float world.
	soc := s.addRoot("SOC", "DataTypeConversion", 1, 1, model.WithOutKind(types.F64))
	s.b.Connect(rd, 0, soc, 0)
	s.pushF64(soc)
	pw := s.addRoot("PowerF", "DataTypeConversion", 1, 1, model.WithOutKind(types.F64))
	s.b.Connect(power, 0, pw, 0)
	s.pushF64(pw)
}

func coreFMTM(s *synth) {
	// Multi-point temperature monitoring: calibrate each sensor input,
	// compare against alarm thresholds, aggregate the hottest point.
	cal := make([]string, 0, 3)
	for i := 0; i < 3; i++ {
		src := s.f64[i%len(s.f64)]
		lt := s.addRoot(s.name("Calib"), "Lookup1D", 1, 1,
			model.WithParam("BreakPoints", "[-100 -50 0 50 100]"),
			model.WithParam("Table", "[-98 -49.5 0.25 50.5 101]"))
		s.b.Connect(src.actor, src.port, lt, 0)
		s.pushF64(lt)
		cal = append(cal, lt)
		alarm := s.addRoot(s.name("Alarm"), "CompareToConstant", 1, 1,
			model.WithOperator(">"), model.WithParam("Constant", "85"))
		s.b.Connect(lt, 0, alarm, 0)
		s.pushBool(alarm)
	}
	hot := s.addRoot("Hottest", "MinMax", 3, 1, model.WithOperator("max"))
	for p, c := range cal {
		s.b.Connect(c, 0, hot, p)
	}
	s.pushF64(hot)
}

func coreLANS(s *synth) {
	// LAN switch: per-port byte counters and utilisation ratios.
	for i := 0; i < 3; i++ {
		src := s.f64[i%len(s.f64)]
		abs := s.addRoot(s.name("Load"), "Abs", 1, 1)
		s.b.Connect(src.actor, src.port, abs, 0)
		ctr := s.addRoot(s.name("Bytes"), "DiscreteIntegrator", 1, 1, model.WithParam("Gain", "0.0001"))
		s.b.Connect(abs, 0, ctr, 0)
		util := s.addRoot(s.name("Util"), "Gain", 1, 1, model.WithParam("Gain", "0.01"))
		s.b.Connect(ctr, 0, util, 0)
		s.pushF64(abs)
		s.pushF64(ctr)
		s.pushF64(util)
	}
}

func coreLEDLC(s *synth) {
	// LED controller: PWM duty from a gamma-corrected brightness demand.
	pwm := s.addRoot("PWM", "PulseGenerator", 0, 1,
		model.WithParam("Period", "32"), model.WithParam("Width", "12"))
	s.pushF64(pwm)
	bright := s.pickF64()
	gamma := s.addRoot("Gamma", "Polynomial", 1, 1, model.WithParam("Coeffs", "[0.004 0.1 0.02]"))
	s.b.Connect(bright.actor, bright.port, gamma, 0)
	duty := s.addRoot("Duty", "Product", 2, 1, model.WithOperator("**"))
	s.b.Connect(gamma, 0, duty, 0)
	s.b.Connect(pwm, 0, duty, 1)
	lim := s.addRoot("DutyLim", "Saturation", 1, 1,
		model.WithParam("Min", "0"), model.WithParam("Max", "1"))
	s.b.Connect(duty, 0, lim, 0)
	s.pushF64(gamma)
	s.pushF64(lim)
}

func coreRAC(s *synth) {
	// Robotic arm: PI loops per joint.
	for i := 0; i < 3; i++ {
		s.pidLoop(fmt.Sprintf("J%d", i+1), s.f64[i%len(s.f64)], "2.5", "0.05")
	}
}

func coreSPV(s *synth) {
	// Solar PV: irradiance to panel power curve with an MPPT-style
	// perturb-and-observe comparator.
	irr := s.pickF64()
	curve := s.addRoot("PVCurve", "Polynomial", 1, 1, model.WithParam("Coeffs", "[-0.002 0.3 0.1]"))
	s.b.Connect(irr.actor, irr.port, curve, 0)
	prev := s.addRoot("PrevPower", "UnitDelay", 1, 1)
	s.b.Connect(curve, 0, prev, 0)
	rising := s.addRoot("PowerRising", "RelationalOperator", 2, 1, model.WithOperator(">"))
	s.b.Connect(curve, 0, rising, 0)
	s.b.Connect(prev, 0, rising, 1)
	s.pushF64(curve)
	s.pushF64(prev)
	s.pushBool(rising)
}

func coreTCP(s *synth) {
	// Three-way handshake: connection state held in a data store stepped
	// by SYN/ACK conditions.
	s.addRoot("ConnState", "DataStoreMemory", 0, 0,
		model.WithParam("Store", "connState"), model.WithOutKind(types.I32))
	st := s.addRoot("StateRead", "DataStoreRead", 0, 1,
		model.WithParam("Store", "connState"), model.WithOutKind(types.I32))
	syn := s.addRoot("SynSeen", "CompareToZero", 1, 1, model.WithOperator(">"))
	src := s.pickF64()
	s.b.Connect(src.actor, src.port, syn, 0)
	one := s.addRoot("One", "Constant", 0, 1, model.WithOutKind(types.I32), model.WithParam("Value", "1"))
	advanced := s.addRoot("Advance", "Sum", 2, 1, model.WithOperator("++"))
	s.b.Connect(st, 0, advanced, 0)
	s.b.Connect(one, 0, advanced, 1)
	wrapped := s.addRoot("StateMod", "Mod", 2, 1)
	three := s.addRoot("Three", "Constant", 0, 1, model.WithOutKind(types.I32), model.WithParam("Value", "3"))
	s.b.Connect(advanced, 0, wrapped, 0)
	s.b.Connect(three, 0, wrapped, 1)
	next := s.addRoot("NextState", "If", 3, 1)
	s.b.Connect(syn, 0, next, 0)
	s.b.Connect(wrapped, 0, next, 1)
	s.b.Connect(st, 0, next, 2)
	wr := s.addRoot("StateWrite", "DataStoreWrite", 1, 0, model.WithParam("Store", "connState"))
	s.b.Connect(next, 0, wr, 0)
	estab := s.addRoot("Established", "CompareToConstant", 1, 1,
		model.WithOperator("=="), model.WithParam("Constant", "2"))
	s.b.Connect(next, 0, estab, 0)
	s.pushBool(estab)
	stF := s.addRoot("StateF", "DataTypeConversion", 1, 1, model.WithOutKind(types.F64))
	s.b.Connect(next, 0, stF, 0)
	s.pushF64(stF)
}

func coreTWC(s *synth) {
	// Train wheel speed: PI speed loop plus slip-detection relay braking.
	sat := s.pidLoop("Spd", s.pickF64(), "1.5", "0.02")
	slip := s.addRoot("SlipDet", "DiscreteDerivative", 1, 1)
	s.b.Connect(sat, 0, slip, 0)
	brake := s.addRoot("Brake", "Relay", 1, 1,
		model.WithParam("OnPoint", "5"), model.WithParam("OffPoint", "1"),
		model.WithParam("OnValue", "1"), model.WithParam("OffValue", "0"))
	s.b.Connect(slip, 0, brake, 0)
	s.pushF64(slip)
	s.pushF64(brake)
}

func coreUTPC(s *synth) {
	// Underwater thruster: depth-pressure compensation and power limit.
	depth := s.pickF64()
	press := s.addRoot("Pressure", "Gain", 1, 1, model.WithParam("Gain", "0.101"))
	s.b.Connect(depth.actor, depth.port, press, 0)
	demand := s.pickF64()
	thrust := s.addRoot("Thrust", "Product", 2, 1, model.WithOperator("**"))
	s.b.Connect(demand.actor, demand.port, thrust, 0)
	s.b.Connect(press, 0, thrust, 1)
	lim := s.addRoot("PowerLim", "RateLimiter", 1, 1,
		model.WithParam("RisingLimit", "2"), model.WithParam("FallingLimit", "4"))
	s.b.Connect(thrust, 0, lim, 0)
	s.pushF64(press)
	s.pushF64(lim)
}
