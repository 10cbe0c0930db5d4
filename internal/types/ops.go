package types

import "math"

// OpResult carries the error flags a calculation can raise. The flags map
// one-to-one onto the paper's calculation-diagnosis categories.
type OpResult struct {
	Overflow      bool // wrap on overflow occurred
	DivByZero     bool // division by zero attempted
	DomainErr     bool // math domain violation (sqrt of negative, log of non-positive, ...)
	NaNOrInf      bool // floating-point result is NaN or infinite
	OutOfRange    bool // conversion out of range
	PrecisionLoss bool // conversion discarded fractional part or low-order bits
}

// Merge ors other's flags into r.
func (r *OpResult) Merge(other OpResult) {
	r.Overflow = r.Overflow || other.Overflow
	r.DivByZero = r.DivByZero || other.DivByZero
	r.DomainErr = r.DomainErr || other.DomainErr
	r.NaNOrInf = r.NaNOrInf || other.NaNOrInf
	r.OutOfRange = r.OutOfRange || other.OutOfRange
	r.PrecisionLoss = r.PrecisionLoss || other.PrecisionLoss
}

// Any reports whether any error flag is set.
func (r OpResult) Any() bool {
	return r.Overflow || r.DivByZero || r.DomainErr || r.NaNOrInf ||
		r.OutOfRange || r.PrecisionLoss
}

// Add computes a+b in kind k with wrap semantics, flagging overflow.
func Add(k Kind, a, b Value) (Value, OpResult) {
	return binaryOp(k, a, b, addScalar)
}

// Sub computes a-b in kind k with wrap semantics, flagging overflow.
func Sub(k Kind, a, b Value) (Value, OpResult) {
	return binaryOp(k, a, b, subScalar)
}

// Mul computes a*b in kind k with wrap semantics, flagging overflow.
func Mul(k Kind, a, b Value) (Value, OpResult) {
	return binaryOp(k, a, b, mulScalar)
}

// Div computes a/b in kind k, flagging division by zero. Integer division
// by zero yields zero (the generated code guards the same way); float
// division by zero yields ±Inf and sets both DivByZero and NaNOrInf.
func Div(k Kind, a, b Value) (Value, OpResult) {
	return binaryOp(k, a, b, divScalar)
}

// Mod computes the remainder a mod b in kind k (math.Mod for floats).
func Mod(k Kind, a, b Value) (Value, OpResult) {
	return binaryOp(k, a, b, modScalar)
}

func binaryOp(k Kind, a, b Value, f func(Kind, Value, Value) (Value, OpResult)) (Value, OpResult) {
	var res OpResult
	ca, r1 := Convert(a, k)
	cb, r2 := Convert(b, k)
	res.OutOfRange = r1.OutOfRange || r2.OutOfRange
	res.PrecisionLoss = r1.PrecisionLoss || r2.PrecisionLoss
	if ca.Elems != nil || cb.Elems != nil {
		width := ca.Width()
		if cb.Width() > width {
			width = cb.Width()
		}
		out := Value{Kind: k, Elems: make([]Value, width)}
		for i := 0; i < width; i++ {
			v, r := f(k, ca.Elem(i), cb.Elem(i))
			out.Elems[i] = v
			res.Merge(r)
		}
		return out, res
	}
	v, r := f(k, ca, cb)
	res.Merge(r)
	return v, res
}

func addScalar(k Kind, a, b Value) (Value, OpResult) {
	var res OpResult
	switch {
	case k == Bool:
		return BoolVal(a.B != b.B), res // XOR, matching boolean sum semantics
	case k.IsSigned():
		sum := WrapInt(k, a.I+b.I)
		// Signed overflow: both operands' signs differ from the result's sign.
		// Operands and result are sign-extended within k's range, so the
		// int64 sign bit stands in for k's sign bit.
		if (a.I^sum)&(b.I^sum) < 0 {
			res.Overflow = true
		}
		return Value{Kind: k, I: sum}, res
	case k.IsUnsigned():
		sum := WrapUint(k, a.U+b.U)
		if sum < a.U || sum < b.U {
			res.Overflow = true
		}
		return Value{Kind: k, U: sum}, res
	default:
		f := a.F + b.F
		if k == F32 {
			f = float64(float32(f))
		}
		if math.IsNaN(f) || math.IsInf(f, 0) {
			res.NaNOrInf = true
		}
		return Value{Kind: k, F: f}, res
	}
}

func subScalar(k Kind, a, b Value) (Value, OpResult) {
	var res OpResult
	switch {
	case k == Bool:
		return BoolVal(a.B != b.B), res
	case k.IsSigned():
		diff := WrapInt(k, a.I-b.I)
		// Overflow iff the operands' signs differ and the result's sign
		// differs from the minuend's.
		if (a.I^b.I)&(a.I^diff) < 0 {
			res.Overflow = true
		}
		return Value{Kind: k, I: diff}, res
	case k.IsUnsigned():
		diff := WrapUint(k, a.U-b.U)
		if b.U > a.U {
			res.Overflow = true
		}
		return Value{Kind: k, U: diff}, res
	default:
		f := a.F - b.F
		if k == F32 {
			f = float64(float32(f))
		}
		if math.IsNaN(f) || math.IsInf(f, 0) {
			res.NaNOrInf = true
		}
		return Value{Kind: k, F: f}, res
	}
}

func mulScalar(k Kind, a, b Value) (Value, OpResult) {
	var res OpResult
	switch {
	case k == Bool:
		return BoolVal(a.B && b.B), res
	case k.IsSigned():
		prod := WrapInt(k, a.I*b.I)
		if a.I != 0 && b.I != 0 {
			wide := a.I * b.I
			if wide/a.I != b.I || WrapInt(k, wide) != wide {
				res.Overflow = true
			}
		}
		return Value{Kind: k, I: prod}, res
	case k.IsUnsigned():
		prod := WrapUint(k, a.U*b.U)
		if a.U != 0 && b.U != 0 {
			wide := a.U * b.U
			if wide/a.U != b.U || WrapUint(k, wide) != wide {
				res.Overflow = true
			}
		}
		return Value{Kind: k, U: prod}, res
	default:
		f := a.F * b.F
		if k == F32 {
			f = float64(float32(f))
		}
		if math.IsNaN(f) || math.IsInf(f, 0) {
			res.NaNOrInf = true
		}
		return Value{Kind: k, F: f}, res
	}
}

func divScalar(k Kind, a, b Value) (Value, OpResult) {
	var res OpResult
	switch {
	case k == Bool:
		if !b.B {
			res.DivByZero = true
			return BoolVal(false), res
		}
		return a, res
	case k.IsSigned():
		if b.I == 0 {
			res.DivByZero = true
			return Value{Kind: k}, res
		}
		q := a.I / b.I
		// INT_MIN / -1 overflows.
		if a.I == k.MinInt() && b.I == -1 {
			res.Overflow = true
			q = WrapInt(k, q)
		}
		return Value{Kind: k, I: WrapInt(k, q)}, res
	case k.IsUnsigned():
		if b.U == 0 {
			res.DivByZero = true
			return Value{Kind: k}, res
		}
		return Value{Kind: k, U: a.U / b.U}, res
	default:
		if b.F == 0 {
			res.DivByZero = true
		}
		f := a.F / b.F
		if k == F32 {
			f = float64(float32(f))
		}
		if math.IsNaN(f) || math.IsInf(f, 0) {
			res.NaNOrInf = true
		}
		return Value{Kind: k, F: f}, res
	}
}

func modScalar(k Kind, a, b Value) (Value, OpResult) {
	var res OpResult
	switch {
	case k == Bool:
		return BoolVal(false), res
	case k.IsSigned():
		if b.I == 0 {
			res.DivByZero = true
			return Value{Kind: k}, res
		}
		if a.I == k.MinInt() && b.I == -1 {
			return Value{Kind: k}, res
		}
		return Value{Kind: k, I: a.I % b.I}, res
	case k.IsUnsigned():
		if b.U == 0 {
			res.DivByZero = true
			return Value{Kind: k}, res
		}
		return Value{Kind: k, U: a.U % b.U}, res
	default:
		if b.F == 0 {
			res.DivByZero = true
		}
		f := math.Mod(a.F, b.F)
		if k == F32 {
			f = float64(float32(f))
		}
		if math.IsNaN(f) || math.IsInf(f, 0) {
			res.NaNOrInf = true
		}
		return Value{Kind: k, F: f}, res
	}
}

// Neg computes -a in kind k with wrap semantics (negating the minimum signed
// value overflows).
func Neg(k Kind, a Value) (Value, OpResult) {
	return Sub(k, Zero(k), a)
}

// Abs computes |a| in kind k, flagging the abs(INT_MIN) overflow.
func Abs(k Kind, a Value) (Value, OpResult) {
	var res OpResult
	ca, r := Convert(a, k)
	res.OutOfRange = r.OutOfRange
	if ca.Elems != nil {
		out := Value{Kind: k, Elems: make([]Value, len(ca.Elems))}
		for i, e := range ca.Elems {
			v, rr := Abs(k, e)
			out.Elems[i] = v
			res.Merge(rr)
		}
		return out, res
	}
	switch {
	case k == Bool, k.IsUnsigned():
		return ca, res
	case k.IsSigned():
		if ca.I == k.MinInt() {
			res.Overflow = true
			return ca, res
		}
		if ca.I < 0 {
			return Value{Kind: k, I: -ca.I}, res
		}
		return ca, res
	default:
		return Value{Kind: k, F: math.Abs(ca.F)}, res
	}
}

// Compare returns -1, 0, or +1 ordering a relative to b after promoting both
// to a common kind. NaN compares as incomparable and returns -2.
func Compare(a, b Value) int {
	k := Promote(a.Kind, b.Kind)
	ca, _ := Convert(a, k)
	cb, _ := Convert(b, k)
	switch {
	case k == Bool:
		switch {
		case ca.B == cb.B:
			return 0
		case cb.B:
			return -1
		default:
			return 1
		}
	case k.IsSigned():
		switch {
		case ca.I < cb.I:
			return -1
		case ca.I > cb.I:
			return 1
		default:
			return 0
		}
	case k.IsUnsigned():
		switch {
		case ca.U < cb.U:
			return -1
		case ca.U > cb.U:
			return 1
		default:
			return 0
		}
	default:
		switch {
		case math.IsNaN(ca.F) || math.IsNaN(cb.F):
			return -2
		case ca.F < cb.F:
			return -1
		case ca.F > cb.F:
			return 1
		default:
			return 0
		}
	}
}

// MathUnary applies a named unary math function in float64 and converts the
// result to kind k, flagging domain errors. Supported names match the Math
// actor's operator set.
func MathUnary(name string, k Kind, a Value) (Value, OpResult) {
	var res OpResult
	if a.Elems != nil {
		out := Value{Kind: k, Elems: make([]Value, len(a.Elems))}
		for i, e := range a.Elems {
			v, r := MathUnary(name, k, e)
			out.Elems[i] = v
			res.Merge(r)
		}
		return out, res
	}
	x := a.AsFloat()
	var f float64
	switch name {
	case "exp":
		f = math.Exp(x)
	case "log":
		if x <= 0 {
			res.DomainErr = true
		}
		f = math.Log(x)
	case "log10":
		if x <= 0 {
			res.DomainErr = true
		}
		f = math.Log10(x)
	case "log2":
		if x <= 0 {
			res.DomainErr = true
		}
		f = math.Log2(x)
	case "sqrt":
		if x < 0 {
			res.DomainErr = true
		}
		f = math.Sqrt(x)
	case "sin":
		f = math.Sin(x)
	case "cos":
		f = math.Cos(x)
	case "tan":
		f = math.Tan(x)
	case "asin":
		if x < -1 || x > 1 {
			res.DomainErr = true
		}
		f = math.Asin(x)
	case "acos":
		if x < -1 || x > 1 {
			res.DomainErr = true
		}
		f = math.Acos(x)
	case "atan":
		f = math.Atan(x)
	case "sinh":
		f = math.Sinh(x)
	case "cosh":
		f = math.Cosh(x)
	case "tanh":
		f = math.Tanh(x)
	case "reciprocal":
		if x == 0 {
			res.DivByZero = true
		}
		f = 1 / x
	case "square":
		f = x * x
	case "floor":
		f = math.Floor(x)
	case "ceil":
		f = math.Ceil(x)
	case "round":
		f = math.Round(x)
	case "fix":
		f = math.Trunc(x)
	default:
		res.DomainErr = true
		f = math.NaN()
	}
	out, cr := Convert(FloatVal(F64, f), k)
	res.OutOfRange = res.OutOfRange || cr.OutOfRange
	if k == F32 {
		// The flag describes the output: a finite result beyond the
		// float32 range is Inf there.
		f = out.F
	}
	if math.IsNaN(f) || math.IsInf(f, 0) {
		res.NaNOrInf = true
	}
	return out, res
}

// MathGoExpr returns the Go expression the code generator emits for the
// named unary math function applied to expression x (a float64 expression),
// or "" if the name is unknown.
func MathGoExpr(name, x string) string {
	switch name {
	case "exp":
		return "math.Exp(" + x + ")"
	case "log":
		return "math.Log(" + x + ")"
	case "log10":
		return "math.Log10(" + x + ")"
	case "log2":
		return "math.Log2(" + x + ")"
	case "sqrt":
		return "math.Sqrt(" + x + ")"
	case "sin":
		return "math.Sin(" + x + ")"
	case "cos":
		return "math.Cos(" + x + ")"
	case "tan":
		return "math.Tan(" + x + ")"
	case "asin":
		return "math.Asin(" + x + ")"
	case "acos":
		return "math.Acos(" + x + ")"
	case "atan":
		return "math.Atan(" + x + ")"
	case "sinh":
		return "math.Sinh(" + x + ")"
	case "cosh":
		return "math.Cosh(" + x + ")"
	case "tanh":
		return "math.Tanh(" + x + ")"
	case "reciprocal":
		return "(1 / (" + x + "))"
	case "square":
		return "((" + x + ") * (" + x + "))"
	case "floor":
		return "math.Floor(" + x + ")"
	case "ceil":
		return "math.Ceil(" + x + ")"
	case "round":
		return "math.Round(" + x + ")"
	case "fix":
		return "math.Trunc(" + x + ")"
	}
	return ""
}
