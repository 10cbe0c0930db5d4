package simrt

import (
	"bufio"
	"math"
	"strconv"
	"time"
)

// Result renders the result document in the simresult.Results schema,
// append-based and in the fixed field order simresult.Decode reads:
// model, engine, steps, execNanos, outputHash, coverage (withCov only),
// diagTotal, then the diagnosis and monitor sections that carry
// anything. Only a request's last lane passes withCov: the bitmaps hold
// the OR-merge of every lane, rendered once.
func (p *Program) Result(steps, execNanos int64, withCov bool) []byte {
	b := make([]byte, 0, 192+len(p.Model)+p.coverageLen())
	b = append(b, `{"model":`...)
	b = appendStr(b, p.Model)
	b = append(b, `,"engine":"AccMoS","steps":`...)
	b = strconv.AppendInt(b, steps, 10)
	b = append(b, `,"execNanos":`...)
	b = strconv.AppendInt(b, execNanos, 10)
	b = append(b, `,"outputHash":`...)
	b = strconv.AppendUint(b, *p.OutputHash, 10)
	if p.Coverage != nil && withCov {
		b = append(b, `,"coverage":`...)
		b = p.appendCov(b)
	}
	b = append(b, `,"diagTotal":`...)
	b = strconv.AppendInt(b, *p.DiagTotal, 10)
	b = p.appendSections(b)
	return append(b, '}')
}

// coverageLen bounds the size of the coverage section.
func (p *Program) coverageLen() int {
	c := p.Coverage
	if c == nil {
		return 0
	}
	n := 64
	for _, bm := range [][]uint8{c.Actor, c.Cond, c.Dec, c.MCDC} {
		n += (len(bm) + 2) / 3 * 4
	}
	return n
}

// appendCov appends the coverage object: the four bitmaps in base64.
func (p *Program) appendCov(b []byte) []byte {
	b = append(b, `{"actor":"`...)
	b = appendBase64(b, p.Coverage.Actor)
	b = append(b, `","cond":"`...)
	b = appendBase64(b, p.Coverage.Cond)
	b = append(b, `","dec":"`...)
	b = appendBase64(b, p.Coverage.Dec)
	b = append(b, `","mcdc":"`...)
	b = appendBase64(b, p.Coverage.MCDC)
	return append(b, `"}`...)
}

// appendBase64 appends src in padded standard base64, as
// base64.StdEncoding encodes it.
func appendBase64(b, src []byte) []byte {
	const alphabet = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"
	for len(src) > 0 {
		var chunk [3]byte
		n := copy(chunk[:], src)
		src = src[n:]
		v := uint(chunk[0])<<16 | uint(chunk[1])<<8 | uint(chunk[2])
		quad := [4]byte{alphabet[v>>18], alphabet[v>>12&63], alphabet[v>>6&63], alphabet[v&63]}
		for i := n + 1; i < 4; i++ {
			quad[i] = '='
		}
		b = append(b, quad[:]...)
	}
	return b
}

// appendSections appends the optional result sections that carry
// anything: diagCounts+firstDetect keyed "actor|kind", the verbatim diag
// records, and monitor+monitorHits keyed by monitored actor.
func (p *Program) appendSections(b []byte) []byte {
	if anyPositive(p.DiagCounts) {
		diagKey := func(i int) string { return p.DiagActors[i] + "|" + p.DiagKinds[i] }
		b = append(b, `,"diagCounts":`...)
		b = appendCounts(b, p.DiagCounts, p.DiagCounts, diagKey)
		b = append(b, `,"firstDetect":`...)
		b = appendCounts(b, p.DiagCounts, p.DiagFirst, diagKey)
	}
	if recs := *p.Diags; len(recs) > 0 {
		b = append(b, `,"diags":[`...)
		for i, r := range recs {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, `{"step":`...)
			b = strconv.AppendInt(b, r.Step, 10)
			b = append(b, `,"actor":`...)
			b = appendStr(b, r.Actor)
			b = append(b, `,"kind":`...)
			b = appendStr(b, r.Kind)
			if r.Detail != "" {
				b = append(b, `,"detail":`...)
				b = appendStr(b, r.Detail)
			}
			b = append(b, '}')
		}
		b = append(b, ']')
	}
	if anyPositive(p.MonHits) {
		b = append(b, `,"monitor":{`...)
		n := 0
		for i, hits := range p.MonHits {
			if hits <= 0 {
				continue
			}
			if n > 0 {
				b = append(b, ',')
			}
			n++
			b = appendStr(b, p.MonNames[i])
			if p.MonSamples[i] == nil {
				b = append(b, ":null"...)
				continue
			}
			b = append(b, ":["...)
			for j, s := range p.MonSamples[i] {
				if j > 0 {
					b = append(b, ',')
				}
				b = append(b, `{"step":`...)
				b = strconv.AppendInt(b, s.Step, 10)
				b = append(b, `,"value":`...)
				b = appendStr(b, s.Value)
				b = append(b, '}')
			}
			b = append(b, ']')
		}
		b = append(b, `},"monitorHits":`...)
		b = appendCounts(b, p.MonHits, p.MonHits, func(i int) string { return p.MonNames[i] })
	}
	return b
}

// appendCounts appends a JSON object mapping key(i) to vals[i] for every
// slot i whose hits are positive.
func appendCounts(b []byte, hits, vals []int64, key func(int) string) []byte {
	b = append(b, '{')
	n := 0
	for i := range hits {
		if hits[i] <= 0 {
			continue
		}
		if n > 0 {
			b = append(b, ',')
		}
		n++
		b = appendStr(b, key(i))
		b = append(b, ':')
		b = strconv.AppendInt(b, vals[i], 10)
	}
	return append(b, '}')
}

func anyPositive(xs []int64) bool {
	for _, x := range xs {
		if x > 0 {
			return true
		}
	}
	return false
}

// appendStr appends s as a JSON string: quotes, backslashes and control
// bytes escaped, invalid UTF-8 replaced by U+FFFD, as encoding/json does.
func appendStr(b []byte, s string) []byte {
	const hex = "0123456789abcdef"
	b = append(b, '"')
	for _, r := range s {
		switch {
		case r == '"' || r == '\\':
			b = append(b, '\\', byte(r))
		case r < 0x20:
			b = append(b, '\\', 'u', '0', '0', hex[r>>4], hex[r&0xF])
		case r < 0x80:
			b = append(b, byte(r))
		default:
			b = append(b, string(r)...)
		}
	}
	return append(b, '"')
}

// appendHeartbeat appends one heartbeat line. Coverage is the percentage
// of coverage bytes set (-1 when coverage is off).
func (p *Program) appendHeartbeat(b []byte, runID string, steps int64, elapsed time.Duration, final bool) []byte {
	sps := 0.0
	if elapsed > 0 {
		sps = float64(steps) / elapsed.Seconds()
	}
	cov := -1.0
	if c := p.Coverage; c != nil {
		set, total := 0, 0
		for _, bm := range [][]uint8{c.Actor, c.Cond, c.Dec, c.MCDC} {
			for _, x := range bm {
				if x != 0 {
					set++
				}
			}
			total += len(bm)
		}
		cov = 100
		if total > 0 {
			cov = 100 * float64(set) / float64(total)
		}
	}
	b = append(b, `{"accmosHB":1,"model":`...)
	b = appendStr(b, p.Model)
	b = append(b, `,"engine":"AccMoS","steps":`...)
	b = strconv.AppendInt(b, steps, 10)
	b = append(b, `,"elapsedNanos":`...)
	b = strconv.AppendInt(b, elapsed.Nanoseconds(), 10)
	b = append(b, `,"stepsPerSec":`...)
	b = append(b, jsonFloat(sps)...)
	b = append(b, `,"coverage":`...)
	b = append(b, jsonFloat(cov)...)
	b = append(b, `,"diags":`...)
	b = strconv.AppendInt(b, *p.DiagTotal, 10)
	if final {
		b = append(b, `,"final":true`...)
	}
	if runID != "" {
		b = append(b, `,"run":`...)
		b = appendStr(b, runID)
	}
	return append(b, "}\n"...)
}

// jsonFloat formats a float for a heartbeat record, mapping the values
// JSON cannot carry (NaN, ±Inf) to 0.
func jsonFloat(f float64) string {
	if f != f || f > math.MaxFloat64 || f < -math.MaxFloat64 {
		return "0"
	}
	return strconv.FormatFloat(f, 'g', -1, 64)
}

// writeFrame emits one response frame and flushes: a small header line
// naming the request id and either the error or the lane count, then
// one line per lane result, so the host reads the header with
// encoding/json and hands each lane to simresult.Decode without scanning
// one giant JSON value.
func writeFrame(out *bufio.Writer, id string, lanes [][]byte, errMsg string) {
	out.WriteString(`{"accmosRun":1,"id":`)
	out.Write(appendStr(nil, id))
	if errMsg != "" {
		out.WriteString(`,"error":`)
		out.Write(appendStr(nil, errMsg))
	} else {
		out.WriteString(`,"laneCount":`)
		out.WriteString(strconv.Itoa(len(lanes)))
	}
	out.WriteString("}\n")
	for _, lane := range lanes {
		out.Write(lane)
		out.WriteByte('\n')
	}
	out.Flush()
}

// RangeDetail is a range check's finding detail, formatted as the
// engines' fmt.Sprintf("%s: value %g outside [%g, %g]", ...) formats it.
func RangeDetail(name string, v, lo, hi float64) string {
	b := append([]byte(name), ": value "...)
	b = strconv.AppendFloat(b, v, 'g', -1, 64)
	b = append(b, " outside ["...)
	b = strconv.AppendFloat(b, lo, 'g', -1, 64)
	b = append(b, ", "...)
	b = strconv.AppendFloat(b, hi, 'g', -1, 64)
	return string(append(b, ']'))
}

// DeltaDetail is a delta check's finding detail, formatted as the
// engines' fmt.Sprintf("%s: jump %g exceeds %g", ...) formats it.
func DeltaDetail(name string, d, limit float64) string {
	b := append([]byte(name), ": jump "...)
	b = strconv.AppendFloat(b, d, 'g', -1, 64)
	b = append(b, " exceeds "...)
	return string(strconv.AppendFloat(b, limit, 'g', -1, 64))
}

// FmtVecF64 and its siblings render a monitored vector like the
// interpreter's value printer: "[e1 e2 ...]".
func FmtVecF64(v []float64) string {
	return fmtVec(v, func(b []byte, x float64) []byte { return strconv.AppendFloat(b, x, 'g', -1, 64) })
}

func FmtVecF32(v []float32) string {
	return fmtVec(v, func(b []byte, x float32) []byte { return strconv.AppendFloat(b, float64(x), 'g', -1, 64) })
}

func FmtVecI[T int8 | int16 | int32 | int64](v []T) string {
	return fmtVec(v, func(b []byte, x T) []byte { return strconv.AppendInt(b, int64(x), 10) })
}

func FmtVecU[T uint8 | uint16 | uint32 | uint64](v []T) string {
	return fmtVec(v, func(b []byte, x T) []byte { return strconv.AppendUint(b, uint64(x), 10) })
}

func FmtVecB(v []bool) string {
	return fmtVec(v, strconv.AppendBool)
}

func fmtVec[T any](v []T, elem func([]byte, T) []byte) string {
	b := []byte{'['}
	for i, x := range v {
		if i > 0 {
			b = append(b, ' ')
		}
		b = elem(b, x)
	}
	return string(append(b, ']'))
}
