package simresult

import (
	"encoding/base64"
	"fmt"
	"math"
	"strconv"
	"unicode/utf8"

	"accmos/internal/coverage"
	"accmos/internal/diagnose"
)

// Decode parses the result document a generated binary emits. The
// generated encoder writes one fixed field order — model, engine, steps,
// execNanos, outputHash, optional coverage, diagTotal, then the optional
// diagCounts+firstDetect, diags and monitor+monitorHits sections — and
// Decode reads exactly that grammar without reflection. Map keys may come
// in any order and strings may carry any JSON escape except UTF-16
// surrogates. A document off that grammar is rejected with the byte offset
// where decoding stopped, leaving *r untouched; every document Decode
// accepts decodes to the same Results under encoding/json.
func Decode(b []byte, r *Results) error {
	d := cursor{b: b}
	var out Results
	ok := d.lit(`{"model":`) && d.str(&out.Model) &&
		d.lit(`,"engine":`) && d.str(&out.Engine) &&
		d.lit(`,"steps":`) && d.int(&out.Steps) &&
		d.lit(`,"execNanos":`) && d.int(&out.ExecNanos) &&
		d.lit(`,"outputHash":`) && d.uint(&out.OutputHash)
	if ok && d.lit(`,"coverage":`) {
		ok = d.coverage(&out.Coverage)
	}
	ok = ok && d.lit(`,"diagTotal":`) && d.int(&out.DiagTotal)
	if ok && d.lit(`,"diagCounts":`) {
		ok = d.counts(&out.DiagCounts) && d.lit(`,"firstDetect":`) && d.counts(&out.FirstDetect)
	}
	if ok && d.lit(`,"diags":`) {
		ok = d.records(&out.Diags)
	}
	if ok && d.lit(`,"monitor":`) {
		ok = d.monitor(&out.Monitor) && d.lit(`,"monitorHits":`) && d.counts(&out.MonitorHits)
	}
	if !ok || !d.lit("}") || !d.end() {
		return fmt.Errorf("decoding results at byte offset %d: not a generated result document", d.pos)
	}
	*r = out
	return nil
}

// DecodeGenerated is Decode reporting only whether the document was
// accepted.
func DecodeGenerated(b []byte, r *Results) bool {
	return Decode(b, r) == nil
}

// cursor walks a document; pos is the offset of the first unread byte.
type cursor struct {
	b   []byte
	pos int
}

// lit consumes the exact literal, reporting whether it was present.
func (d *cursor) lit(s string) bool {
	if len(d.b)-d.pos < len(s) || string(d.b[d.pos:d.pos+len(s)]) != s {
		return false
	}
	d.pos += len(s)
	return true
}

// byte consumes one expected byte.
func (d *cursor) byte(c byte) bool {
	if d.pos < len(d.b) && d.b[d.pos] == c {
		d.pos++
		return true
	}
	return false
}

// end accepts trailing JSON whitespace and nothing else.
func (d *cursor) end() bool {
	for d.pos < len(d.b) {
		switch d.b[d.pos] {
		case ' ', '\t', '\n', '\r':
			d.pos++
		default:
			return false
		}
	}
	return true
}

// uint consumes a JSON integer without sign or leading zeros that fits
// in a uint64 (the generated encoder never emits negative values).
func (d *cursor) uint(dst *uint64) bool {
	i, v := d.pos, uint64(0)
	for ; i < len(d.b) && '0' <= d.b[i] && d.b[i] <= '9'; i++ {
		digit := uint64(d.b[i] - '0')
		if v > (math.MaxUint64-digit)/10 {
			return false
		}
		v = v*10 + digit
	}
	if n := i - d.pos; n == 0 || n > 1 && d.b[d.pos] == '0' {
		return false
	}
	d.pos = i
	*dst = v
	return true
}

// int is uint bounded to the int64 range.
func (d *cursor) int(dst *int64) bool {
	var v uint64
	if !d.uint(&v) || v > math.MaxInt64 {
		return false
	}
	*dst = int64(v)
	return true
}

// str consumes a JSON string. Plain printable ASCII is sliced straight
// out of the document; anything else takes the unescaping path.
func (d *cursor) str(dst *string) bool {
	if !d.byte('"') {
		return false
	}
	for i := d.pos; i < len(d.b); i++ {
		switch c := d.b[i]; {
		case c == '"':
			*dst = string(d.b[d.pos:i])
			d.pos = i + 1
			return true
		case c == '\\' || c < 0x20 || c >= utf8.RuneSelf:
			return d.strEscaped(dst)
		}
	}
	return false
}

// strEscaped decodes a string holding escapes or non-ASCII bytes. It
// rejects control bytes, invalid UTF-8 and \u surrogates instead of
// repairing them.
func (d *cursor) strEscaped(dst *string) bool {
	var buf []byte
	for d.pos < len(d.b) {
		c := d.b[d.pos]
		switch {
		case c == '"':
			d.pos++
			*dst = string(buf)
			return true
		case c < 0x20:
			return false
		case c == '\\':
			if d.pos+1 >= len(d.b) {
				return false
			}
			if d.b[d.pos+1] == 'u' {
				r, ok := d.hex4(d.pos + 2)
				if !ok || 0xD800 <= r && r < 0xE000 {
					return false
				}
				buf = utf8.AppendRune(buf, r)
				d.pos += 6
				continue
			}
			e, ok := unescape[d.b[d.pos+1]]
			if !ok {
				return false
			}
			buf = append(buf, e)
			d.pos += 2
		case c < utf8.RuneSelf:
			buf = append(buf, c)
			d.pos++
		default:
			r, n := utf8.DecodeRune(d.b[d.pos:])
			if r == utf8.RuneError && n == 1 {
				return false
			}
			buf = append(buf, d.b[d.pos:d.pos+n]...)
			d.pos += n
		}
	}
	return false
}

// unescape maps the single-character JSON escapes to their bytes.
var unescape = map[byte]byte{
	'"': '"', '\\': '\\', '/': '/', 'b': '\b', 'f': '\f', 'n': '\n', 'r': '\r', 't': '\t',
}

// hex4 reads the four hex digits of a \u escape starting at i.
func (d *cursor) hex4(i int) (rune, bool) {
	if i+4 > len(d.b) {
		return 0, false
	}
	r, err := strconv.ParseUint(string(d.b[i:i+4]), 16, 16)
	return rune(r), err == nil
}

// list consumes open, zero or more comma-separated elements, and close.
func (d *cursor) list(open, close byte, elem func() bool) bool {
	if !d.byte(open) {
		return false
	}
	if d.byte(close) {
		return true
	}
	for {
		if !elem() {
			return false
		}
		if d.byte(close) {
			return true
		}
		if !d.byte(',') {
			return false
		}
	}
}

// coverage consumes the four base64 bitmaps in encoder order.
func (d *cursor) coverage(dst **coverage.Raw) bool {
	cov := &coverage.Raw{}
	*dst = cov
	return d.lit(`{"actor":`) && d.b64(&cov.Actor) &&
		d.lit(`,"cond":`) && d.b64(&cov.Cond) &&
		d.lit(`,"dec":`) && d.b64(&cov.Dec) &&
		d.lit(`,"mcdc":`) && d.b64(&cov.MCDC) && d.byte('}')
}

func (d *cursor) b64(dst *[]byte) bool {
	var s string
	if !d.str(&s) {
		return false
	}
	raw, err := base64.StdEncoding.DecodeString(s)
	*dst = raw
	return err == nil
}

// counts consumes a string-to-integer object (diag counts, first-detect
// steps, monitor hits).
func (d *cursor) counts(dst *map[string]int64) bool {
	m := map[string]int64{}
	*dst = m
	return d.list('{', '}', func() bool {
		var k string
		var v int64
		if !d.str(&k) || !d.byte(':') || !d.int(&v) {
			return false
		}
		m[k] = v
		return true
	})
}

// records consumes the verbatim diagnosis records.
func (d *cursor) records(dst *[]diagnose.Record) bool {
	recs := []diagnose.Record{}
	ok := d.list('[', ']', func() bool {
		var rec diagnose.Record
		var kind string
		if !d.lit(`{"step":`) || !d.int(&rec.Step) || !d.lit(`,"actor":`) || !d.str(&rec.Actor) ||
			!d.lit(`,"kind":`) || !d.str(&kind) {
			return false
		}
		if d.lit(`,"detail":`) && !d.str(&rec.Detail) {
			return false
		}
		rec.Kind = diagnose.Kind(kind)
		recs = append(recs, rec)
		return d.byte('}')
	})
	*dst = recs
	return ok
}

// monitor consumes the per-actor monitor samples; a null sample list
// decodes to nil, as encoding/json does.
func (d *cursor) monitor(dst *map[string][]MonitorSample) bool {
	m := map[string][]MonitorSample{}
	*dst = m
	return d.list('{', '}', func() bool {
		var name string
		if !d.str(&name) || !d.byte(':') {
			return false
		}
		if d.lit("null") {
			m[name] = nil
			return true
		}
		samples := []MonitorSample{}
		ok := d.list('[', ']', func() bool {
			var s MonitorSample
			if !d.lit(`{"step":`) || !d.int(&s.Step) || !d.lit(`,"value":`) || !d.str(&s.Value) || !d.byte('}') {
				return false
			}
			samples = append(samples, s)
			return true
		})
		m[name] = samples
		return ok
	})
}
