package simrt

import (
	"strconv"
	"unicode/utf8"
)

// decodeRequest decodes one request line into req. It reads the JSON the
// harness writes with encoding/json and decodes it as encoding/json
// would: an object whose keys are Request's JSON names, spelled exactly
// (a repeated key overrides), with integer numbers (seedXor unsigned)
// and strings. An absent key leaves its field zero, so a request without
// seedXor runs seed 0. It rejects everything else, such as unknown keys,
// case-folded names, non-integer numbers, null and surrogate escapes,
// none of which encoding/json writes for a Request.
func decodeRequest(line []byte, req *Request) error {
	r := reqReader{buf: line}
	if !r.byte('{') {
		return r.fail("want '{'")
	}
	for first := true; !r.byte('}'); first = false {
		if !first && !r.byte(',') {
			return r.fail("want ',' or '}'")
		}
		key, ok := r.str()
		if !ok || !r.byte(':') {
			return r.fail("want a key and ':'")
		}
		switch key {
		case "id":
			req.ID, ok = r.str()
		case "corr":
			req.Corr, ok = r.str()
		case "steps":
			req.Steps, ok = r.int()
		case "budgetMs":
			req.BudgetMS, ok = r.int()
		case "heartbeatMs":
			req.HeartbeatMS, ok = r.int()
		case "seedXor":
			req.SeedXor, ok = r.uint()
		default:
			return inputError("unknown field " + strconv.Quote(key))
		}
		if !ok {
			return r.fail("bad value for " + strconv.Quote(key))
		}
	}
	r.space()
	if r.off != len(r.buf) {
		return r.fail("want the end of the line")
	}
	return nil
}

// readParams reads run parameters into p.Uniform and returns the -steps
// default. The form is "steps=N" followed by ",u=SEED:LO:HI" for each
// uniform source in order (see FormatParams), with the bounds in
// strconv's shortest round-trip form, so each arrives bit-exact.
func (p *Program) readParams(s string) (int64, error) {
	bad := func(why string) (int64, error) {
		return 0, inputError("run parameters " + strconv.Quote(s) + ": " + why)
	}
	field, rest, more := cutByte(s, ',')
	v, ok := cutPrefix(field, "steps=")
	if !ok {
		return bad("want steps=N first")
	}
	steps, err := strconv.ParseInt(v, 10, 64)
	if err != nil {
		return bad("bad step count")
	}
	n := 0
	for ; more; n++ {
		field, rest, more = cutByte(rest, ',')
		v, ok := cutPrefix(field, "u=")
		if !ok || n == len(p.Uniform) {
			return bad("want " + strconv.Itoa(len(p.Uniform)) + " uniform sources")
		}
		seed, v, _ := cutByte(v, ':')
		lo, hi, _ := cutByte(v, ':')
		u := &p.Uniform[n]
		var errs [3]error
		u.Seed, errs[0] = strconv.ParseUint(seed, 10, 64)
		u.Lo, errs[1] = strconv.ParseFloat(lo, 64)
		u.Hi, errs[2] = strconv.ParseFloat(hi, 64)
		for _, err := range errs {
			if err != nil {
				return bad("bad uniform source " + strconv.Itoa(n))
			}
		}
	}
	if n != len(p.Uniform) {
		return bad("want " + strconv.Itoa(len(p.Uniform)) + " uniform sources")
	}
	return steps, nil
}

// cutByte splits s around the first sep, reporting whether there was
// one; without one it returns s and "".
func cutByte(s string, sep byte) (before, after string, found bool) {
	for i := 0; i < len(s); i++ {
		if s[i] == sep {
			return s[:i], s[i+1:], true
		}
	}
	return s, "", false
}

// cutPrefix returns s without prefix, reporting whether s had it.
func cutPrefix(s, prefix string) (string, bool) {
	if len(s) < len(prefix) || s[:len(prefix)] != prefix {
		return s, false
	}
	return s[len(prefix):], true
}

// inputError is a request line or an argument the program rejects.
type inputError string

func (e inputError) Error() string { return string(e) }

// reqReader reads JSON tokens from buf, skipping the whitespace before
// each.
type reqReader struct {
	buf []byte
	off int
}

func (r *reqReader) fail(want string) error {
	return inputError(want + " at offset " + strconv.Itoa(r.off))
}

// space skips JSON whitespace.
func (r *reqReader) space() {
	for r.off < len(r.buf) {
		switch r.buf[r.off] {
		case ' ', '\t', '\n', '\r':
			r.off++
		default:
			return
		}
	}
}

// byte consumes c if it comes next.
func (r *reqReader) byte(c byte) bool {
	r.space()
	if r.off < len(r.buf) && r.buf[r.off] == c {
		r.off++
		return true
	}
	return false
}

// integer reads the text of an integer number: digits without a leading
// zero, as JSON requires, after an optional minus sign. A fraction or an
// exponent is left unread, for the caller to reject.
func (r *reqReader) integer() (string, bool) {
	r.space()
	start := r.off
	if r.off < len(r.buf) && r.buf[r.off] == '-' {
		r.off++
	}
	digits := r.off
	for r.off < len(r.buf) && '0' <= r.buf[r.off] && r.buf[r.off] <= '9' {
		r.off++
	}
	n := r.off - digits
	return string(r.buf[start:r.off]), n == 1 || n > 1 && r.buf[digits] != '0'
}

func (r *reqReader) int() (int64, bool) {
	s, ok := r.integer()
	n, err := strconv.ParseInt(s, 10, 64)
	return n, ok && err == nil
}

func (r *reqReader) uint() (uint64, bool) {
	s, ok := r.integer()
	n, err := strconv.ParseUint(s, 10, 64)
	return n, ok && err == nil
}

// str reads a string, unescaped as encoding/json does: each byte of
// invalid UTF-8 becomes U+FFFD.
func (r *reqReader) str() (string, bool) {
	if !r.byte('"') {
		return "", false
	}
	var out []byte
	for r.off < len(r.buf) {
		c := r.buf[r.off]
		switch {
		case c == '"':
			r.off++
			return string(out), true
		case c < 0x20:
			return "", false
		case c == '\\':
			if r.off+1 == len(r.buf) {
				return "", false
			}
			e := r.buf[r.off+1]
			r.off += 2
			switch e {
			case '"', '\\', '/':
				out = append(out, e)
			case 'b':
				out = append(out, '\b')
			case 'f':
				out = append(out, '\f')
			case 'n':
				out = append(out, '\n')
			case 'r':
				out = append(out, '\r')
			case 't':
				out = append(out, '\t')
			case 'u':
				u := r.hex4()
				if u < 0 || 0xD800 <= u && u < 0xE000 {
					return "", false // not a \u escape, or half of a surrogate pair
				}
				out = utf8.AppendRune(out, u)
			default:
				return "", false
			}
		case c < utf8.RuneSelf:
			out = append(out, c)
			r.off++
		default:
			u, size := utf8.DecodeRune(r.buf[r.off:])
			out = utf8.AppendRune(out, u)
			r.off += size
		}
	}
	return "", false
}

// hex4 reads the four hex digits of a \u escape, or returns -1.
func (r *reqReader) hex4() rune {
	if len(r.buf)-r.off < 4 {
		return -1
	}
	var u rune
	for _, c := range r.buf[r.off : r.off+4] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return -1
		}
		u = u<<4 | rune(c)
	}
	r.off += 4
	return u
}
