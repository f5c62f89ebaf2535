package wire

// Reflection-free decoding of rpc bodies. Every message and every DTO it
// carries has a hand-written decoder that walks the JSON once, checking its
// syntax as it goes, and decodes exactly what encoding/json's Unmarshal
// decodes into the same value: null leaves a scalar or struct alone and
// clears a slice or pointer, a repeated key decodes into what the earlier
// one left (structs and slice elements merge), strings are unquoted and
// coerced to UTF-8 the same way, numbers follow the same grammar and the
// same strconv parsing, unknown keys are checked and skipped, and nesting
// past 10 000 containers is refused. The one departure is a key that names
// a field only case-insensitively ("Job" for "job"): encoding/json decodes
// it into the field, Decode refuses it with ErrFoldedKey.

import (
	"errors"
	"fmt"
	"strconv"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"
)

// ErrFoldedKey is the error Decode returns, wrapped with the key and the
// field, for an object key that matches a field's name only
// case-insensitively.
var ErrFoldedKey = errors.New("wire: key matches a field only case-insensitively")

// maxDepth is encoding/json's nesting limit: 10 000 open objects and arrays
// are accepted, one more is not.
const maxDepth = 10000

// Message is an rpc request or response body: every *XRequest and
// *XResponse type of this package.
type Message interface {
	version() int
	decode(d *decoder)
}

// Decode reads one rpc body into m, then checks its schema version.
func Decode(data []byte, m Message) error {
	if err := decodeWith(data, m.decode); err != nil {
		return err
	}
	return Check(m.version())
}

// decodeWith runs one top-level decode over data: f reads the value, and
// nothing but whitespace may follow it.
func decodeWith(data []byte, f func(*decoder)) error {
	d := decoder{data: data}
	f(&d)
	if d.err == nil {
		if d.skipSpace(); d.pos < len(d.data) {
			d.syntax("after top-level value")
		}
	}
	return d.err
}

// decoder is a cursor over one body; the first error sticks, and every
// step after it is a no-op.
type decoder struct {
	data  []byte
	pos   int
	depth int
	err   error
	// strs holds recently decoded strings, which repeat within a message
	// (a zone's region and name in every pool entry and replica run), so a
	// repeat reuses the earlier string instead of allocating another.
	strs [8]string
	next int
}

func (d *decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("wire: offset %d: "+format, append([]any{d.pos}, args...)...)
	}
}

// syntax records a syntax error at the current byte (or the end of input).
func (d *decoder) syntax(context string) {
	if d.pos >= len(d.data) {
		d.fail("unexpected end of JSON input")
		return
	}
	d.fail("invalid character %q %s", d.data[d.pos], context)
}

func (d *decoder) skipSpace() {
	for d.pos < len(d.data) {
		switch d.data[d.pos] {
		case ' ', '\t', '\n', '\r':
			d.pos++
		default:
			return
		}
	}
}

// peek skips whitespace and returns the next byte without consuming it; at
// the end of input it records the error and returns 0.
func (d *decoder) peek() byte {
	if d.err != nil {
		return 0
	}
	d.skipSpace()
	if d.pos >= len(d.data) {
		d.syntax("")
		return 0
	}
	return d.data[d.pos]
}

// literal consumes the literal lit ("true", "false" or "null").
func (d *decoder) literal(lit string) {
	if len(d.data)-d.pos < len(lit) || string(d.data[d.pos:d.pos+len(lit)]) != lit {
		d.syntax("in literal " + lit)
		return
	}
	d.pos += len(lit)
}

// value returns the first byte of the next value, or ok false when that
// value is null (consumed) or the decode has failed.
func (d *decoder) value() (c byte, ok bool) {
	c = d.peek()
	if c == 'n' {
		d.literal("null")
		return 0, false
	}
	return c, d.err == nil
}

// mismatch records a value of the wrong JSON type for its field, or a
// syntax error if c starts no value at all.
func (d *decoder) mismatch(c byte, want string) {
	var found string
	switch {
	case c == '{':
		found = "object"
	case c == '[':
		found = "array"
	case c == '"':
		found = "string"
	case c == 't' || c == 'f':
		found = "bool"
	case c == '-' || '0' <= c && c <= '9':
		found = "number"
	default:
		d.syntax("looking for beginning of value")
		return
	}
	d.fail("cannot decode %s into %s", found, want)
}

// open enters a container. Only skip checks the depth against maxDepth:
// the schema nests objects and arrays a few levels deep at most, so only an
// unknown value can reach the limit.
func (d *decoder) open() {
	d.pos++
	d.depth++
}

// openObject enters the object at d.pos and reports whether a member
// follows; null, {} and a failed decode report false. An object decoder
// loops over the members, reading each key and then its value:
//
//	for more := d.openObject(); more; more = d.nextMember() {
//		switch key := d.key(); string(key) {
//		case "name":
//			d.string(&x.Name)
//		default:
//			d.unknown(xFields, key)
//		}
//	}
//
// A null object leaves the value alone, as encoding/json does.
func (d *decoder) openObject() bool {
	c, ok := d.value()
	if !ok {
		return false
	}
	if c != '{' {
		d.mismatch(c, "object")
		return false
	}
	d.open()
	if d.peek() == '}' {
		d.pos++
		d.depth--
		return false
	}
	return d.err == nil
}

// nextMember moves past the separator after a member's value: true before
// another member, false at the end of the object or on error.
func (d *decoder) nextMember() bool {
	switch d.peek() {
	case ',':
		d.pos++
		return true
	case '}':
		d.pos++
		d.depth--
		return false
	}
	d.syntax("after object key:value pair")
	return false
}

// key reads a member's key and its colon, and returns the key unquoted.
func (d *decoder) key() []byte {
	if d.peek() != '"' {
		d.syntax("looking for beginning of object key string")
		return nil
	}
	key, plain := d.scanString()
	if !plain {
		key = unquote(key)
	}
	if d.peek() != ':' {
		d.syntax("after object key")
		return nil
	}
	d.pos++
	return key
}

// unknown refuses a key that folds to one of names, and skips the value of
// any other.
func (d *decoder) unknown(names []string, key []byte) {
	if d.err != nil {
		return
	}
	var kb, nb [32]byte
	folded := appendFolded(kb[:0], key)
	for _, n := range names {
		if string(appendFolded(nb[:0], []byte(n))) == string(folded) {
			d.fail("%w: %q for %q", ErrFoldedKey, key, n)
			return
		}
	}
	d.skip()
}

// appendFolded appends key folded as encoding/json folds field names:
// ASCII letters upper-cased, any other rune replaced by the smallest rune
// of its case-folding orbit.
func appendFolded(out, key []byte) []byte {
	for i := 0; i < len(key); {
		if c := key[i]; c < utf8.RuneSelf {
			if 'a' <= c && c <= 'z' {
				c -= 'a' - 'A'
			}
			out = append(out, c)
			i++
			continue
		}
		r, n := utf8.DecodeRune(key[i:])
		for {
			r2 := unicode.SimpleFold(r)
			if r2 <= r {
				r = r2
				break
			}
			r = r2
		}
		out = utf8.AppendRune(out, r)
		i += n
	}
	return out
}

// decodeArray decodes a JSON array into *s element by element, as
// encoding/json does: null clears the slice, [] leaves it empty but
// non-nil, and elements decode into what the slice already holds (up to
// its old length, and past it up to its capacity), so a repeated key
// merges into the earlier one's elements.
func decodeArray[T any](d *decoder, s *[]T, elem func(*decoder, *T)) {
	c, ok := d.value()
	if !ok {
		if d.err == nil {
			*s = nil
		}
		return
	}
	if c != '[' {
		d.mismatch(c, "array")
		return
	}
	d.open()
	v := *s
	i := 0
	if d.peek() != ']' {
		for d.err == nil {
			if i == cap(v) {
				var zero T
				v = append(v[:i], zero)
			}
			v = v[:i+1]
			elem(d, &v[i])
			i++
			if c := d.peek(); c == ']' {
				break
			} else if c != ',' {
				d.syntax("after array element")
				return
			}
			d.pos++
		}
	}
	if d.err != nil {
		return
	}
	d.pos++
	d.depth--
	if i == 0 {
		v = make([]T, 0)
	}
	*s = v[:i]
}

// decodePtr decodes into **p as encoding/json does: null sets nil, and any
// other value decodes into *p, allocated first if nil.
func decodePtr[T any](d *decoder, p **T, elem func(*decoder, *T)) {
	if _, ok := d.value(); !ok {
		if d.err == nil {
			*p = nil
		}
		return
	}
	if *p == nil {
		*p = new(T)
	}
	elem(d, *p)
}

// scanString checks the string token at d.pos and moves past it. It
// returns the bytes between the quotes and whether they are plain (no
// escape, no byte past ASCII), in which case they are the string's value.
func (d *decoder) scanString() (raw []byte, plain bool) {
	data := d.data
	start := d.pos + 1
	plain = true
	for i := start; i < len(data); {
		switch c := data[i]; {
		case c == '"':
			d.pos = i + 1
			return data[start:i], plain
		case c == '\\':
			plain = false
			d.pos = i + 1
			if i+1 >= len(data) {
				d.syntax("")
				return nil, false
			}
			switch data[i+1] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
				i += 2
			case 'u':
				for k := i + 2; k < i+6; k++ {
					if d.pos = k; k >= len(data) || !isHex(data[k]) {
						d.syntax("in \\u hexadecimal character escape")
						return nil, false
					}
				}
				i += 6
			default:
				d.pos = i + 1
				d.syntax("in string escape code")
				return nil, false
			}
		case c < ' ':
			d.pos = i
			d.syntax("in string literal")
			return nil, false
		case c >= utf8.RuneSelf:
			plain = false
			i++
		default:
			i++
		}
	}
	d.pos = len(data)
	d.syntax("")
	return nil, false
}

func isHex(c byte) bool {
	return '0' <= c && c <= '9' || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F'
}

// unquote decodes the checked bytes of a string that scanString found not
// plain, as encoding/json does: escapes decode, a \u escape of a lone
// surrogate and every byte of invalid UTF-8 become U+FFFD.
func unquote(s []byte) []byte {
	b := make([]byte, 0, len(s)+2*utf8.UTFMax)
	for r := 0; r < len(s); {
		switch c := s[r]; {
		case c == '\\':
			switch s[r+1] {
			case 'b':
				b = append(b, '\b')
			case 'f':
				b = append(b, '\f')
			case 'n':
				b = append(b, '\n')
			case 'r':
				b = append(b, '\r')
			case 't':
				b = append(b, '\t')
			case 'u':
				rr := getu4(s[r:])
				r += 6
				if utf16.IsSurrogate(rr) {
					if dec := utf16.DecodeRune(rr, getu4(s[r:])); dec != unicode.ReplacementChar {
						r += 6
						b = utf8.AppendRune(b, dec)
						continue
					}
					rr = unicode.ReplacementChar
				}
				b = utf8.AppendRune(b, rr)
				continue
			default: // '"', '\\', '/'
				b = append(b, s[r+1])
			}
			r += 2
		case c < utf8.RuneSelf:
			b = append(b, c)
			r++
		default:
			rr, size := utf8.DecodeRune(s[r:])
			r += size
			b = utf8.AppendRune(b, rr)
		}
	}
	return b
}

// getu4 decodes the \uXXXX escape at the start of s, or returns -1 if s
// does not start with one. scanString has checked the hex digits of every
// escape.
func getu4(s []byte) rune {
	if len(s) < 6 || s[0] != '\\' || s[1] != 'u' {
		return -1
	}
	var r rune
	for _, c := range s[2:6] {
		switch {
		case c <= '9':
			c -= '0'
		case c >= 'a':
			c -= 'a' - 10
		default:
			c -= 'A' - 10
		}
		r = r<<4 | rune(c)
	}
	return r
}

// string decodes a string value into *p.
func (d *decoder) string(p *string) {
	c, ok := d.value()
	if !ok {
		return
	}
	if c != '"' {
		d.mismatch(c, "string")
		return
	}
	raw, plain := d.scanString()
	switch {
	case d.err != nil:
	case !plain:
		*p = string(unquote(raw))
	default:
		*p = d.intern(raw)
	}
}

// intern returns b as a string, reusing a recently decoded equal one.
func (d *decoder) intern(b []byte) string {
	for _, s := range d.strs {
		if s == string(b) {
			return s
		}
	}
	s := string(b)
	d.strs[d.next] = s
	d.next = (d.next + 1) % len(d.strs)
	return s
}

// bool decodes true or false into *p.
func (d *decoder) bool(p *bool) {
	switch c, ok := d.value(); {
	case !ok:
	case c == 't':
		d.literal("true")
		*p = true
	case c == 'f':
		d.literal("false")
		*p = false
	default:
		d.mismatch(c, "bool")
	}
}

// number checks the number token at d.pos against JSON's grammar and moves
// past it; integral reports that it has no fraction and no exponent.
func (d *decoder) number() (num []byte, integral bool) {
	data, i := d.data, d.pos
	digits := func() bool {
		start := i
		for i < len(data) && '0' <= data[i] && data[i] <= '9' {
			i++
		}
		return i > start
	}
	if data[i] == '-' {
		i++
	}
	switch {
	case i < len(data) && data[i] == '0':
		i++
	case !digits():
		d.pos = i
		d.syntax("in numeric literal")
		return nil, false
	}
	integral = true
	if i < len(data) && data[i] == '.' {
		integral = false
		if i++; !digits() {
			d.pos = i
			d.syntax("after decimal point in numeric literal")
			return nil, false
		}
	}
	if i < len(data) && (data[i] == 'e' || data[i] == 'E') {
		integral = false
		if i++; i < len(data) && (data[i] == '+' || data[i] == '-') {
			i++
		}
		if !digits() {
			d.pos = i
			d.syntax("in exponent of numeric literal")
			return nil, false
		}
	}
	num = data[d.pos:i]
	d.pos = i
	return num, integral
}

// numeric returns the next number token, or ok false for null, an error,
// or a value that is not a number (want names the field's type).
func (d *decoder) numeric(want string) (num []byte, integral, ok bool) {
	c, ok := d.value()
	if !ok {
		return nil, false, false
	}
	if c != '-' && (c < '0' || c > '9') {
		d.mismatch(c, want)
		return nil, false, false
	}
	num, integral = d.number()
	return num, integral, d.err == nil
}

// integer decodes an integer that fits in bits, as strconv.ParseInt reads
// it; like encoding/json, it refuses a fraction or an exponent. ok is false
// for null and on error.
func (d *decoder) integer(bits int) (n int64, ok bool) {
	num, integral, ok := d.numeric("integer")
	if !ok {
		return 0, false
	}
	if integral && len(num) <= 9 { // any 32-bit int
		digits := num
		if num[0] == '-' {
			digits = num[1:]
		}
		for _, c := range digits {
			n = n*10 + int64(c-'0')
		}
		if num[0] == '-' {
			n = -n
		}
		return n, true
	}
	n, err := strconv.ParseInt(string(num), 10, bits)
	if err != nil {
		d.fail("cannot decode number %s into a %d-bit integer", num, bits)
		return 0, false
	}
	return n, true
}

// int64 decodes an integer into *p.
func (d *decoder) int64(p *int64) {
	if n, ok := d.integer(64); ok {
		*p = n
	}
}

// int decodes an integer into *p, refusing one that int cannot hold.
func (d *decoder) int(p *int) {
	if n, ok := d.integer(strconv.IntSize); ok {
		*p = int(n)
	}
}

// uint64 decodes a non-negative integer into *p.
func (d *decoder) uint64(p *uint64) {
	num, integral, ok := d.numeric("unsigned integer")
	if !ok {
		return
	}
	if integral && num[0] != '-' && len(num) <= 19 {
		var n uint64
		for _, c := range num {
			n = n*10 + uint64(c-'0')
		}
		*p = n
		return
	}
	n, err := strconv.ParseUint(string(num), 10, 64)
	if err != nil {
		d.fail("cannot decode number %s into an unsigned integer", num)
		return
	}
	*p = n
}

// float64 decodes a number into *p as strconv.ParseFloat reads it; one
// out of float64's range is refused.
func (d *decoder) float64(p *float64) {
	num, _, ok := d.numeric("float")
	if !ok {
		return
	}
	f, err := strconv.ParseFloat(string(num), 64)
	if err != nil {
		d.fail("cannot decode number %s into a float", num)
		return
	}
	*p = f
}

// skip checks and passes over one value of any shape. It keeps its own
// stack of open containers rather than recursing, so a deeply nested
// unknown value costs no goroutine stack.
func (d *decoder) skip() {
	var isObject [maxDepth/64 + 1]uint64
	base := d.depth
	for d.err == nil {
		switch c := d.peek(); {
		case c == '{' || c == '[':
			if d.open(); d.depth > maxDepth {
				d.fail("exceeded max depth")
				return
			}
			k := d.depth - base - 1
			if c == '{' {
				isObject[k/64] |= 1 << (k % 64)
			} else {
				isObject[k/64] &^= 1 << (k % 64)
			}
			if end := d.peek(); end == '}' && c == '{' || end == ']' && c == '[' {
				d.pos++
				d.depth--
				break
			}
			if c == '{' {
				d.key()
			}
			continue
		case c == '"':
			d.scanString()
		case c == '-' || '0' <= c && c <= '9':
			d.number()
		case c == 't':
			d.literal("true")
		case c == 'f':
			d.literal("false")
		case c == 'n':
			d.literal("null")
		case d.err == nil:
			d.syntax("looking for beginning of value")
		}
		// A value ended: close what it ends, or move on to the next one.
		for d.err == nil && d.depth > base {
			k := d.depth - base - 1
			obj := isObject[k/64]&(1<<(k%64)) != 0
			c := d.peek()
			if c == ',' {
				d.pos++
				if obj {
					d.key()
				}
				break
			}
			if obj && c == '}' || !obj && c == ']' {
				d.pos++
				d.depth--
				continue
			}
			if obj {
				d.syntax("after object key:value pair")
			} else {
				d.syntax("after array element")
			}
		}
		if d.depth == base {
			return
		}
	}
}
