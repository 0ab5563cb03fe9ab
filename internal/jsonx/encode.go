// Package jsonx is the serving layer's pooled JSON codec: append-style
// encoders whose output is byte-for-byte identical to encoding/json's
// default (HTML-escaping) marshaler, a zero-allocation pull decoder for
// the small request shapes the API accepts, and a buffer pool so a warm
// handler neither allocates a response buffer nor walks reflection
// metadata per request.
//
// encoding/json is the executable specification: every primitive here is
// pinned to it by differential tests (strings across the escaping
// classes, floats across the exponent-format switchover), and the
// serving layer pins whole response bodies against json.Marshal over the
// golden corpus. The decoder matches encoding/json's *semantics* for the
// request shapes (null handling, unknown-field rejection, last-duplicate
// wins, one value read with trailing bytes ignored) but reports its own
// error strings — error text is not part of the API contract, only the
// structured error code is.
package jsonx

import (
	"math"
	"math/bits"
	"slices"
	"strconv"
	"sync"
	"unicode/utf8"
)

const hexDigits = "0123456789abcdef"

// AppendString appends s as a JSON string literal, byte-identical to
// encoding/json with its default EscapeHTML(true) behavior: ", \ and
// control bytes are escaped (\b \f \n \r \t named, the rest \u00xx),
// <, > and & become their \u00xx escapes, invalid UTF-8 bytes are
// replaced with U+FFFD, and U+2028/U+2029 are escaped for JSONP safety.
func AppendString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '\\', '"':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		if c == utf8.RuneError && size == 1 {
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', 'f', 'f', 'f', 'd')
			i += size
			start = i
			continue
		}
		if c == '\u2028' || c == '\u2029' {
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}

// AppendFloat appends f in encoding/json's float64 notation: shortest
// 'f' form in [1e-6, 1e21), 'e' form outside with the exponent's leading
// zero stripped (1e-07 → 1e-7). f must be finite — encoding/json refuses
// NaN/Inf with an error, and the serving layer's profiles are validated
// finite, so this appender has no error path.
//
// The 'f' range never reaches strconv and never allocates. ±0 and short
// decimals take the integer path: when |f|·10⁶ < 2⁵¹, r = round(|f|·10⁶)
// is accepted if r/10⁶ == |f|. Below 2⁵¹/10⁶ < 2³² a float64's rounding
// interval is narrower than 10⁻⁶, so r·10⁻⁶ is the only multiple of 10⁻⁶
// that parses back to f, and strconv's shortest digits are r's with the
// trailing zeros stripped. Every other 'f'-range value runs the Ryū port
// in ryu.go.
func AppendFloat(b []byte, f float64) []byte {
	abs := math.Abs(f)
	if s := abs * 1e6; s < 1<<51 {
		if r := math.Round(s); r/1e6 == abs {
			if math.Signbit(f) {
				b = append(b, '-')
			}
			return appendMicros(b, uint64(r))
		}
	}
	if !(abs >= 1e-6 && abs < 1e21) {
		b = strconv.AppendFloat(b, f, 'e', -1, 64)
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
		return b
	}
	u := math.Float64bits(f)
	if u>>63 != 0 {
		b = append(b, '-')
	}
	m, e := ryuShortest(u&(1<<52-1)|1<<52, int(u>>52&0x7FF)-1075)
	return appendDecimal(b, m, e)
}

// pow10 holds 10^i for every i a uint64 can hold.
var pow10 = [...]uint64{
	1, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9,
	1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19,
}

// appendMicros appends r×10⁻⁶ with no trailing fractional zeros.
func appendMicros(b []byte, r uint64) []byte {
	ip, frac := r/1e6, uint32(r%1e6)
	k := decimalLen(ip)
	n := len(b)
	b = slices.Grow(b, k)[:n+k]
	putDigits(b[n:], ip)
	if frac == 0 {
		return b
	}
	w := 6
	for frac%10 == 0 {
		frac /= 10
		w--
	}
	n = len(b)
	b = slices.Grow(b, w+1)[:n+w+1]
	b[n] = '.'
	putDigits(b[n+1:], uint64(frac))
	return b
}

// appendDecimal appends m×10^e (m > 0) in 'f' notation with no trailing
// fractional zeros, as strconv's shortest 'f' form prints it.
func appendDecimal(b []byte, m uint64, e int) []byte {
	for e < 0 && m%10 == 0 {
		m /= 10
		e++
	}
	k := decimalLen(m)
	n := len(b)
	switch {
	case e >= 0:
		b = slices.Grow(b, k+e)[:n+k+e]
		putDigits(b[n:n+k], m)
		for i := n + k; i < len(b); i++ {
			b[i] = '0'
		}
	case k > -e:
		// Print all k digits, then open a gap for the point.
		b = slices.Grow(b, k+1)[:n+k+1]
		putDigits(b[n:n+k], m)
		p := n + k + e
		copy(b[p+1:], b[p:n+k])
		b[p] = '.'
	default:
		b = slices.Grow(b, 2-e)[:n+2-e]
		b[n], b[n+1] = '0', '.'
		putDigits(b[n+2:], m)
	}
	return b
}

// decimalLen returns the number of decimal digits of m (1 for 0).
func decimalLen(m uint64) int {
	m |= 1                          // same digit count: 10^k - 1 is odd
	t := bits.Len64(m) * 1233 >> 12 // ≈ floor(log10(2^Len64))
	if m < pow10[t] {
		return t
	}
	return t + 1
}

const digitPairs = "00010203040506070809" +
	"10111213141516171819" +
	"20212223242526272829" +
	"30313233343536373839" +
	"40414243444546474849" +
	"50515253545556575859" +
	"60616263646566676869" +
	"70717273747576777879" +
	"80818283848586878889" +
	"90919293949596979899"

// putDigits writes v right-aligned into dst, zero-padded to len(dst);
// v must have at most len(dst) digits.
func putDigits(dst []byte, v uint64) {
	i := len(dst)
	for ; i >= 2; i -= 2 {
		q := v / 100
		r := v - q*100
		dst[i-1] = digitPairs[2*r+1]
		dst[i-2] = digitPairs[2*r]
		v = q
	}
	if i == 1 {
		dst[0] = byte('0' + v)
	}
}

// AppendInt appends v in base 10.
func AppendInt(b []byte, v int64) []byte { return strconv.AppendInt(b, v, 10) }

// AppendBool appends true or false.
func AppendBool(b []byte, v bool) []byte {
	if v {
		return append(b, "true"...)
	}
	return append(b, "false"...)
}

// Buffer is a pooled byte buffer. Use B with the append-style encoders
// and store the grown slice back before Put, so capacity survives the
// round trip through the pool.
type Buffer struct {
	B []byte
}

// maxPooledBuffer caps the capacity a buffer may carry back into the
// pool; one pathological response must not pin megabytes forever.
const maxPooledBuffer = 1 << 20

var bufPool = sync.Pool{New: func() any { return &Buffer{B: make([]byte, 0, 4096)} }}

// GetBuffer checks a buffer out of the pool with length reset to zero.
func GetBuffer() *Buffer {
	buf := bufPool.Get().(*Buffer)
	buf.B = buf.B[:0]
	return buf
}

// PutBuffer returns a buffer to the pool. Oversized buffers are dropped
// instead of pooled.
func PutBuffer(buf *Buffer) {
	if cap(buf.B) > maxPooledBuffer {
		return
	}
	bufPool.Put(buf)
}
