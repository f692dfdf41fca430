package obs

import (
	"encoding/binary"
	"fmt"
	"math/rand/v2"
	"net/http"
)

// Process-spanning trace context: a 128-bit TraceID shared by every span
// of one logical operation regardless of which process recorded it, and a
// W3C-traceparent-style HTTP carrier (Inject/Extract) so the context
// survives coordinator↔worker hops. Trace ids come from the runtime's
// own random state (math/rand/v2), never from internal/rng trial streams,
// so tracing cannot perturb trial randomness — the determinism contract.

// TraceID is a 128-bit trace identifier. The zero value means "no trace".
type TraceID [16]byte

// IsZero reports whether t is the absent trace id.
func (t TraceID) IsZero() bool { return t == TraceID{} }

// String renders the id as 32 lowercase hex digits.
func (t TraceID) String() string {
	var buf [32]byte
	hexEncode(buf[:], t[:])
	return string(buf[:])
}

// ParseTraceID parses 32 lowercase hex digits.
func ParseTraceID(s string) (TraceID, error) {
	var t TraceID
	if len(s) != 32 {
		return t, fmt.Errorf("obs: trace id %q is not 32 hex digits", s)
	}
	if !hexDecode(t[:], s) {
		return TraceID{}, fmt.Errorf("obs: trace id %q is not lowercase hex", s)
	}
	return t, nil
}

// NewTraceID returns a fresh non-zero random trace id.
func NewTraceID() TraceID {
	var t TraceID
	for t.IsZero() {
		binary.BigEndian.PutUint64(t[:8], rand.Uint64())
		binary.BigEndian.PutUint64(t[8:], rand.Uint64())
	}
	return t
}

// SpanContext is the propagated slice of a span: its trace and its own
// span id, i.e. what a child in another process needs to parent itself.
type SpanContext struct {
	Trace TraceID
	Span  uint64
}

// Valid reports whether the context identifies a real span.
func (sc SpanContext) Valid() bool { return !sc.Trace.IsZero() && sc.Span != 0 }

// TraceparentHeader is the HTTP header Inject writes and Extract reads,
// in canonical form.
const TraceparentHeader = "Traceparent"

// TraceparentLen is the length of a version-00 traceparent value:
// "00-" + 32 hex trace + "-" + 16 hex span + "-" + 2 hex flags.
const TraceparentLen = 55

// AppendTraceparent appends the version-00 traceparent rendering of sc to
// dst and returns the extended slice. With a preallocated buffer the call
// does not allocate — the Inject/Extract hot-path primitive the
// BenchmarkObsInjectExtract gate pins at 0 allocs/op.
func (sc SpanContext) AppendTraceparent(dst []byte) []byte {
	var buf [TraceparentLen]byte
	buf[0], buf[1], buf[2] = '0', '0', '-'
	hexEncode(buf[3:35], sc.Trace[:])
	buf[35] = '-'
	var span [8]byte
	binary.BigEndian.PutUint64(span[:], sc.Span)
	hexEncode(buf[36:52], span[:])
	buf[52], buf[53], buf[54] = '-', '0', '1'
	return append(dst, buf[:]...)
}

// Traceparent renders sc as a version-00 traceparent value.
func (sc SpanContext) Traceparent() string {
	return string(sc.AppendTraceparent(nil))
}

// ParseTraceparent parses a traceparent header value. It accepts
// version-00 values exactly and higher hex versions with trailing
// version-specific data (taking the leading 55 bytes, per the W3C
// recommendation); it rejects version ff, uppercase hex, a zero trace id
// and a zero span id. The second return is false on any rejection.
func ParseTraceparent(s string) (SpanContext, bool) { return parseTraceparent(s) }

// ParseTraceparentBytes is ParseTraceparent over a byte slice, without
// converting to a string (0 allocs); BenchmarkObsInjectExtract measures
// the parse through it.
func ParseTraceparentBytes(s []byte) (SpanContext, bool) { return parseTraceparent(s) }

func parseTraceparent[S ~string | ~[]byte](s S) (SpanContext, bool) {
	var sc SpanContext
	if len(s) < TraceparentLen {
		return sc, false
	}
	if s[2] != '-' || s[35] != '-' || s[52] != '-' {
		return sc, false
	}
	verHi, ok1 := hexNibble(s[0])
	verLo, ok2 := hexNibble(s[1])
	if !ok1 || !ok2 {
		return sc, false
	}
	version := verHi<<4 | verLo
	if version == 0xff {
		return sc, false
	}
	if len(s) > TraceparentLen {
		// Only future versions may carry extra data, and it must be
		// '-'-separated from the flags field.
		if version == 0 || s[TraceparentLen] != '-' {
			return sc, false
		}
	}
	for i := 0; i < 16; i++ {
		hi, ok1 := hexNibble(s[3+2*i])
		lo, ok2 := hexNibble(s[3+2*i+1])
		if !ok1 || !ok2 {
			return SpanContext{}, false
		}
		sc.Trace[i] = hi<<4 | lo
	}
	for i := 0; i < 16; i++ {
		n, ok := hexNibble(s[36+i])
		if !ok {
			return SpanContext{}, false
		}
		sc.Span = sc.Span<<4 | uint64(n)
	}
	if _, ok := hexNibble(s[53]); !ok {
		return SpanContext{}, false
	}
	if _, ok := hexNibble(s[54]); !ok {
		return SpanContext{}, false
	}
	if !sc.Valid() {
		return SpanContext{}, false
	}
	return sc, true
}

// Inject writes sc into h as a traceparent header. Invalid contexts write
// nothing, so callers can inject unconditionally.
func Inject(sc SpanContext, h http.Header) {
	if !sc.Valid() {
		return
	}
	h.Set(TraceparentHeader, sc.Traceparent())
}

// Extract reads the traceparent header from h; ok is false when the
// header is absent or malformed.
func Extract(h http.Header) (SpanContext, bool) {
	v := h.Get(TraceparentHeader)
	if v == "" {
		return SpanContext{}, false
	}
	return ParseTraceparent(v)
}

const hexDigits = "0123456789abcdef"

// hexEncode writes src as lowercase hex into dst (len(dst) = 2*len(src)).
func hexEncode(dst, src []byte) {
	for i, b := range src {
		dst[2*i] = hexDigits[b>>4]
		dst[2*i+1] = hexDigits[b&0x0f]
	}
}

// hexNibble decodes one lowercase hex digit. Uppercase is rejected, as
// the W3C traceparent grammar demands.
func hexNibble(c byte) (byte, bool) {
	switch {
	case c >= '0' && c <= '9':
		return c - '0', true
	case c >= 'a' && c <= 'f':
		return c - 'a' + 10, true
	}
	return 0, false
}

// hexDecode decodes lowercase hex into dst (len(s) = 2*len(dst)).
func hexDecode(dst []byte, s string) bool {
	for i := range dst {
		hi, ok1 := hexNibble(s[2*i])
		lo, ok2 := hexNibble(s[2*i+1])
		if !ok1 || !ok2 {
			return false
		}
		dst[i] = hi<<4 | lo
	}
	return true
}
