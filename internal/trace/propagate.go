package trace

import (
	"strconv"
	"strings"
)

// Cross-process propagation: a W3C-traceparent-style context carried on the
// proxy→shard hop, plus a bounded span-summary response header flowing back,
// so the proxy's /v1/debug/traces ring can show one scatter/gather tree per
// request — shard eval timing, hedge outcomes and per-shard ledger splits
// joined under a single trace id.
const (
	// HeaderTraceparent carries the caller's trace context downstream:
	// "00-<32 hex trace id>-<16 hex parent span id>-<2 hex flags>". The
	// version and flags fields follow the W3C Trace Context layout; only
	// version 00 is ever emitted or accepted.
	HeaderTraceparent = "traceparent"

	// HeaderSpans is the upstream summary: the shard's completed spans in
	// the compact EncodeSpanHeader form, size-bounded so response headers
	// stay small no matter how busy the request was.
	HeaderSpans = "X-Trace-Spans"
)

// SpanContext identifies a position in a distributed trace: which trace the
// request belongs to and which span is its parent.
type SpanContext struct {
	TraceID string // 32 lowercase hex characters
	SpanID  string // 16 lowercase hex characters
}

// Valid reports whether both fields have the exact W3C shape and are not
// all-zero.
func (sc SpanContext) Valid() bool {
	return isLowerHex(sc.TraceID, 32) && isLowerHex(sc.SpanID, 16) &&
		!allZero(sc.TraceID) && !allZero(sc.SpanID)
}

// Traceparent renders the header value for sc ("" when sc is invalid).
func Traceparent(sc SpanContext) string {
	if !sc.Valid() {
		return ""
	}
	return "00-" + sc.TraceID + "-" + sc.SpanID + "-01"
}

// ParseTraceparent parses a traceparent header value. It is strict — exactly
// four dash-separated fields, version 00, lowercase hex of the right widths,
// non-zero ids — and total: malformed input returns ok=false and the caller
// mints a fresh root trace. A hostile header can therefore never fail a
// request or smuggle bytes into logs; the id charset is a subset of the
// request-id charset, safe to echo anywhere.
func ParseTraceparent(s string) (sc SpanContext, ok bool) {
	// 2 + 1 + 32 + 1 + 16 + 1 + 2 = 55 bytes exactly; anything longer is
	// either a future version (which we don't speak) or garbage.
	if len(s) != 55 {
		return SpanContext{}, false
	}
	parts := strings.Split(s, "-")
	if len(parts) != 4 || parts[0] != "00" || !isLowerHex(parts[3], 2) {
		return SpanContext{}, false
	}
	sc = SpanContext{TraceID: parts[1], SpanID: parts[2]}
	if !sc.Valid() {
		return SpanContext{}, false
	}
	return sc, true
}

func isLowerHex(s string, n int) bool {
	if len(s) != n {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

func allZero(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] != '0' {
			return false
		}
	}
	return true
}

// --- Span-summary header codec ---------------------------------------------

// Bounds on the X-Trace-Spans wire form (DESIGN §17: span headers are
// bounded in size). Encoding stops at the first span that would exceed
// either limit; parsing rejects oversized values outright.
const (
	maxSpanHeaderEntries = 16
	maxSpanHeaderLen     = 1024
)

// spanNameOK reports whether a span name is safe for the compact wire form:
// the request-id charset plus '/' (endpoint patterns), no separators.
func spanNameOK(s string) bool {
	if len(s) == 0 || len(s) > MaxRequestIDLen {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '_', c == '-', c == '/':
		default:
			return false
		}
	}
	return true
}

// EncodeSpanHeader renders completed spans as "name:startUs:durUs" entries
// joined by commas — timing only, no attributes, so the value stays compact
// and attribute payloads can never leak across the hop. Spans with unsafe
// names are skipped; output is truncated (never split mid-entry) at
// maxSpanHeaderEntries entries or maxSpanHeaderLen bytes.
func EncodeSpanHeader(spans []SpanSnapshot) string {
	var b strings.Builder
	n := 0
	for _, sp := range spans {
		if n >= maxSpanHeaderEntries {
			break
		}
		if !spanNameOK(sp.Name) || sp.StartOffsetUs < 0 || sp.DurationUs < 0 {
			continue
		}
		entry := sp.Name + ":" + strconv.FormatInt(sp.StartOffsetUs, 10) +
			":" + strconv.FormatInt(sp.DurationUs, 10)
		extra := len(entry)
		if n > 0 {
			extra++ // the joining comma
		}
		if b.Len()+extra > maxSpanHeaderLen {
			break
		}
		if n > 0 {
			b.WriteByte(',')
		}
		b.WriteString(entry)
		n++
	}
	return b.String()
}

// ParseSpanHeader decodes an X-Trace-Spans value. Like the traceparent
// parser it is total: an oversized value yields nil, malformed entries are
// skipped, and every surviving name re-passes the charset check — a hostile
// shard cannot inject bytes into the proxy's trace ring.
func ParseSpanHeader(s string) []SpanSnapshot {
	if s == "" || len(s) > maxSpanHeaderLen {
		return nil
	}
	var out []SpanSnapshot
	for _, entry := range strings.Split(s, ",") {
		if len(out) >= maxSpanHeaderEntries {
			break
		}
		fields := strings.Split(entry, ":")
		if len(fields) != 3 || !spanNameOK(fields[0]) {
			continue
		}
		start, err1 := strconv.ParseInt(fields[1], 10, 64)
		dur, err2 := strconv.ParseInt(fields[2], 10, 64)
		if err1 != nil || err2 != nil || start < 0 || dur < 0 {
			continue
		}
		out = append(out, SpanSnapshot{Name: fields[0], StartOffsetUs: start, DurationUs: dur})
	}
	return out
}
