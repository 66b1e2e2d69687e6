package api

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync"

	"seqstore/internal/ingest"
	"seqstore/internal/seqerr"
	"seqstore/internal/trace"
)

// ErrorDetail is the unified /v1 error body. Code is a stable,
// machine-matchable slug (the wire form of the seqerr taxonomy); Message is
// the human-readable context; RequestID ties the failure to its trace.
// Shards names the failing store nodes when a scattered request failed
// partially.
type ErrorDetail struct {
	Code      string       `json:"code"`
	Message   string       `json:"message"`
	RequestID string       `json:"request_id,omitempty"`
	Shards    []ShardError `json:"shards,omitempty"`
}

// ShardError is one store node's failure inside a scattered request.
type ShardError struct {
	Shard   int    `json:"shard"`
	Addr    string `json:"addr"`
	Message string `json:"message"`
}

// ErrorEnvelope wraps every /v1 error: {"error": {"code", "message",
// "request_id"}}. One envelope, one mapping helper, every handler — the
// flat {"error": "msg"} bodies this replaces had one copy per handler
// family.
type ErrorEnvelope struct {
	Error ErrorDetail `json:"error"`
}

// StatusClientClosedRequest is the nginx-convention status for a request
// abandoned by the client (context.Canceled); no standard code exists.
const StatusClientClosedRequest = 499

// Stable error codes. These are wire contract: clients match on them, so
// renaming one is a breaking change.
const (
	CodeBadRequest       = "bad_request"
	CodeOutOfRange       = "out_of_range"
	CodeEmptySelection   = "empty_selection"
	CodeNotWritable      = "not_writable"
	CodeCorrupt          = "corrupt"
	CodeBadVersion       = "bad_version"
	CodeClientClosed     = "client_closed"
	CodeTimeout          = "timeout"
	CodeUnavailable      = "unavailable"
	CodeMethodNotAllowed = "method_not_allowed"
	CodeInternal         = "internal"
)

// errTable is the single error-class → (HTTP status, code) table, driven by
// the shared seqerr taxonomy instead of string matching. First match wins.
var errTable = []struct {
	class  error
	status int
	code   string
}{
	{seqerr.ErrOutOfRange, http.StatusBadRequest, CodeOutOfRange},
	{seqerr.ErrEmptySelection, http.StatusBadRequest, CodeEmptySelection},
	{ingest.ErrNotFinite, http.StatusBadRequest, CodeBadRequest},
	{ingest.ErrNotWritable, http.StatusForbidden, CodeNotWritable},
	{seqerr.ErrUnavailable, http.StatusServiceUnavailable, CodeUnavailable},
	{seqerr.ErrCorrupt, http.StatusServiceUnavailable, CodeCorrupt},
	{seqerr.ErrBadVersion, http.StatusInternalServerError, CodeBadVersion},
	{context.Canceled, StatusClientClosedRequest, CodeClientClosed},
	{context.DeadlineExceeded, http.StatusGatewayTimeout, CodeTimeout},
}

// Error is a failure whose wire form is already decided: a parse or
// validation refusal (Invalid), a capability this backend does not have,
// or a shard-visible failure from the proxy — which carries the failing
// shards and, when every shard answered with the same kind of verdict, the
// first shard's status and code verbatim.
type Error struct {
	Status  int
	Code    string
	Message string
	Shards  []ShardError
}

func (e *Error) Error() string { return e.Message }

// Invalid is a 400 bad_request for input that never produced a
// classifiable error value.
func Invalid(format string, args ...interface{}) *Error {
	return &Error{Status: http.StatusBadRequest, Code: CodeBadRequest, Message: fmt.Sprintf(format, args...)}
}

// Classify maps an error to its HTTP status and stable code: an *Error
// names its own, everything else goes through the taxonomy table.
// Unrecognized errors — a failing disk read, an encoding bug — are internal
// failures (500).
func Classify(err error) (status int, code string) {
	var e *Error
	if errors.As(err, &e) {
		return e.Status, e.Code
	}
	for _, e := range errTable {
		if errors.Is(err, e.class) {
			return e.status, e.code
		}
	}
	return http.StatusInternalServerError, CodeInternal
}

// WriteError classifies err and writes the error envelope, stamping the
// request ID from the request's trace context and the shard detail of an
// *Error.
func WriteError(w http.ResponseWriter, r *http.Request, err error) {
	status, code := Classify(err)
	detail := ErrorDetail{
		Code:      code,
		Message:   err.Error(),
		RequestID: trace.FromContext(r.Context()).ID(),
	}
	var e *Error
	if errors.As(err, &e) {
		detail.Shards = e.Shards
	}
	WriteErrorDetail(w, status, detail)
}

// WriteErrorDetail writes a fully specified error envelope.
func WriteErrorDetail(w http.ResponseWriter, status int, detail ErrorDetail) {
	WriteJSON(w, status, ErrorEnvelope{Error: detail})
}

// bodyBufs recycles response buffers. One grown past maxPooledBody is left
// to the collector, so a rare large body does not stay pinned in the pool.
var bodyBufs = sync.Pool{New: func() any { return new([]byte) }}

const maxPooledBody = 64 << 10

// jsonContentType is assigned, not Set: the key is canonical, and the one
// shared value has no spare capacity an Add could write into.
var jsonContentType = []string{"application/json"}

// WriteJSON encodes body to a buffer first and only then commits the
// status line, so an encoding failure yields a clean 500 instead of a
// truncated 200. Every /v1 response — success or error, server or proxy —
// goes through here or through the success path's writeBody, which is
// also what lets cost headers be computed in a just-before-commit hook. A
// body is written once: a store node's row buffers go back to their pool
// as they are rendered.
func WriteJSON(w http.ResponseWriter, status int, body interface{}) {
	writeBody(w, status, body, false)
}

// writeBody is WriteJSON, except that with frame set a body that has a
// frame (frame.go) is written as one.
func writeBody(w http.ResponseWriter, status int, body interface{}, frame bool) {
	buf := bodyBufs.Get().(*[]byte)
	b, framed, err := (*buf)[:0], false, error(nil)
	if frame {
		b, framed, err = appendFrame(b, body)
	}
	if !framed {
		if b, err = appendBody(b, body); err == nil {
			b = append(b, '\n')
		}
	}
	if err != nil {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusInternalServerError)
		fmt.Fprintln(w, `{"error":{"code":"internal","message":"response encoding failed"}}`)
	} else {
		ctype := jsonContentType
		if framed {
			ctype = frameContentType
		}
		w.Header()["Content-Type"] = ctype
		w.WriteHeader(status)
		w.Write(b)
	}
	if cap(b) <= maxPooledBody {
		*buf = b
		bodyBufs.Put(buf)
	}
}
