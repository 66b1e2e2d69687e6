package svd

import (
	"log/slog"
	"sync/atomic"
	"time"
)

// progressLogger receives pass-level progress events from the out-of-core
// compression pipeline. Unset (the default) means silence: compression is
// library code and must not spam a caller that didn't opt in. cmd/seqcompress
// wires its structured logger in via SetProgressLogger.
var progressLogger atomic.Pointer[slog.Logger]

// SetProgressLogger installs the logger that receives compression pass
// progress (pass start/finish with rows, workers and duration). Pass nil to
// silence progress again. Safe for concurrent use.
func SetProgressLogger(l *slog.Logger) {
	if l == nil {
		progressLogger.Store(nil)
		return
	}
	progressLogger.Store(l)
}

// progress returns the installed logger, or nil when progress is off.
func progress() *slog.Logger { return progressLogger.Load() }

// logPass wraps one pass: it logs the start, runs fn, and logs completion
// with the elapsed time (or the error). With no logger installed it just
// runs fn.
func logPass(name string, attrs []slog.Attr, fn func() error) error {
	l := progress()
	if l == nil {
		return fn()
	}
	args := make([]any, 0, 2*len(attrs))
	for _, a := range attrs {
		args = append(args, a.Key, a.Value.Any())
	}
	l.Info(name+" start", args...)
	begin := time.Now()
	err := fn()
	elapsed := time.Since(begin)
	if err != nil {
		l.Error(name+" failed", append(args, "elapsed", elapsed.String(), "err", err.Error())...)
	} else {
		l.Info(name+" done", append(args, "elapsed", elapsed.String())...)
	}
	return err
}
