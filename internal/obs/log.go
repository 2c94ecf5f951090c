package obs

import (
	"context"
	"io"
	"log/slog"
	"strings"
)

// Structured logging, standardized on log/slog. The server logs one line
// per HTTP request and one per job state transition, each carrying the
// job/request fields, so a grep over the log reconstructs any job's
// lifecycle without the trace endpoint.

// NewLogger builds a slog.Logger writing to w. format is "text" or "json";
// level is one of "debug", "info", "warn", "error" (case-insensitive).
// Unknown values fall back to text/info rather than failing: the logger is
// the component reporting failures, so it must always construct.
func NewLogger(w io.Writer, format, level string) *slog.Logger {
	lv := ParseLevel(level)
	opts := &slog.HandlerOptions{Level: lv}
	var h slog.Handler
	if strings.EqualFold(format, "json") {
		h = slog.NewJSONHandler(w, opts)
	} else {
		h = slog.NewTextHandler(w, opts)
	}
	return slog.New(h)
}

// ParseLevel maps a level name to a slog.Level, defaulting to Info.
func ParseLevel(level string) slog.Level {
	switch strings.ToLower(level) {
	case "debug":
		return slog.LevelDebug
	case "warn", "warning":
		return slog.LevelWarn
	case "error":
		return slog.LevelError
	default:
		return slog.LevelInfo
	}
}

// NopLogger returns a logger that discards everything — the default for
// embedded servers and tests.
func NopLogger() *slog.Logger {
	return slog.New(nopHandler{})
}

type nopHandler struct{}

func (nopHandler) Enabled(context.Context, slog.Level) bool  { return false }
func (nopHandler) Handle(context.Context, slog.Record) error { return nil }
func (h nopHandler) WithAttrs([]slog.Attr) slog.Handler      { return h }
func (h nopHandler) WithGroup(string) slog.Handler           { return h }

// JobAttrs returns the standard per-job log fields, so every component logs
// jobs identically.
func JobAttrs(jobID int, backend string) []any {
	return []any{slog.Int("job", jobID), slog.String("backend", backend)}
}
