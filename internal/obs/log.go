package obs

import (
	"fmt"
	"sync"
)

// Level filters logger output: Quiet drops everything, Info passes
// progress lines, Debug adds per-evaluation detail.
type Level int

const (
	Quiet Level = iota
	Info
	Debug
)

// String returns the level's flag-style name.
func (l Level) String() string {
	switch l {
	case Quiet:
		return "quiet"
	case Info:
		return "info"
	case Debug:
		return "debug"
	default:
		return "unknown"
	}
}

// ParseLevel is the inverse of String: it maps a flag-style name back
// to its Level.
func ParseLevel(s string) (Level, error) {
	for l := Quiet; l <= Debug; l++ {
		if l.String() == s {
			return l, nil
		}
	}
	return 0, fmt.Errorf("unknown log level %q (want quiet, info, or debug)", s)
}

// Logger is a minimal leveled logger writing printf-style lines to a sink.
// Sink calls are serialised under a mutex, so sinks may touch unguarded
// state (progress callbacks historically appended to plain slices). A nil
// logger, and a logger with a nil sink, discard everything.
type Logger struct {
	mu    sync.Mutex
	level Level
	sink  func(format string, args ...interface{})
}

// NewLogger returns a logger emitting records at or below level to sink.
func NewLogger(level Level, sink func(format string, args ...interface{})) *Logger {
	return &Logger{level: level, sink: sink}
}

func (l *Logger) logf(level Level, format string, args []interface{}) {
	if l == nil || l.sink == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if level > l.level {
		return
	}
	l.sink(format, args...)
}

// Infof emits a progress-level record.
func (l *Logger) Infof(format string, args ...interface{}) { l.logf(Info, format, args) }

// Debugf emits a debug-level record.
func (l *Logger) Debugf(format string, args ...interface{}) { l.logf(Debug, format, args) }
