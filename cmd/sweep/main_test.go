package main

import (
	"bytes"
	"testing"
)

// TestLoggerDeterministic pins the status-line format: level, msg and
// attributes with no time key, groups prefixing their keys, and records
// below Info dropped, so identical record sequences log identical bytes.
func TestLoggerDeterministic(t *testing.T) {
	logAll := func() string {
		var buf bytes.Buffer
		log := newLogger(&buf)
		log.Info("run complete", "run", 3, "seed", int64(42))
		log.Warn("run failed", "err", "event limit 10 exceeded")
		log.Debug("dropped", "below", "level") // below default Info level
		log.WithGroup("sweep").With("n", 128).Info("progress", "done", 1)
		return buf.String()
	}
	want := "level=INFO msg=\"run complete\" run=3 seed=42\n" +
		"level=WARN msg=\"run failed\" err=\"event limit 10 exceeded\"\n" +
		"level=INFO msg=progress sweep.n=128 sweep.done=1\n"
	got := logAll()
	if got != want {
		t.Errorf("log output:\n%q\nwant:\n%q", got, want)
	}
	if again := logAll(); again != got {
		t.Error("identical log sequences produced different bytes")
	}
}
