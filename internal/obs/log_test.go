package obs

import (
	"context"
	"encoding/json"
	"log/slog"
	"strings"
	"sync"
	"testing"
	"time"
)

// recordAt is a non-UTC record time: the UTC rewrite must show in the line.
var recordAt = time.Date(2020, 3, 11, 15, 0, 0, 123456789, time.FixedZone("UTC+3", 3*3600))

// handleAt writes one "request" record stamped recordAt through l's handler,
// so the line is reproducible byte for byte.
func handleAt(t *testing.T, l *slog.Logger, attrs ...slog.Attr) {
	t.Helper()
	r := slog.NewRecord(recordAt, slog.LevelInfo, "request", 0)
	r.AddAttrs(attrs...)
	if err := l.Handler().Handle(context.Background(), r); err != nil {
		t.Fatal(err)
	}
}

func mustLogger(t *testing.T, w *syncBuffer, format string) *slog.Logger {
	t.Helper()
	l, err := NewLogger(w, format)
	if err != nil || l == nil {
		t.Fatalf("NewLogger(%q) = %v, %v", format, l, err)
	}
	return l
}

// TestTextLoggerLine pins the exact text line: UTC time and event lead, no
// level, fields in call order, values with spaces quoted.
func TestTextLoggerLine(t *testing.T) {
	var b syncBuffer
	handleAt(t, mustLogger(t, &b, "text"),
		slog.String("method", "GET"),
		slog.String("route", "report/{section}"),
		slog.Int("status", 200),
		slog.Duration("dur", 12500*time.Microsecond),
		slog.String("note", "two words"),
	)
	want := `time=2020-03-11T12:00:00.123Z event=request method=GET route=report/{section} status=200 dur=12.5ms note="two words"` + "\n"
	if got := b.String(); got != want {
		t.Errorf("text line:\n got %q\nwant %q", got, want)
	}
}

// TestJSONLoggerShape parses the emitted line back and checks every field
// arrives with its type intact — the access-log JSON contract.
func TestJSONLoggerShape(t *testing.T) {
	var b syncBuffer
	handleAt(t, mustLogger(t, &b, "json"),
		slog.String("id", "abc-000001"),
		slog.Int("status", 200),
		slog.Int64("bytes", 512),
		slog.Float64("dur_ms", 1.5),
	)
	line := b.String()
	if !strings.HasSuffix(line, "\n") {
		t.Fatalf("line not newline-terminated: %q", line)
	}
	var m map[string]any
	if err := json.Unmarshal([]byte(line), &m); err != nil {
		t.Fatalf("line is not valid JSON: %v\n%s", err, line)
	}
	want := map[string]any{
		"time":   "2020-03-11T12:00:00.123456789Z",
		"event":  "request",
		"id":     "abc-000001",
		"status": 200.0,
		"bytes":  512.0,
		"dur_ms": 1.5,
	}
	if len(m) != len(want) {
		t.Errorf("fields = %v, want exactly %v", m, want)
	}
	for k, w := range want {
		if m[k] != w {
			t.Errorf("field %q = %#v, want %#v", k, m[k], w)
		}
	}
	// Field order is stable: time and event lead.
	if !strings.HasPrefix(line, `{"time":"2020-03-11T12:00:00.123456789Z","event":"request"`) {
		t.Errorf("line does not lead with time/event: %s", line)
	}
}

// TestNewLoggerFormats pins the -log-format selection: "text" and "json"
// give loggers of those shapes, "none" and "" a nil logger, and unknown
// formats an error.
func TestNewLoggerFormats(t *testing.T) {
	for format, prefix := range map[string]string{"text": "time=", "json": `{"time":`} {
		var b syncBuffer
		mustLogger(t, &b, format).Info("e")
		if got := b.String(); !strings.HasPrefix(got, prefix) {
			t.Errorf("%s line = %q, want prefix %q", format, got, prefix)
		}
	}
	for _, format := range []string{"none", ""} {
		var b syncBuffer
		if l, err := NewLogger(&b, format); err != nil || l != nil {
			t.Errorf("NewLogger(%q) = %v, %v; want nil, nil", format, l, err)
		}
	}
	if _, err := NewLogger(&syncBuffer{}, "xml"); err == nil {
		t.Error("unknown format accepted")
	}
}

// TestLoggerNilAndConcurrent: "none" yields a nil logger, which call sites
// skip, and concurrent Info calls never interleave within a line in either
// format (run under -race).
func TestLoggerNilAndConcurrent(t *testing.T) {
	if l, err := NewLogger(&syncBuffer{}, "none"); err != nil || l != nil {
		t.Fatalf(`NewLogger("none") = %v, %v; want nil, nil`, l, err)
	}
	for _, format := range []string{"text", "json"} {
		var b syncBuffer
		l := mustLogger(t, &b, format)
		var wg sync.WaitGroup
		for w := 0; w < 8; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < 100; i++ {
					l.Info("e", "worker", w, "i", i)
				}
			}(w)
		}
		wg.Wait()
		lines := strings.Split(strings.TrimSuffix(b.String(), "\n"), "\n")
		if len(lines) != 800 {
			t.Fatalf("%s: lines = %d, want 800", format, len(lines))
		}
		for _, line := range lines {
			whole := strings.HasPrefix(line, "time=") && strings.Contains(line, " event=e worker=") && !strings.Contains(line, "level")
			if format == "json" {
				var m map[string]any
				whole = json.Unmarshal([]byte(line), &m) == nil && m["event"] == "e" && len(m) == 4
			}
			if !whole {
				t.Fatalf("%s: broken line %q", format, line)
			}
		}
	}
}

// syncBuffer is a mutex-guarded Builder: the handler serialises writers,
// but the test's reads still need their own synchronisation.
type syncBuffer struct {
	mu sync.Mutex
	b  strings.Builder
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}
