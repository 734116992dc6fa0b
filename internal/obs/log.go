package obs

import (
	"fmt"
	"io"
	"log/slog"
)

// NewLogger builds the structured logger behind the -log-format flag:
// logfmt-style key=value lines for "text", one JSON object per line for
// "json". Every line leads with a UTC time and the event name (slog's
// message, renamed "event"), then the attributes in call order; slog's
// level key is dropped, since every line is Info. "none" and "" return a
// nil logger, and callers skip logging when theirs is nil.
func NewLogger(w io.Writer, format string) (*slog.Logger, error) {
	opts := &slog.HandlerOptions{ReplaceAttr: eventAttrs}
	switch format {
	case "text":
		return slog.New(slog.NewTextHandler(w, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(w, opts)), nil
	case "none", "":
		return nil, nil
	}
	return nil, fmt.Errorf("obs: unknown log format %q (want text, json, or none)", format)
}

// eventAttrs rewrites slog's built-in keys into the line shape above.
func eventAttrs(groups []string, a slog.Attr) slog.Attr {
	if len(groups) > 0 {
		return a
	}
	switch a.Key {
	case slog.LevelKey:
		return slog.Attr{}
	case slog.MessageKey:
		a.Key = "event"
	case slog.TimeKey:
		if a.Value.Kind() == slog.KindTime {
			a.Value = slog.TimeValue(a.Value.Time().UTC())
		}
	}
	return a
}
