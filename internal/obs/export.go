package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"time"
)

// Record is one span flattened for the JSON exporter. Path is the
// slash-joined chain of span names from the root, so a flat list of records
// preserves the tree.
type Record struct {
	Path       string            `json:"path"`
	Name       string            `json:"name"`
	Depth      int               `json:"depth"`
	Start      time.Time         `json:"start"`
	WallMS     float64           `json:"wall_ms"`
	AllocBytes int64             `json:"alloc_bytes"`
	Mallocs    int64             `json:"mallocs"`
	Attrs      map[string]string `json:"attrs,omitempty"`
}

// Flatten converts a span tree into depth-first records.
func Flatten(root *Span) []Record {
	var out []Record
	var walk func(s *Span, prefix string, depth int)
	walk = func(s *Span, prefix string, depth int) {
		if s == nil {
			return
		}
		path := s.Name
		if prefix != "" {
			path = prefix + "/" + s.Name
		}
		rec := Record{
			Path:       path,
			Name:       s.Name,
			Depth:      depth,
			Start:      s.Start,
			WallMS:     float64(s.Wall()) / float64(time.Millisecond),
			AllocBytes: s.AllocBytes,
			Mallocs:    s.Mallocs,
		}
		if len(s.Attrs) > 0 {
			rec.Attrs = make(map[string]string, len(s.Attrs))
			for _, a := range s.Attrs {
				rec.Attrs[a.Key] = a.Value
			}
		}
		out = append(out, rec)
		for _, c := range s.Children {
			walk(c, path, depth+1)
		}
	}
	walk(root, "", 0)
	return out
}

// WriteJSON writes the span tree as an indented flat JSON array of Records
// (the results/trace.json format).
func WriteJSON(w io.Writer, root *Span) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(Flatten(root))
}

// WriteText renders the span tree as an indented report: wall time,
// allocation delta, and attributes per span.
func WriteText(w io.Writer, root *Span) {
	var walk func(s *Span, depth int)
	walk = func(s *Span, depth int) {
		if s == nil {
			return
		}
		var attrs strings.Builder
		for _, a := range s.Attrs {
			fmt.Fprintf(&attrs, " %s=%s", a.Key, a.Value)
		}
		fmt.Fprintf(w, "%s%-*s %10s %12s%s\n",
			strings.Repeat("  ", depth),
			48-2*depth, s.Name,
			fmtDuration(s.Wall()),
			fmtBytes(s.AllocBytes),
			attrs.String())
		for _, c := range s.Children {
			walk(c, depth+1)
		}
	}
	walk(root, 0)
}

// fmtDuration renders a wall time compactly (µs → s scale).
func fmtDuration(d time.Duration) string {
	switch {
	case d >= time.Second:
		return fmt.Sprintf("%.2fs", d.Seconds())
	case d >= time.Millisecond:
		return fmt.Sprintf("%.1fms", float64(d)/float64(time.Millisecond))
	default:
		return fmt.Sprintf("%dµs", d.Microseconds())
	}
}

// fmtBytes renders an allocation delta compactly.
func fmtBytes(b int64) string {
	switch {
	case b >= 1<<30:
		return fmt.Sprintf("%.2fGiB", float64(b)/(1<<30))
	case b >= 1<<20:
		return fmt.Sprintf("%.1fMiB", float64(b)/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.1fKiB", float64(b)/(1<<10))
	default:
		return fmt.Sprintf("%dB", b)
	}
}

// WritePrometheus dumps the registry in the Prometheus text exposition
// format: counters and gauges as single samples, histograms in summary
// style (quantile-labelled samples plus _sum and _count). Labelled series
// (registry names like `seconds{route="r"}`) keep their labels on every
// sample — the quantile label is merged into the existing set — and share
// one # TYPE line per base name.
func WritePrometheus(w io.Writer, r *Registry) {
	typed := make(map[string]bool)
	writeType := func(name, kind string) {
		if !typed[name] {
			typed[name] = true
			fmt.Fprintf(w, "# TYPE %s %s\n", name, kind)
		}
	}
	for _, m := range r.Snapshot() {
		base, labels := promName(m.Name), promLabels(m.Name)
		switch m.Kind {
		case "counter", "gauge":
			writeType(base, m.Kind)
			fmt.Fprintf(w, "%s %s\n", m.Name, promFloat(m.Value))
		case "histogram":
			writeType(base, "summary")
			for i, q := range []string{"0.5", "0.9", "0.95", "0.99"} {
				ql := fmt.Sprintf("quantile=%q", q)
				if labels != "" {
					ql = labels + "," + ql
				}
				fmt.Fprintf(w, "%s{%s} %s\n", base, ql, promFloat(m.Quantiles[i]))
			}
			suffix := ""
			if labels != "" {
				suffix = "{" + labels + "}"
			}
			fmt.Fprintf(w, "%s_sum%s %s\n", base, suffix, promFloat(m.Value))
			fmt.Fprintf(w, "%s_count%s %d\n", base, suffix, m.Count)
		}
	}
}

// promName strips any {label} suffix to the bare metric name.
func promName(name string) string {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:i]
	}
	return name
}

// promLabels returns the label body of a `name{labels}` metric name
// (without braces), or "" when the name carries no labels.
func promLabels(name string) string {
	i := strings.IndexByte(name, '{')
	if i < 0 {
		return ""
	}
	return strings.TrimSuffix(name[i+1:], "}")
}

func promFloat(v float64) string {
	if v == float64(int64(v)) {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}
