// Package obs is the observability substrate for the simulate→analyse
// pipeline: a nestable-span Tracer, a Registry of counters / gauges /
// histograms, text / JSON / Prometheus exporters, and thin runtime/pprof
// helpers for the CLIs.
//
// Everything is dependency-free (standard library only) and nil-safe: every
// method on *Tracer, *Span, *Registry, *Counter, *Gauge, and *Histogram is a
// no-op on a nil receiver, so instrumented code paths cost nothing beyond a
// nil check when observability is disabled. That zero-cost-when-disabled
// contract is what lets the hooks stay permanently threaded through
// market.Generate and analysis.RunSuiteCtx (see DESIGN.md).
package obs

import (
	"runtime"
	"sync"
	"time"
)

// Attr is one key/value annotation on a span.
type Attr struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// Span is one timed region of the pipeline. Spans nest: children are the
// regions opened (and closed) while this span was the innermost open one.
// Allocation figures are runtime.ReadMemStats deltas between Start and End,
// so a parent's numbers include its children's.
type Span struct {
	Name       string
	Start      time.Time
	Stop       time.Time
	AllocBytes int64 // MemStats.TotalAlloc delta over the span
	Mallocs    int64 // MemStats.Mallocs delta over the span
	Attrs      []Attr
	Children   []*Span

	parent      *Span
	tracer      *Tracer
	startAlloc  uint64
	startMalloc uint64
}

// Wall is the span's wall-clock duration (zero until ended).
func (s *Span) Wall() time.Duration {
	if s == nil || s.Stop.IsZero() {
		return 0
	}
	return s.Stop.Sub(s.Start)
}

// SetAttr attaches (or overwrites) a key/value annotation.
func (s *Span) SetAttr(key, value string) {
	if s == nil {
		return
	}
	s.tracer.lock()
	defer s.tracer.unlock()
	for i := range s.Attrs {
		if s.Attrs[i].Key == key {
			s.Attrs[i].Value = value
			return
		}
	}
	s.Attrs = append(s.Attrs, Attr{Key: key, Value: value})
}

// SetInt attaches an integer annotation.
func (s *Span) SetInt(key string, v int) { s.SetAttr(key, itoa(v)) }

// End ends the span. Spans are normally ended innermost-first; ending a
// span that is not the tracer's current one also ends every still-open span
// nested inside it, so a forgotten child cannot corrupt the stack.
func (s *Span) End() { s.endAt(time.Now()) }

func (s *Span) endAt(now time.Time) {
	if s == nil || s.tracer == nil {
		return
	}
	t := s.tracer
	t.mu.Lock()
	defer t.mu.Unlock()
	if !s.Stop.IsZero() {
		return // already ended
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	// Spans opened with StartChild live off the cursor stack; ending one
	// must not pop (or close) unrelated open spans.
	onStack := false
	for cur := t.cur; cur != nil; cur = cur.parent {
		if cur == s {
			onStack = true
			break
		}
	}
	if !onStack {
		s.closeTree(now, &m)
		return
	}
	// Close any still-open descendants first.
	for cur := t.cur; cur != nil && cur != s; cur = cur.parent {
		cur.close(now, &m)
	}
	s.close(now, &m)
	t.cur = s.parent
}

// closeTree closes the span and every still-open span in its subtree;
// caller holds the tracer lock.
func (s *Span) closeTree(now time.Time, m *runtime.MemStats) {
	for _, c := range s.Children {
		c.closeTree(now, m)
	}
	s.close(now, m)
}

// close finalises the span's fields; caller holds the tracer lock.
func (s *Span) close(now time.Time, m *runtime.MemStats) {
	if !s.Stop.IsZero() {
		return
	}
	s.Stop = now
	s.AllocBytes = int64(m.TotalAlloc - s.startAlloc)
	s.Mallocs = int64(m.Mallocs - s.startMalloc)
}

// Tracer records a tree of nested spans. A single Tracer is intended for
// the (sequential) pipeline; its methods are nonetheless mutex-guarded so
// stray concurrent attribute writes are safe.
type Tracer struct {
	mu   sync.Mutex
	root *Span
	cur  *Span
}

// NewTracer starts a tracer whose root span carries the given name (use the
// binary or run name). The root span is open until Finish.
func NewTracer(name string) *Tracer {
	t := &Tracer{}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	t.root = &Span{
		Name:        name,
		Start:       time.Now(),
		tracer:      t,
		startAlloc:  m.TotalAlloc,
		startMalloc: m.Mallocs,
	}
	t.cur = t.root
	return t
}

// Start opens a child span under the innermost open span and returns it.
// On a nil tracer it returns nil, on which every Span method is a no-op.
func (t *Tracer) Start(name string) *Span {
	if t == nil {
		return nil
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	t.mu.Lock()
	defer t.mu.Unlock()
	parent := t.cur
	if parent == nil || !parent.Stop.IsZero() {
		parent = t.root
	}
	s := &Span{
		Name:        name,
		Start:       time.Now(),
		parent:      parent,
		tracer:      t,
		startAlloc:  m.TotalAlloc,
		startMalloc: m.Mallocs,
	}
	parent.Children = append(parent.Children, s)
	t.cur = s
	return s
}

// StartChild opens a child span directly under s without moving the
// tracer's innermost-open cursor. It is the concurrency-safe span
// constructor: parallel workers each open their stage span under a shared
// parent, so sibling spans never nest inside one another the way
// cursor-based Start would make them. The child is ended with End.
func (s *Span) StartChild(name string) *Span {
	if s == nil || s.tracer == nil {
		return nil
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	t := s.tracer
	t.mu.Lock()
	defer t.mu.Unlock()
	c := &Span{
		Name:        name,
		Start:       time.Now(),
		parent:      s,
		tracer:      t,
		startAlloc:  m.TotalAlloc,
		startMalloc: m.Mallocs,
	}
	s.Children = append(s.Children, c)
	return c
}

// Root returns the root span (nil on a nil tracer).
func (t *Tracer) Root() *Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.root
}

// Finish ends every still-open span (root included) and returns the root.
func (t *Tracer) Finish() *Span {
	if t == nil {
		return nil
	}
	t.root.endAt(time.Now())
	return t.root
}

func (t *Tracer) lock() {
	if t != nil {
		t.mu.Lock()
	}
}

func (t *Tracer) unlock() {
	if t != nil {
		t.mu.Unlock()
	}
}

// itoa is strconv.Itoa without the import weight in hot paths.
func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	neg := v < 0
	if neg {
		v = -v
	}
	var buf [24]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	if neg {
		i--
		buf[i] = '-'
	}
	return string(buf[i:])
}
