package obs

import (
	"context"
	"sync"
	"time"
)

// Trace is one job's span tree. Host-side spans are wall-clock intervals
// measured from the trace's start; device-side spans are "modeled": their
// offsets live on the FPGA simulator's virtual timeline (the OpenCL-event
// timeline the paper profiles with), flagged so readers don't mix the two
// clock domains. A trace may be snapshotted (JSON) while spans are still
// open — the server's /api/jobs/{id}/trace serves live, partial traces.
type Trace struct {
	mu    sync.Mutex
	id    string
	start time.Time
	roots []*Span
}

// NewTrace starts an empty trace identified by id (the server uses the job
// ID).
func NewTrace(id string) *Trace {
	return &Trace{id: id, start: time.Now()}
}

// Span is one stage of a trace. All mutation goes through the owning
// trace's lock so snapshots can race with a running job safely.
type Span struct {
	trace    *Trace
	name     string
	start    time.Duration // offset from trace start (or virtual timeline)
	end      time.Duration
	ended    bool
	modeled  bool
	attrs    map[string]any
	children []*Span
}

// startSpan opens a root span. Safe on a nil trace (returns nil; all Span
// methods are nil-safe), so instrumented code needs no trace-presence
// branches.
func (t *Trace) startSpan(name string) *Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &Span{trace: t, name: name, start: time.Since(t.start)}
	t.roots = append(t.roots, s)
	return s
}

// startChild opens a sub-span under s.
func (s *Span) startChild(name string) *Span {
	if s == nil {
		return nil
	}
	t := s.trace
	t.mu.Lock()
	defer t.mu.Unlock()
	c := &Span{trace: t, name: name, start: time.Since(t.start)}
	s.children = append(s.children, c)
	return c
}

// End closes the span at the current wall clock. Ending twice keeps the
// first end.
func (s *Span) End() {
	if s == nil {
		return
	}
	t := s.trace
	t.mu.Lock()
	defer t.mu.Unlock()
	if !s.ended {
		s.end = time.Since(t.start)
		s.ended = true
	}
}

// SetAttr attaches a key/value annotation to the span.
func (s *Span) SetAttr(key string, value any) {
	if s == nil {
		return
	}
	t := s.trace
	t.mu.Lock()
	defer t.mu.Unlock()
	if s.attrs == nil {
		s.attrs = map[string]any{}
	}
	s.attrs[key] = value
}

// AddModeled attaches a closed child span on the modeled (virtual) timeline:
// start and end are offsets on the device timeline, not wall clock. The farm
// uses this to fold the fpga.Event log — tagged with device and attempt —
// into the host trace.
func (s *Span) AddModeled(name string, start, end time.Duration, attrs map[string]any) {
	if s == nil {
		return
	}
	t := s.trace
	t.mu.Lock()
	defer t.mu.Unlock()
	c := &Span{trace: t, name: name, start: start, end: end, ended: true, modeled: true}
	if len(attrs) > 0 {
		c.attrs = make(map[string]any, len(attrs))
		for k, v := range attrs {
			c.attrs[k] = v
		}
	}
	s.children = append(s.children, c)
}

// SpanJSON is the wire form of a span.
type SpanJSON struct {
	Name string `json:"name"`
	// StartMs and EndMs are offsets from the trace start (host spans) or on
	// the device's virtual timeline (modeled spans).
	StartMs float64 `json:"start_ms"`
	EndMs   float64 `json:"end_ms"`
	// DurationMs is EndMs-StartMs for closed spans; -1 marks a span still
	// open at snapshot time.
	DurationMs float64        `json:"duration_ms"`
	Modeled    bool           `json:"modeled,omitempty"`
	Attrs      map[string]any `json:"attrs,omitempty"`
	Children   []SpanJSON     `json:"children,omitempty"`
}

// TraceJSON is the wire form of a trace.
type TraceJSON struct {
	ID      string     `json:"id"`
	StartUS int64      `json:"start_unix_us"`
	Spans   []SpanJSON `json:"spans"`
}

// Snapshot returns a point-in-time copy of the trace, safe to serialize
// while spans are still being opened and closed.
func (t *Trace) Snapshot() TraceJSON {
	if t == nil {
		return TraceJSON{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	now := time.Since(t.start)
	out := TraceJSON{ID: t.id, StartUS: t.start.UnixMicro()}
	out.Spans = make([]SpanJSON, len(t.roots))
	for i, s := range t.roots {
		out.Spans[i] = s.snapshotLocked(now)
	}
	return out
}

func (s *Span) snapshotLocked(now time.Duration) SpanJSON {
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	j := SpanJSON{
		Name:    s.name,
		StartMs: ms(s.start),
		Modeled: s.modeled,
	}
	if s.ended {
		j.EndMs = ms(s.end)
		j.DurationMs = ms(s.end - s.start)
	} else {
		j.EndMs = ms(now)
		j.DurationMs = -1
	}
	if len(s.attrs) > 0 {
		j.Attrs = make(map[string]any, len(s.attrs))
		for k, v := range s.attrs {
			j.Attrs[k] = v
		}
	}
	for _, c := range s.children {
		j.Children = append(j.Children, c.snapshotLocked(now))
	}
	return j
}

// traceKey and spanKey carry the active trace and span through a context.
type traceKey struct{}
type spanKey struct{}

// WithTrace returns a context carrying the trace.
func WithTrace(ctx context.Context, t *Trace) context.Context {
	return context.WithValue(ctx, traceKey{}, t)
}

// traceFrom returns the context's trace, or nil.
func traceFrom(ctx context.Context) *Trace {
	if ctx == nil {
		return nil
	}
	t, _ := ctx.Value(traceKey{}).(*Trace)
	return t
}

// SpanFrom returns the context's innermost span, or nil.
func SpanFrom(ctx context.Context) *Span {
	if ctx == nil {
		return nil
	}
	s, _ := ctx.Value(spanKey{}).(*Span)
	return s
}

// StartSpan opens a span as a child of the context's current span (or a
// root span of the context's trace when none is open) and returns a context
// carrying the new span. With no trace on the context it is a no-op: the
// returned span is nil and nil-safe, and ctx is returned unchanged — so
// library code (core, fpga) can instrument unconditionally.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	if ctx == nil {
		ctx = context.Background()
	}
	if parent := SpanFrom(ctx); parent != nil {
		s := parent.startChild(name)
		return context.WithValue(ctx, spanKey{}, s), s
	}
	t := traceFrom(ctx)
	if t == nil {
		return ctx, nil
	}
	s := t.startSpan(name)
	return context.WithValue(ctx, spanKey{}, s), s
}
