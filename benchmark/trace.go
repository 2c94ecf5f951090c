package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the harness from outside
// the program under test. Parent is the id of the span that caused it (0 for
// a root), Ops the work the call did in the unit its name implies (reads,
// rank queries, bytes, cells ...).
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"`
	Workload string `json:"workload"`
	Name     string `json:"name"`
	StartNs  int64  `json:"start_ns"`
	EndNs    int64  `json:"end_ns"`
	Ops      int64  `json:"ops"`
}

// tracer keeps spans and counts in memory until the workload ends. A nil
// *tracer is the untraced run: every method is a no-op, so layer wrappers
// call it unconditionally.
type tracer struct {
	workload string
	t0       time.Time

	mu     sync.Mutex
	spans  []span
	counts map[string]float64
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, t0: time.Now(), counts: map[string]float64{}}
}

// start opens a span and returns its id (0 when untraced).
func (t *tracer) start(parent int, name string) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Workload: t.workload, Name: name, StartNs: now})
	t.mu.Unlock()
	return id
}

// end closes span id with the work it covered.
func (t *tracer) end(id int, ops int64) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].EndNs = now
	t.spans[id-1].Ops = ops
	t.mu.Unlock()
}

// record stores a span whose interval was reported by the program under test
// (a modeled or server-side phase) rather than timed by the harness.
func (t *tracer) record(parent int, name string, dur time.Duration, ops int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	start := int64(0)
	if parent > 0 {
		start = t.spans[parent-1].StartNs
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Workload: t.workload, Name: name,
		StartNs: start, EndNs: start + dur.Nanoseconds(), Ops: ops})
	t.mu.Unlock()
}

// add stores a span the caller timed itself (a client goroutine's view of one
// HTTP exchange) and returns its id.
func (t *tracer) add(parent int, name string, start, end time.Time, ops int64) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Workload: t.workload, Name: name,
		StartNs: start.Sub(t.t0).Nanoseconds(), EndNs: end.Sub(t.t0).Nanoseconds(), Ops: ops})
	return id
}

// count adds to a named counter taken at a layer boundary.
func (t *tracer) count(name string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.counts[name] += v
	t.mu.Unlock()
}

func (t *tracer) counter(name string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.counts[name]
}

// total sums duration and ops over every closed span with the name.
func (t *tracer) total(name string) (ns, ops int64, n int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans {
		if s.Name == name && s.EndNs >= s.StartNs {
			ns += s.EndNs - s.StartNs
			ops += s.Ops
			n++
		}
	}
	return ns, ops, n
}

// durations lists the duration of every span with the name, in seconds.
func (t *tracer) durations(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.EndNs-s.StartNs)/1e9)
		}
	}
	return out
}

// childDurations lists, in seconds, the spans named child whose parent span
// is named parent.
func (t *tracer) childDurations(parent, child string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == child && s.Parent > 0 && t.spans[s.Parent-1].Name == parent {
			out = append(out, float64(s.EndNs-s.StartNs)/1e9)
		}
	}
	return out
}

// perOp is duration over ops of the fastest span with the name, in ns: the
// rungs are repeated and the fastest round is the one least disturbed by
// other tenants of the host.
func (t *tracer) perOp(name string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	best := 0.0
	for _, s := range t.spans {
		if s.Name != name || s.Ops == 0 {
			continue
		}
		if v := float64(s.EndNs-s.StartNs) / float64(s.Ops); best == 0 || v < best {
			best = v
		}
	}
	return best
}

// best is the duration of the fastest span with the name, in seconds.
func (t *tracer) best(name string) float64 { return fastest(t.durations(name)) }

func (t *tracer) seconds(name string) float64 {
	ns, _, _ := t.total(name)
	return float64(ns) / 1e9
}

func (t *tracer) ops(name string) float64 {
	_, ops, _ := t.total(name)
	return float64(ops)
}

// write dumps the trace as {"spans":[...],"counts":{...}}.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	data, err := json.Marshal(struct {
		Spans  []span             `json:"spans"`
		Counts map[string]float64 `json:"counts"`
	}{t.spans, t.counts})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
