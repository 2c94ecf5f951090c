// Package obs is the observability layer: a dependency-free metrics
// registry with Prometheus text exposition, structured logging helpers over
// log/slog, and a span-based tracer whose job traces can absorb the FPGA
// simulator's modeled event timeline alongside host-side wall-clock stages.
//
// The paper's whole argument is profiling-shaped — OpenCL event timelines
// decomposed into setup/index/query/kernel/result stages — and the server's
// resilience machinery (retries, breakers, fallbacks) is invisible without
// counters. This package makes both first-class: every later performance PR
// can be judged from /metrics and a job trace instead of one-off CLI tables.
//
// The registry intentionally implements only what the repo needs (counters,
// gauges, histograms, label vectors, and scrape-time collector functions),
// not the full Prometheus client API; the exposition format follows the
// text format v0.0.4 so any Prometheus-compatible scraper can consume it.
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Kind is a metric family's Prometheus type.
type Kind string

// The exposition types the registry supports.
const (
	kindCounter   Kind = "counter"
	kindGauge     Kind = "gauge"
	kindHistogram Kind = "histogram"
)

// defDurationBuckets are the default histogram buckets for durations in
// seconds: microseconds-scale modeled kernel stages through minutes-scale
// index builds.
var defDurationBuckets = []float64{
	1e-6, 1e-5, 1e-4, 1e-3, 5e-3, 0.01, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60, 120,
}

// Registry holds metric families and renders them in the Prometheus text
// format. All methods are safe for concurrent use. Creating a family that
// already exists returns the existing one (families are get-or-create), so
// components wired lazily — like farms built per cache entry — share
// instruments instead of colliding.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: map[string]*family{}}
}

// family is one named metric with a fixed label schema.
type family struct {
	name    string
	help    string
	kind    Kind
	labels  []string
	buckets []float64 // histograms only

	mu      sync.Mutex
	metrics map[string]any      // labelKey -> *Counter | *Gauge | *Histogram
	funcs   map[string]funcCell // labelKey -> scrape-time collector
	order   []string            // insertion order of label keys
}

// funcCell is a scrape-time collector bound to one label set.
type funcCell struct {
	labelValues []string
	fn          func() float64
}

func labelKey(values []string) string { return strings.Join(values, "\x1f") }

func (r *Registry) family(name, help string, kind Kind, buckets []float64, labels []string) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok {
		if f.kind != kind || len(f.labels) != len(labels) {
			panic(fmt.Sprintf("obs: metric %q re-registered with a different schema", name))
		}
		return f
	}
	f := &family{
		name: name, help: help, kind: kind, labels: append([]string(nil), labels...),
		buckets: buckets,
		metrics: map[string]any{},
		funcs:   map[string]funcCell{},
	}
	r.families[name] = f
	return f
}

func (f *family) cell(values []string, mk func() any) any {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("obs: metric %q wants %d label values, got %d", f.name, len(f.labels), len(values)))
	}
	key := labelKey(values)
	f.mu.Lock()
	defer f.mu.Unlock()
	m, ok := f.metrics[key]
	if !ok {
		m = mk()
		f.metrics[key] = m
		f.order = append(f.order, key)
	}
	return m
}

// CounterVec is a counter family with labels; With resolves one series.
type CounterVec struct{ f *family }

// GaugeVec is a gauge family with labels; With resolves one series.
type GaugeVec struct{ f *family }

// HistogramVec is a histogram family with labels; With resolves one series.
type HistogramVec struct{ f *family }

// Counter registers (or finds) a counter family.
func (r *Registry) Counter(name, help string, labels ...string) *CounterVec {
	return &CounterVec{r.family(name, help, kindCounter, nil, labels)}
}

// Gauge registers (or finds) a gauge family.
func (r *Registry) Gauge(name, help string, labels ...string) *GaugeVec {
	return &GaugeVec{r.family(name, help, kindGauge, nil, labels)}
}

// Histogram registers (or finds) a histogram family with the given bucket
// upper bounds (ascending, in the metric's base unit; +Inf is implicit).
// A nil buckets slice takes defDurationBuckets.
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...string) *HistogramVec {
	if buckets == nil {
		buckets = defDurationBuckets
	}
	return &HistogramVec{r.family(name, help, kindHistogram, buckets, labels)}
}

// CounterFunc attaches a scrape-time collector as a counter series: fn is
// called at exposition time under no registry locks beyond the family's.
// Use it to surface counters another component already maintains (cache
// hit counts, resilience totals) without double bookkeeping.
func (r *Registry) CounterFunc(name, help string, fn func() float64, labelPairs ...string) {
	r.registerFunc(name, help, kindCounter, fn, labelPairs)
}

// GaugeFunc attaches a scrape-time collector as a gauge series.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labelPairs ...string) {
	r.registerFunc(name, help, kindGauge, fn, labelPairs)
}

// registerFunc wires fn under the label pairs (name1, value1, name2,
// value2, ...). Re-attaching the same series replaces the collector.
func (r *Registry) registerFunc(name, help string, kind Kind, fn func() float64, labelPairs []string) {
	if len(labelPairs)%2 != 0 {
		panic(fmt.Sprintf("obs: metric %q: label pairs must come as name,value", name))
	}
	names := make([]string, 0, len(labelPairs)/2)
	values := make([]string, 0, len(labelPairs)/2)
	for i := 0; i < len(labelPairs); i += 2 {
		names = append(names, labelPairs[i])
		values = append(values, labelPairs[i+1])
	}
	f := r.family(name, help, kind, nil, names)
	key := labelKey(values)
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, ok := f.funcs[key]; !ok {
		f.order = append(f.order, key)
	}
	f.funcs[key] = funcCell{labelValues: values, fn: fn}
}

// Counter is one monotonically increasing series.
type Counter struct {
	mu  sync.Mutex
	val float64
}

// With resolves the series for the given label values.
func (v *CounterVec) With(labelValues ...string) *Counter {
	return v.f.cell(labelValues, func() any { return &Counter{} }).(*Counter)
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds delta; negative deltas panic (counters are monotone).
func (c *Counter) Add(delta float64) {
	if delta < 0 {
		panic("obs: counter decrease")
	}
	c.mu.Lock()
	c.val += delta
	c.mu.Unlock()
}

// value returns the current count.
func (c *Counter) value() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.val
}

// Gauge is one settable series.
type Gauge struct {
	mu  sync.Mutex
	val float64
}

// With resolves the series for the given label values.
func (v *GaugeVec) With(labelValues ...string) *Gauge {
	return v.f.cell(labelValues, func() any { return &Gauge{} }).(*Gauge)
}

// Set stores the value.
func (g *Gauge) Set(val float64) {
	g.mu.Lock()
	g.val = val
	g.mu.Unlock()
}

// Add adjusts the value by delta (may be negative).
func (g *Gauge) Add(delta float64) {
	g.mu.Lock()
	g.val += delta
	g.mu.Unlock()
}

// value returns the current value.
func (g *Gauge) value() float64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.val
}

// Histogram is one series of observations bucketed by upper bound.
type Histogram struct {
	mu      sync.Mutex
	buckets []float64 // upper bounds, ascending
	counts  []uint64  // cumulative at exposition, stored per-bucket here
	sum     float64
	count   uint64
}

// With resolves the series for the given label values.
func (v *HistogramVec) With(labelValues ...string) *Histogram {
	f := v.f
	return f.cell(labelValues, func() any {
		return &Histogram{buckets: f.buckets, counts: make([]uint64, len(f.buckets))}
	}).(*Histogram)
}

// Observe records one observation.
func (h *Histogram) Observe(val float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.sum += val
	h.count++
	for i, ub := range h.buckets {
		if val <= ub {
			h.counts[i]++
			break
		}
	}
}

// WritePrometheus renders every family in the Prometheus text exposition
// format (v0.0.4), families sorted by name, series in registration order.
func (r *Registry) WritePrometheus(w io.Writer) {
	r.mu.Lock()
	names := make([]string, 0, len(r.families))
	for name := range r.families {
		names = append(names, name)
	}
	fams := make([]*family, 0, len(names))
	sort.Strings(names)
	for _, name := range names {
		fams = append(fams, r.families[name])
	}
	r.mu.Unlock()
	for _, f := range fams {
		f.write(w)
	}
}

// ContentType is the /metrics response content type for the text format.
const ContentType = "text/plain; version=0.0.4; charset=utf-8"

func (f *family) write(w io.Writer) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if len(f.order) == 0 {
		return
	}
	fmt.Fprintf(w, "# HELP %s %s\n", f.name, escapeHelp(f.help))
	fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.kind)
	for _, key := range f.order {
		if m, ok := f.metrics[key]; ok {
			values := strings.Split(key, "\x1f")
			if len(f.labels) == 0 {
				values = nil
			}
			switch v := m.(type) {
			case *Counter:
				fmt.Fprintf(w, "%s%s %s\n", f.name, renderLabels(f.labels, values), formatValue(v.value()))
			case *Gauge:
				fmt.Fprintf(w, "%s%s %s\n", f.name, renderLabels(f.labels, values), formatValue(v.value()))
			case *Histogram:
				v.write(w, f.name, f.labels, values)
			}
			continue
		}
		if fc, ok := f.funcs[key]; ok {
			fmt.Fprintf(w, "%s%s %s\n", f.name, renderLabels(f.labels, fc.labelValues), formatValue(fc.fn()))
		}
	}
}

func (h *Histogram) write(w io.Writer, name string, labelNames, labelValues []string) {
	h.mu.Lock()
	buckets := append([]float64(nil), h.buckets...)
	counts := append([]uint64(nil), h.counts...)
	sum, count := h.sum, h.count
	h.mu.Unlock()
	cum := uint64(0)
	for i, ub := range buckets {
		cum += counts[i]
		fmt.Fprintf(w, "%s_bucket%s %d\n", name,
			renderLabels(append(labelNames, "le"), append(labelValues, formatValue(ub))), cum)
	}
	fmt.Fprintf(w, "%s_bucket%s %d\n", name,
		renderLabels(append(labelNames, "le"), append(labelValues, "+Inf")), count)
	fmt.Fprintf(w, "%s_sum%s %s\n", name, renderLabels(labelNames, labelValues), formatValue(sum))
	fmt.Fprintf(w, "%s_count%s %d\n", name, renderLabels(labelNames, labelValues), count)
}

func renderLabels(names, values []string) string {
	if len(names) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(n)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(values[i]))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
var helpEscaper = strings.NewReplacer(`\`, `\\`, "\n", `\n`)

func escapeLabel(s string) string { return labelEscaper.Replace(s) }
func escapeHelp(s string) string  { return helpEscaper.Replace(s) }

func formatValue(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
