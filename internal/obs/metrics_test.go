package obs

import (
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeExposition(t *testing.T) {
	r := NewRegistry()
	jobs := r.Counter("jobs_total", "jobs by state", "state")
	jobs.With("done").Add(3)
	jobs.With("failed").Inc()
	depth := r.Gauge("queue_depth", "queued jobs")
	depth.With().Set(7)
	depth.With().Add(-2)

	var b strings.Builder
	r.WritePrometheus(&b)
	out := b.String()
	for _, want := range []string{
		"# HELP jobs_total jobs by state",
		"# TYPE jobs_total counter",
		`jobs_total{state="done"} 3`,
		`jobs_total{state="failed"} 1`,
		"# TYPE queue_depth gauge",
		"queue_depth 5",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestHistogramExposition(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("stage_seconds", "stage durations", []float64{0.1, 1, 10}, "stage")
	s := h.With("sa")
	s.Observe(0.05)
	s.Observe(0.5)
	s.Observe(5)
	s.Observe(50)

	var b strings.Builder
	r.WritePrometheus(&b)
	out := b.String()
	for _, want := range []string{
		"# TYPE stage_seconds histogram",
		`stage_seconds_bucket{stage="sa",le="0.1"} 1`,
		`stage_seconds_bucket{stage="sa",le="1"} 2`,
		`stage_seconds_bucket{stage="sa",le="10"} 3`,
		`stage_seconds_bucket{stage="sa",le="+Inf"} 4`,
		`stage_seconds_sum{stage="sa"} 55.55`,
		`stage_seconds_count{stage="sa"} 4`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	if s.Count() != 4 {
		t.Errorf("count = %d, want 4", s.Count())
	}
}

func TestFuncCollectors(t *testing.T) {
	r := NewRegistry()
	n := 41.0
	r.GaugeFunc("cache_entries", "entries", func() float64 { return n })
	r.CounterFunc("cache_hits_total", "hits", func() float64 { return 9 }, "cache", "index")
	n = 42

	var b strings.Builder
	r.WritePrometheus(&b)
	out := b.String()
	if !strings.Contains(out, "cache_entries 42") {
		t.Errorf("func gauge not collected at scrape time:\n%s", out)
	}
	if !strings.Contains(out, `cache_hits_total{cache="index"} 9`) {
		t.Errorf("func counter missing:\n%s", out)
	}
}

// TestGetOrCreateFamilies: re-registering a family returns the same series,
// the contract lazily-built farms rely on.
func TestGetOrCreateFamilies(t *testing.T) {
	r := NewRegistry()
	r.Counter("x_total", "x", "l").With("a").Inc()
	r.Counter("x_total", "x", "l").With("a").Inc()
	if got := r.Counter("x_total", "x", "l").With("a").value(); got != 2 {
		t.Errorf("re-registered counter = %v, want 2", got)
	}
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.Counter("esc_total", "e", "id").With("a\"b\\c\nd").Inc()
	var b strings.Builder
	r.WritePrometheus(&b)
	if !strings.Contains(b.String(), `esc_total{id="a\"b\\c\nd"} 1`) {
		t.Errorf("label not escaped:\n%s", b.String())
	}
}

func TestConcurrentUse(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				r.Counter("c_total", "c", "w").With("x").Inc()
				r.Histogram("h_seconds", "h", nil, "s").With("y").Observe(0.01)
				var b strings.Builder
				r.WritePrometheus(&b)
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("c_total", "c", "w").With("x").value(); got != 800 {
		t.Errorf("counter = %v, want 800", got)
	}
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count
}
