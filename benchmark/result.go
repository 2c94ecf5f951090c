package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
)

// measurement is one metric of one run. N is the number of samples the value
// summarises (passes, jobs, builds; 1 for a count).
type measurement struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Kind  string  `json:"kind"`
	N     int     `json:"n"`
}

// result is the one schema every run is written in.
type result struct {
	Host      hostInfo               `json:"host"`
	Seed      int64                  `json:"seed"`
	Workload  string                 `json:"workload"`
	Scale     string                 `json:"scale"`
	Traced    bool                   `json:"traced"`
	Metrics   map[string]measurement `json:"metrics"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Failures  []string               `json:"failures,omitempty"`
	Digests   map[string]string      `json:"digests"`
}

func newResult(cfg runConfig) *result {
	return &result{
		Host: readHost(), Seed: cfg.seed, Workload: cfg.workload, Scale: cfg.scale, Traced: cfg.traced,
		Metrics: map[string]measurement{}, Digests: map[string]string{},
	}
}

// set records a metric; the name must be declared in spec.go.
func (r *result) set(name string, v float64, n int) {
	m, ok := metricByName(name)
	if !ok {
		panic("benchmark: metric " + name + " is not declared in spec.go")
	}
	r.Metrics[name] = measurement{Value: v, Unit: m.Unit, Kind: m.Kind, N: n}
}

func (r *result) value(name string) float64 { return r.Metrics[name].Value }

// check adds a correctness check's outcome: attempted operations, how many
// failed, and what the first failure was.
func (r *result) check(what string, attempted, failed int, first string) {
	r.Attempted += attempted
	r.Failed += failed
	if failed > 0 {
		r.Failures = append(r.Failures, fmt.Sprintf("%s: %d of %d failed; first: %s", what, failed, attempted, first))
	}
}

// pin records an input digest and, for the pinned seed at full scale, checks
// it against the recorded one.
func (r *result) pin(cfg runConfig, name string, digest uint64) {
	r.Digests[name] = fmt.Sprintf("%016x", digest)
	if cfg.seed != pinnedSeed || cfg.scale != scaleFull {
		return
	}
	want, ok := pins[cfg.workload].Digests[name]
	switch {
	case !ok:
		r.check("input pin "+name, 1, 1, "no digest recorded in spec.go")
	case want != digest:
		r.check("input pin "+name, 1, 1, fmt.Sprintf("digest %016x, recorded %016x: internal/readsim changed the workload", digest, want))
	default:
		r.check("input pin "+name, 1, 0, "")
	}
}

// print lists the run's metrics by name with unit, kind, direction, bound and
// sample count.
func (r *result) print(tiers ...string) {
	mode := "untraced"
	if r.Traced {
		mode = "traced"
	}
	fmt.Printf("\n== %s  seed %d  scale %s  %s  (%d cpus, GOMAXPROCS %d, %s, L2 %d KiB, L3 %d KiB)\n",
		r.Workload, r.Seed, r.Scale, mode, r.Host.CPUs, r.Host.GOMAXPROCS, r.Host.Go, r.Host.L2Bytes>>10, r.Host.L3Bytes>>10)
	for _, tier := range tiers {
		for _, m := range metrics {
			got, ok := r.Metrics[m.Name]
			if !ok || m.Tier != tier {
				continue
			}
			bound := "      -"
			if m.Bound > 0 {
				bound = fmt.Sprintf("%6.0f%%", m.Bound*100)
			}
			fmt.Printf("  %-32s %16.6g %-8s %-5s %-6s bound %s  n=%d\n",
				m.Name, got.Value, m.Unit, m.Kind, m.Better, bound, got.N)
		}
	}
	names := make([]string, 0, len(r.Digests))
	for k := range r.Digests {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("  input %-26s crc64 %s\n", k, r.Digests[k])
	}
	failedFraction := 0.0
	if r.Attempted > 0 {
		failedFraction = float64(r.Failed) / float64(r.Attempted)
	}
	fmt.Printf("  %-32s %16.6g %-8s (%d of %d operations)\n", "failed_fraction", failedFraction, "ratio", r.Failed, r.Attempted)
	for _, f := range r.Failures {
		fmt.Printf("  FAILED %s\n", f)
	}
}

// appendTo adds the result as one JSON line to the file.
func (r *result) appendTo(path string) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	line, err := json.Marshal(r)
	if err != nil {
		f.Close()
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// driverLine is the last line the driver reads: every end_to_end metric of
// BENCHMARK.json for an untraced run, every per_layer metric for a traced
// one. A per-layer metric this workload does not exercise reads 0.
func (r *result) driverLine() string {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{Correct: r.Failed == 0 && r.Attempted > 0, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]mv{}}
	for _, m := range metrics {
		if (m.Tier == tierEndToEnd) == r.Traced {
			continue
		}
		out.Metrics[m.Name] = mv{Value: r.Metrics[m.Name].Value, Unit: m.Unit}
	}
	line, _ := json.Marshal(out)
	return string(line)
}

// readResults loads a file of result lines; an empty file is an error.
func readResults(path string) ([]result, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var out []result
	for i, line := range strings.Split(string(data), "\n") {
		if strings.TrimSpace(line) == "" {
			continue
		}
		var r result
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			return nil, fmt.Errorf("%s line %d: %w", path, i+1, err)
		}
		out = append(out, r)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s holds no results", path)
	}
	return out, nil
}
