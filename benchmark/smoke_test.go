package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"
)

type manifestFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name  string  `json:"name"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
	} `json:"per_layer"`
}

func readManifest(t *testing.T) manifestFile {
	t.Helper()
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	want, err := manifest()
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != string(want) {
		t.Error("BENCHMARK.json differs from what spec.go declares; regenerate it with `go run ./benchmark -manifest > BENCHMARK.json`")
	}
	var m manifestFile
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	return m
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func equalNames(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestSmoke runs all four workloads at smoke scale, untraced and traced, and
// checks that every correctness check passes and that the workload and metric
// names printed are exactly the ones BENCHMARK.json declares.
func TestSmoke(t *testing.T) {
	m := readManifest(t)
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, spec.go %d", len(m.Workloads), len(workloads))
	}
	var endToEnd, perLayer []string
	for _, e := range m.EndToEnd {
		endToEnd = append(endToEnd, e.Name)
		if e.Bound <= 0 || e.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", e.Name, e.Bound)
		}
	}
	for _, e := range m.PerLayer {
		perLayer = append(perLayer, e.Name)
	}
	sort.Strings(endToEnd)
	sort.Strings(perLayer)

	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	out := t.TempDir()
	for _, w := range m.Workloads {
		if len(w.Why) > 200 {
			t.Errorf("%s: why is %d characters, the manifest allows 200", w.Name, len(w.Why))
		}
		exercised := map[string]bool{}
		for _, traced := range []bool{false, true} {
			cfg := runConfig{workload: w.Name, seed: pinnedSeed, seconds: 0.2, traced: traced, scale: scaleSmoke, root: root, outDir: out}
			start := time.Now()
			res, err := runWorkload(cfg)
			t.Logf("%s traced=%v took %v", w.Name, traced, time.Since(start).Round(time.Millisecond))
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			if res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s traced=%v: %d of %d operations failed: %v", w.Name, traced, res.Failed, res.Attempted, res.Failures)
			}
			var line struct {
				Correct bool `json:"correct"`
				Metrics map[string]struct {
					Value float64 `json:"value"`
					Unit  string  `json:"unit"`
				} `json:"metrics"`
			}
			if err := json.Unmarshal([]byte(res.driverLine()), &line); err != nil {
				t.Fatalf("%s traced=%v: driver line: %v", w.Name, traced, err)
			}
			want := endToEnd
			if traced {
				want = perLayer
			}
			if got := sortedKeys(line.Metrics); !equalNames(got, want) {
				t.Errorf("%s traced=%v: driver line names %v, BENCHMARK.json declares %v", w.Name, traced, got, want)
			}
			for name, v := range line.Metrics {
				if !traced && v.Value == 0 {
					t.Errorf("%s: end-to-end metric %s is 0", w.Name, name)
				}
				if v.Value != 0 {
					exercised[name] = true
				}
			}
			if traced {
				if _, err := os.Stat(filepath.Join(out, "trace-"+w.Name+".json")); err != nil {
					t.Errorf("%s: no trace file: %v", w.Name, err)
				}
			}
		}
		t.Logf("%s exercises %d of %d declared metrics", w.Name, len(exercised), len(endToEnd)+len(perLayer))
	}
}

// TestCompareVerdicts pins -compare's three verdicts and the quartile method
// the acceptance procedure uses.
func TestCompareVerdicts(t *testing.T) {
	m, _ := metricByName("reads_per_s")
	steady := []float64{100, 101, 99, 100, 100.5, 99.5, 100, 101, 99, 100}
	slower := []float64{70, 71, 69, 70, 70.5, 69.5, 70, 71, 69, 70}
	noisy := []float64{80, 120, 90, 110, 70, 130, 100, 95, 105, 85}
	for _, c := range []struct {
		name     string
		old, new []float64
		want     string
	}{
		{"same", steady, steady, "ok"},
		{"30% slower", steady, slower, "regressed"},
		{"faster", slower, steady, "ok"},
		{"spread wider than the bound", steady, noisy, "unresolved"},
	} {
		if got := verdict(m, c.old, c.new); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
	// Python: statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
}
