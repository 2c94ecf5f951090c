package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"bwaver/internal/fpga"
)

// fetchTSV downloads a finished job's results.
func fetchTSV(t *testing.T, ts *httptest.Server, loc string) []byte {
	t.Helper()
	resp, err := http.Get(ts.URL + loc + "/results")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("results returned %d: %s", resp.StatusCode, b)
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// fetchJobJSON reads a job's API representation given its page location.
func fetchJobJSON(t *testing.T, ts *httptest.Server, loc string) jobJSON {
	t.Helper()
	resp, err := http.Get(ts.URL + "/api" + loc)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var j jobJSON
	if err := json.NewDecoder(resp.Body).Decode(&j); err != nil {
		t.Fatal(err)
	}
	return j
}

func fetchStats(t *testing.T, ts *httptest.Server) statsJSON {
	t.Helper()
	resp, err := http.Get(ts.URL + "/api/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var s statsJSON
	if err := json.NewDecoder(resp.Body).Decode(&s); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestJobSurvivesDeadDevice is the acceptance scenario: a farm with a
// persistently broken card still completes the job with mappings
// byte-identical to the CPU backend, and the recovery is visible in
// /api/stats and /api/health.
func TestJobSurvivesDeadDevice(t *testing.T) {
	refFasta, readsFastq, _ := testData(t)
	plan, err := fpga.ParseFaultPlan("seed=7,persistent=0:kernel")
	if err != nil {
		t.Fatal(err)
	}
	s := openServer(t, Config{
		Devices:          2,
		FaultPlan:        plan,
		MaxRetries:       2,
		BreakerThreshold: 2,
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	fpgaLoc := submitJob(t, s, ts,
		map[string]string{"backend": "fpga"},
		map[string][]byte{"reference": refFasta, "reads": readsFastq})
	s.Wait()

	job := fetchJobJSON(t, ts, fpgaLoc)
	if job.State != "done" {
		t.Fatalf("job state %q (error %q), want done", job.State, job.Error)
	}
	if job.FallbackUsed {
		t.Fatalf("job fell back to CPU (%s); the healthy card should have absorbed the work", job.FallbackReason)
	}

	// Byte-identical to a CPU-backend job on the same inputs.
	cpuLoc := submitJob(t, s, ts,
		map[string]string{"backend": "cpu"},
		map[string][]byte{"reference": refFasta, "reads": readsFastq})
	s.Wait()
	if got, want := fetchTSV(t, ts, fpgaLoc), fetchTSV(t, ts, cpuLoc); !bytes.Equal(got, want) {
		t.Fatalf("FPGA-with-faults TSV differs from CPU TSV:\n%s\n---\n%s", got, want)
	}

	stats := fetchStats(t, ts)
	if stats.Resilience.Faults["kernel"] == 0 {
		t.Errorf("stats faults = %v, want kernel faults recorded", stats.Resilience.Faults)
	}
	if stats.Resilience.Retries == 0 || stats.Resilience.Redistributed == 0 {
		t.Errorf("resilience = %+v, want retries and redistribution", stats.Resilience)
	}
	if stats.Resilience.Fallbacks != 0 {
		t.Errorf("resilience = %+v, want no fallbacks", stats.Resilience)
	}

	// Health: device 0's breaker opened (threshold 2 < 3 attempts), so the
	// service is degraded but not critical.
	resp, err := http.Get(ts.URL + "/api/health")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Errorf("health content type %q", ct)
	}
	var health healthJSON
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	if health.Status != "degraded" {
		t.Errorf("health status %q, want degraded", health.Status)
	}
	if len(health.Devices) != 2 || health.Devices[0].Breaker != "open" || health.Devices[1].Breaker != "closed" {
		t.Errorf("device health = %+v", health.Devices)
	}
}

// TestCPUFallback: with the only device dead, the job transparently reruns
// on the CPU and says so.
func TestCPUFallback(t *testing.T) {
	refFasta, readsFastq, _ := testData(t)
	plan, err := fpga.ParseFaultPlan("seed=7,persistent=0:kernel")
	if err != nil {
		t.Fatal(err)
	}
	s := openServer(t, Config{
		Devices:          1,
		FaultPlan:        plan,
		MaxRetries:       1,
		BreakerThreshold: 2,
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	loc := submitJob(t, s, ts,
		map[string]string{"backend": "fpga"},
		map[string][]byte{"reference": refFasta, "reads": readsFastq})
	s.Wait()

	job := fetchJobJSON(t, ts, loc)
	if job.State != "done" {
		t.Fatalf("job state %q (error %q), want done via fallback", job.State, job.Error)
	}
	if !job.FallbackUsed || job.FallbackReason == "" {
		t.Fatalf("job = %+v, want fallback recorded", job)
	}

	cpuLoc := submitJob(t, s, ts,
		map[string]string{"backend": "cpu"},
		map[string][]byte{"reference": refFasta, "reads": readsFastq})
	s.Wait()
	if got, want := fetchTSV(t, ts, loc), fetchTSV(t, ts, cpuLoc); !bytes.Equal(got, want) {
		t.Fatalf("fallback TSV differs from CPU TSV")
	}

	stats := fetchStats(t, ts)
	if stats.Resilience.Fallbacks != 1 {
		t.Errorf("fallbacks = %d, want 1", stats.Resilience.Fallbacks)
	}
	if stats.Resilience.Exhausted == 0 {
		t.Errorf("resilience = %+v, want exhausted runs", stats.Resilience)
	}

	// The job page mentions the fallback.
	resp, err := http.Get(ts.URL + loc)
	if err != nil {
		t.Fatal(err)
	}
	page, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(page), "fell back to CPU") {
		t.Errorf("job page does not mention the fallback:\n%s", page)
	}
}

// TestFallbackPolicyFail: -fallback=fail surfaces the device error instead.
func TestFallbackPolicyFail(t *testing.T) {
	refFasta, readsFastq, _ := testData(t)
	plan, err := fpga.ParseFaultPlan("seed=7,persistent=0:kernel")
	if err != nil {
		t.Fatal(err)
	}
	s := openServer(t, Config{
		Devices:    1,
		FaultPlan:  plan,
		MaxRetries: 1,
		Fallback:   "fail",
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	loc := submitJob(t, s, ts,
		map[string]string{"backend": "fpga"},
		map[string][]byte{"reference": refFasta, "reads": readsFastq})
	s.Wait()

	job := fetchJobJSON(t, ts, loc)
	if job.State != "failed" {
		t.Fatalf("job state %q, want failed under -fallback=fail", job.State)
	}
	if job.FallbackUsed {
		t.Error("fallback recorded despite fail policy")
	}
	if !strings.Contains(job.Error, "no healthy devices") {
		t.Errorf("job error %q, want the device failure", job.Error)
	}
}

// TestFallbackTwoPass: the approximate (mismatch-budget) flow falls back too.
func TestFallbackTwoPass(t *testing.T) {
	refFasta, readsFastq, _ := testData(t)
	plan, err := fpga.ParseFaultPlan("seed=7,persistent=0:query")
	if err != nil {
		t.Fatal(err)
	}
	s := openServer(t, Config{Devices: 1, FaultPlan: plan, MaxRetries: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	loc := submitJob(t, s, ts,
		map[string]string{"backend": "fpga", "mismatches": "1"},
		map[string][]byte{"reference": refFasta, "reads": readsFastq})
	s.Wait()

	job := fetchJobJSON(t, ts, loc)
	if job.State != "done" || !job.FallbackUsed {
		t.Fatalf("job = %+v, want done via fallback", job)
	}

	cpuLoc := submitJob(t, s, ts,
		map[string]string{"backend": "cpu", "mismatches": "1"},
		map[string][]byte{"reference": refFasta, "reads": readsFastq})
	s.Wait()
	if got, want := fetchTSV(t, ts, loc), fetchTSV(t, ts, cpuLoc); !bytes.Equal(got, want) {
		t.Fatalf("two-pass fallback TSV differs from CPU TSV")
	}
}

// TestAPIErrorsAreJSON: every /api/* error carries the structured envelope.
func TestAPIErrorsAreJSON(t *testing.T) {
	s := openServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for _, tc := range []struct {
		method, path string
		status       int
	}{
		{"GET", "/api/jobs/999", http.StatusNotFound},
		{"GET", "/api/jobs/notanumber", http.StatusNotFound},
		{"DELETE", "/api/jobs/999", http.StatusNotFound},
	} {
		req, err := http.NewRequest(tc.method, ts.URL+tc.path, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.status {
			t.Errorf("%s %s: status %d, want %d", tc.method, tc.path, resp.StatusCode, tc.status)
		}
		if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
			t.Errorf("%s %s: content type %q, want application/json", tc.method, tc.path, ct)
		}
		var envelope struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(body, &envelope); err != nil || envelope.Error == "" {
			t.Errorf("%s %s: body %q is not an error envelope", tc.method, tc.path, body)
		}
	}
}

// TestTransientFaultsRecoverInline: a flaky (not dead) device heals through
// retries alone; no fallback, no open breaker at the end of the run.
func TestTransientFaultsRecoverInline(t *testing.T) {
	refFasta, readsFastq, _ := testData(t)
	plan, err := fpga.ParseFaultPlan("seed=12,query=0.3,corrupt=0.2")
	if err != nil {
		t.Fatal(err)
	}
	s := openServer(t, Config{
		Devices:         2,
		FaultPlan:       plan,
		MaxRetries:      4,
		BreakerCooldown: time.Millisecond,
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	loc := submitJob(t, s, ts,
		map[string]string{"backend": "fpga"},
		map[string][]byte{"reference": refFasta, "reads": readsFastq})
	s.Wait()

	job := fetchJobJSON(t, ts, loc)
	if job.State != "done" {
		t.Fatalf("job state %q (error %q)", job.State, job.Error)
	}
	cpuLoc := submitJob(t, s, ts,
		map[string]string{"backend": "cpu"},
		map[string][]byte{"reference": refFasta, "reads": readsFastq})
	s.Wait()
	if got, want := fetchTSV(t, ts, loc), fetchTSV(t, ts, cpuLoc); !bytes.Equal(got, want) {
		t.Fatalf("flaky-device TSV differs from CPU TSV")
	}
}
