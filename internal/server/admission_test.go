package server

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"
	"time"
)

// postJob submits an upload and returns the raw response (no redirect
// following), for tests that care about rejections.
func postJob(t *testing.T, ts *httptest.Server, refFasta, readsFastq []byte) *http.Response {
	t.Helper()
	body, ctype := buildUpload(t, map[string]string{"backend": "cpu"},
		map[string][]byte{"reference": refFasta, "reads": readsFastq})
	client := &http.Client{CheckRedirect: func(*http.Request, []*http.Request) error {
		return http.ErrUseLastResponse
	}}
	resp, err := client.Post(ts.URL+"/jobs", ctype, body)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// decodeRejection drains a rejection response, asserting the structured
// envelope: JSON error + reason + retry hint, and a Retry-After header.
func decodeRejection(t *testing.T, resp *http.Response) (reason string, retrySecs int) {
	t.Helper()
	defer resp.Body.Close()
	var payload struct {
		Error      string `json:"error"`
		Reason     string `json:"reason"`
		RetryAfter int    `json:"retry_after_seconds"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&payload); err != nil {
		t.Fatalf("rejection body is not the structured envelope: %v", err)
	}
	if payload.Error == "" {
		t.Error("rejection has no error message")
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("rejection has no Retry-After header")
	}
	return payload.Reason, payload.RetryAfter
}

// With one slot and a one-deep queue, the third concurrent submission is shed
// with a structured queue_full 503, its staged upload removed — and
// cancelling the queued job frees the slot immediately for a new submission.
func TestQueueFullShedsAndCancelFrees(t *testing.T) {
	refFasta, readsFastq := testDataSmall(t)
	stateDir := t.TempDir()
	s := openServer(t, Config{MaxConcurrentJobs: 1, MaxQueue: 1, StateDir: stateDir})
	release := make(chan struct{})
	entered := make(chan struct{}, 8)
	s.testHookBeforeRun = func(j *Job, ctx context.Context) {
		entered <- struct{}{}
		select {
		case <-release:
		case <-ctx.Done():
		}
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer close(release)

	// Job 1 occupies the slot; job 2 fills the queue.
	submitJob(t, s, ts, map[string]string{"backend": "cpu"},
		map[string][]byte{"reference": refFasta, "reads": readsFastq})
	<-entered
	submitJob(t, s, ts, map[string]string{"backend": "cpu"},
		map[string][]byte{"reference": refFasta, "reads": readsFastq})

	resp := postJob(t, ts, refFasta, readsFastq)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("over-queue submit returned %d, want 503", resp.StatusCode)
	}
	reason, retry := decodeRejection(t, resp)
	if reason != reasonQueueFull {
		t.Errorf("rejection reason %q, want %q", reason, reasonQueueFull)
	}
	if retry < 1 {
		t.Errorf("retry_after_seconds = %d, want >= 1", retry)
	}
	if staged, _ := filepath.Glob(filepath.Join(stateDir, stagedPayload)); len(staged) > 0 {
		t.Errorf("the shed submission left %v behind", staged)
	}

	// Cancel the queued job: the queue slot must free without waiting for
	// the running job, so the next submission is admitted.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/api/jobs/2", nil)
	cresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, cresp.Body)
	cresp.Body.Close()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if j := getJobJSON(t, ts, 2); j.State == string(StateCanceled) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("queued job not canceled after 5s")
		}
		time.Sleep(5 * time.Millisecond)
	}
	resp = postJob(t, ts, refFasta, readsFastq)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusSeeOther {
		t.Errorf("post-cancel submit returned %d, want 303", resp.StatusCode)
	}

	st := getStats(t, ts)
	if st.Admission.Rejected[reasonQueueFull] != 1 {
		t.Errorf("rejected[queue_full] = %d, want 1", st.Admission.Rejected[reasonQueueFull])
	}
	if st.Admission.MaxQueue != 1 {
		t.Errorf("stats max_queue = %d, want 1", st.Admission.MaxQueue)
	}
}

// A client past its token bucket gets a structured 429 with a retry hint.
// The rate is deliberately glacial (one token per 10 s) so no amount of test
// slowness can refill the bucket mid-test; refill behavior itself is covered
// by TestRateLimiterBucketMath with an injected clock.
func TestRateLimit429(t *testing.T) {
	refFasta, readsFastq := testDataSmall(t)
	s := openServer(t, Config{RatePerSec: 0.1, RateBurst: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp := postJob(t, ts, refFasta, readsFastq)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusSeeOther {
		t.Fatalf("first submit returned %d, want 303", resp.StatusCode)
	}
	// The burst of one is spent; the repeat must be limited.
	resp = postJob(t, ts, refFasta, readsFastq)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second submit returned %d, want 429", resp.StatusCode)
	}
	reason, retry := decodeRejection(t, resp)
	if reason != reasonRateLimited {
		t.Errorf("rejection reason %q, want %q", reason, reasonRateLimited)
	}
	if retry < 1 {
		t.Errorf("retry_after_seconds = %d, want >= 1 at 0.1 tokens/s", retry)
	}
	if n := getStats(t, ts).Admission.Rejected[reasonRateLimited]; n < 1 {
		t.Errorf("rejected[rate_limited] = %d, want >= 1", n)
	}
	s.Wait()
}

// The token bucket refills proportionally and prunes idle clients.
func TestRateLimiterBucketMath(t *testing.T) {
	rl := newRateLimiter(2, 2)
	now := time.Now()
	if ok, _ := rl.allow("a", now); !ok {
		t.Fatal("fresh bucket denied")
	}
	if ok, _ := rl.allow("a", now); !ok {
		t.Fatal("burst of 2 denied second token")
	}
	ok, retry := rl.allow("a", now)
	if ok {
		t.Fatal("empty bucket allowed")
	}
	if retry <= 0 || retry > time.Second {
		t.Errorf("retry hint %v, want (0, 1s] at 2 tokens/s", retry)
	}
	if ok, _ := rl.allow("a", now.Add(time.Second)); !ok {
		t.Error("bucket did not refill after 1s at 2/s")
	}
	if rl := newRateLimiter(0, 5); rl != nil {
		t.Error("zero rate should disable the limiter")
	}
	var nilRL *rateLimiter
	if ok, _ := nilRL.allow("x", now); !ok {
		t.Error("nil limiter must admit everything")
	}
}

// While draining, /api/health reports draining, submissions and the demo get
// 503 with reason draining, and status/results endpoints keep working.
func TestDrainingRejectsButServes(t *testing.T) {
	refFasta, readsFastq := testDataSmall(t)
	s := openServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	submitJob(t, s, ts, map[string]string{"backend": "cpu"},
		map[string][]byte{"reference": refFasta, "reads": readsFastq})
	s.Wait()
	s.BeginDrain()

	resp := postJob(t, ts, refFasta, readsFastq)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining submit returned %d, want 503", resp.StatusCode)
	}
	if reason, _ := decodeRejection(t, resp); reason != reasonDraining {
		t.Errorf("rejection reason %q, want %q", reason, reasonDraining)
	}
	dresp, err := http.Get(ts.URL + "/demo")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, dresp.Body)
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("draining demo returned %d, want 503", dresp.StatusCode)
	}

	hresp, err := http.Get(ts.URL + "/api/health")
	if err != nil {
		t.Fatal(err)
	}
	var health struct {
		Status   string `json:"status"`
		Draining bool   `json:"draining"`
	}
	if err := json.NewDecoder(hresp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if health.Status != "draining" || !health.Draining {
		t.Errorf("health = %+v, want status draining", health)
	}

	// Existing jobs stay reachable.
	if j := getJobJSON(t, ts, 1); j.State != string(StateDone) {
		t.Errorf("job 1 state %q while draining, want done", j.State)
	}
	if !getStats(t, ts).Admission.Draining {
		t.Error("stats do not report draining")
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain with no jobs in flight: %v", err)
	}
}

// Cancelling a terminal job is a 409 that names the state it already reached.
func TestCancelTerminalCarriesState(t *testing.T) {
	refFasta, readsFastq := testDataSmall(t)
	s := openServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	submitJob(t, s, ts, map[string]string{"backend": "cpu"},
		map[string][]byte{"reference": refFasta, "reads": readsFastq})
	s.Wait()

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/api/jobs/1", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("cancel of done job returned %d, want 409", resp.StatusCode)
	}
	var payload struct {
		Error string `json:"error"`
		ID    int    `json:"id"`
		State string `json:"state"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&payload); err != nil {
		t.Fatal(err)
	}
	if payload.State != string(StateDone) || payload.ID != 1 {
		t.Errorf("409 payload %+v, want state done for job 1", payload)
	}
}
