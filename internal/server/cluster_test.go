package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// TestEffectiveTimeout covers the budget-capping satellite fix: a forwarded
// submission's X-Bwaver-Timeout-Ms may only shrink the worker's own job
// timeout, never extend it, and garbage is ignored.
func TestEffectiveTimeout(t *testing.T) {
	withTimeout, err := Open(Config{JobTimeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer withTimeout.Close()
	unbounded, err := Open(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer unbounded.Close()

	cases := []struct {
		srv    *Server
		header string
		want   time.Duration
	}{
		{withTimeout, "", 5 * time.Second},
		{withTimeout, "100", 100 * time.Millisecond}, // tighter budget wins
		{withTimeout, "60000", 5 * time.Second},      // looser budget cannot extend
		{withTimeout, "garbage", 5 * time.Second},
		{withTimeout, "-50", 5 * time.Second},
		{withTimeout, "0", 5 * time.Second},
		{unbounded, "", 0},
		{unbounded, "250", 250 * time.Millisecond}, // budget bounds an unbounded server
	}
	for _, c := range cases {
		r := httptest.NewRequest(http.MethodPost, "/jobs", nil)
		if c.header != "" {
			r.Header.Set(TimeoutBudgetHeader, c.header)
		}
		if got := c.srv.effectiveTimeout(r); got != c.want {
			t.Errorf("effectiveTimeout(header=%q, cfg=%v) = %v, want %v",
				c.header, c.srv.cfg.JobTimeout, got, c.want)
		}
	}
}

// TestRingKeyDeterministic: the exported ring key is the index cache's alias
// key — a pure function of the reference upload's bytes (through their
// digest, whichever ingest route took it) and the index parameters.
func TestRingKeyDeterministic(t *testing.T) {
	refFasta, _, _ := testData(t)
	digest, err := bytesSpool(refFasta).digest()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "ref.fa")
	if err := os.WriteFile(path, refFasta, 0o644); err != nil {
		t.Fatal(err)
	}
	file, err := fileSpool(path)
	if err != nil {
		t.Fatal(err)
	}
	if fromFile, err := file.digest(); err != nil || fromFile != digest {
		t.Fatalf("digest of the payload file = %q, %v; of the bytes %q", fromFile, err, digest)
	}
	k1 := RingKey(digest, defaultB, defaultSF, 10)
	if k1 == "" || k1 != RingKey(digest, defaultB, defaultSF, 10) {
		t.Fatalf("RingKey not deterministic: %q", k1)
	}
	if RingKey(digest, defaultB+1, defaultSF, 10) == k1 {
		t.Fatal("RingKey ignores the RRR block size")
	}
	if RingKey(digest, defaultB, defaultSF+1, 10) == k1 || RingKey(digest, defaultB, defaultSF, 8) == k1 {
		t.Fatal("RingKey ignores the superblock factor or the prefix-table order")
	}
	other, err := bytesSpool(refFasta[:len(refFasta)-1]).digest()
	if err != nil {
		t.Fatal(err)
	}
	if RingKey(other, defaultB, defaultSF, 10) == k1 {
		t.Fatal("RingKey ignores the reference bytes")
	}
}

// TestHealthQueueFields: /api/health advertises the queue-pressure fields the
// gateway's heartbeat consumes, alongside the pre-existing payload.
func TestHealthQueueFields(t *testing.T) {
	s, err := Open(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/api/health")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"status", "draining", "queue_depth", "jobs_in_flight"} {
		if _, ok := m[key]; !ok {
			t.Errorf("/api/health lacks %q: %v", key, m)
		}
	}
	if qd, ok := m["queue_depth"].(float64); !ok || qd != 0 {
		t.Errorf("idle queue_depth = %v, want 0", m["queue_depth"])
	}
}

// TestRequestIDStamping: the server echoes a caller's X-Request-Id (or mints
// one) and records it on the job.
func TestRequestIDStamping(t *testing.T) {
	s, err := Open(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Minted when absent.
	resp, err := http.Get(ts.URL + "/api/health")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.Header.Get("X-Request-Id") == "" {
		t.Fatal("server did not mint an X-Request-Id")
	}

	// Echoed and attached to the job when supplied (the gateway's case).
	refFasta, readsFastq, _ := testData(t)
	body, ctype := buildUpload(t, map[string]string{"backend": "cpu"}, map[string][]byte{
		"reference": refFasta, "reads": readsFastq,
	})
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/jobs", body)
	req.Header.Set("Content-Type", ctype)
	req.Header.Set("Accept", "application/json")
	req.Header.Set("X-Request-Id", "gw-test-123")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var job map[string]any
	json.NewDecoder(resp.Body).Decode(&job)
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-Id"); got != "gw-test-123" {
		t.Fatalf("echoed X-Request-Id = %q, want the caller's", got)
	}
	if got, _ := job["request_id"].(string); got != "gw-test-123" {
		t.Fatalf("job record request_id = %q, want gw-test-123", got)
	}
}
