package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"mime/multipart"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bwaver/internal/fastx"
	"bwaver/internal/readsim"
	"bwaver/internal/server"
)

// testUpload renders a deterministic reference + read set sized for the test.
func testUpload(t *testing.T, length, seed int) (refFasta, readsFastq []byte) {
	t.Helper()
	ref, err := readsim.Genome(readsim.GenomeConfig{Length: length, Seed: int64(seed), RepeatFraction: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	sim, err := readsim.Simulate(ref, readsim.ReadsConfig{
		Count: 20, Length: 40, MappingRatio: 0.7, RevCompFraction: 0.5, Seed: int64(seed + 1),
	})
	if err != nil {
		t.Fatal(err)
	}
	var fb bytes.Buffer
	fw := fastx.NewWriter(&fb, fastx.FASTA, false)
	if err := fw.Write(&fastx.Record{ID: "clusterref", Seq: []byte(ref.String())}); err != nil {
		t.Fatal(err)
	}
	fw.Close()
	var qb bytes.Buffer
	qw := fastx.NewWriter(&qb, fastx.FASTQ, false)
	for _, r := range sim {
		if err := qw.Write(&fastx.Record{ID: r.ID, Seq: []byte(r.Seq.String())}); err != nil {
			t.Fatal(err)
		}
	}
	qw.Close()
	return fb.Bytes(), qb.Bytes()
}

// multipartJob builds a cpu-backend submission body.
func multipartJob(t *testing.T, refFasta, readsFastq []byte) (*bytes.Reader, string) {
	t.Helper()
	var buf bytes.Buffer
	mw := multipart.NewWriter(&buf)
	mw.WriteField("backend", "cpu")
	for name, data := range map[string][]byte{"reference": refFasta, "reads": readsFastq} {
		fw, err := mw.CreateFormFile(name, name+".txt")
		if err != nil {
			t.Fatal(err)
		}
		fw.Write(data)
	}
	mw.Close()
	return bytes.NewReader(buf.Bytes()), mw.FormDataContentType()
}

// newWorker runs a real server behind a real listener, like -mode=worker.
func newWorker(t *testing.T) *httptest.Server {
	t.Helper()
	s, err := server.Open(server.Config{MaxConcurrentJobs: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return ts
}

// newGateway builds a started gateway (with its own embedded local server)
// over the given worker URLs, tuned for fast test heartbeats.
func newGateway(t *testing.T, mod func(*Config), workers ...string) (*Gateway, *httptest.Server) {
	t.Helper()
	local, err := server.Open(server.Config{MaxConcurrentJobs: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(local.Close)
	cfg := Config{
		Workers:           workers,
		HeartbeatInterval: 20 * time.Millisecond,
		WorkerTimeout:     time.Second,
		MissThreshold:     2,
		Cooldown:          250 * time.Millisecond,
		RetryBase:         10 * time.Millisecond,
		Local:             local,
	}
	if mod != nil {
		mod(&cfg)
	}
	g, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	g.Start()
	t.Cleanup(g.Close)
	ts := httptest.NewServer(g.Handler())
	t.Cleanup(ts.Close)
	return g, ts
}

// waitHealthy blocks until the gateway sees the wanted number of healthy
// workers.
func waitHealthy(t *testing.T, g *Gateway, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if healthy, _ := g.reg.Counts(); healthy == want {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	healthy, total := g.reg.Counts()
	t.Fatalf("gateway never saw %d healthy workers (has %d/%d)", want, healthy, total)
}

// submitJSON posts a submission to the gateway with Accept: application/json
// and decodes the job payload.
func submitJSON(t *testing.T, base string, body *bytes.Reader, ctype string, hdr map[string]string) (map[string]any, *http.Response) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, base+"/jobs", body)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", ctype)
	req.Header.Set("Accept", "application/json")
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("submit returned %d: %.300s", resp.StatusCode, raw)
	}
	var m map[string]any
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatalf("submit response not JSON: %v\n%.300s", err, raw)
	}
	return m, resp
}

// waitGatewayJob polls the gateway's job status until ok(state).
func waitGatewayJob(t *testing.T, base string, id int, ok func(string) bool, timeout time.Duration) map[string]any {
	t.Helper()
	deadline := time.Now().Add(timeout)
	var last map[string]any
	for time.Now().Before(deadline) {
		resp, err := http.Get(fmt.Sprintf("%s/api/jobs/%d", base, id))
		if err == nil {
			var m map[string]any
			derr := json.NewDecoder(resp.Body).Decode(&m)
			resp.Body.Close()
			if derr == nil && resp.StatusCode == http.StatusOK {
				last = m
				if state, _ := m["state"].(string); ok(state) {
					return m
				}
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("gateway job %d never reached the wanted state; last: %v", id, last)
	return nil
}

func fetchResults(t *testing.T, base string, id int) []byte {
	t.Helper()
	resp, err := http.Get(fmt.Sprintf("%s/jobs/%d/results", base, id))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("results returned %d: %.200s", resp.StatusCode, body)
	}
	return body
}

// TestGatewayForwardAndProxy: a submission through the gateway lands on a
// worker, the gateway namespace tracks it (status, results, list, trace), and
// the request id threads through to the worker's job record.
func TestGatewayForwardAndProxy(t *testing.T) {
	w1, w2 := newWorker(t), newWorker(t)
	g, ts := newGateway(t, nil, w1.URL, w2.URL)
	waitHealthy(t, g, 2)

	ref, reads := testUpload(t, 5000, 42)
	body, ctype := multipartJob(t, ref, reads)
	job, resp := submitJSON(t, ts.URL, body, ctype, nil)
	if got := job["id"].(float64); got != 1 {
		t.Fatalf("gateway job id = %v, want 1", got)
	}
	owner, _ := job["worker"].(string)
	if owner != w1.URL && owner != w2.URL {
		t.Fatalf("job landed on %q, want one of the two workers", owner)
	}
	reqID := resp.Header.Get("X-Request-Id")
	if reqID == "" {
		t.Fatal("gateway response carries no X-Request-Id")
	}

	final := waitGatewayJob(t, ts.URL, 1, func(s string) bool { return s == "done" || s == "failed" }, 60*time.Second)
	if final["state"] != "done" {
		t.Fatalf("job finished %v: %v", final["state"], final["error"])
	}
	if final["worker"] != owner {
		t.Fatalf("job moved from %v to %v without a failure", owner, final["worker"])
	}
	if got, _ := final["request_id"].(string); got != reqID {
		t.Fatalf("worker job record carries request_id %q, want the gateway's %q", got, reqID)
	}

	viaGateway := fetchResults(t, ts.URL, 1)
	if !bytes.HasPrefix(viaGateway, []byte("read\t")) {
		t.Fatalf("results look wrong:\n%.200s", viaGateway)
	}
	// The same rows must come straight off the owning worker (remote job 1 on
	// a fresh worker).
	direct := fetchResults(t, owner, 1)
	if !bytes.Equal(viaGateway, direct) {
		t.Error("gateway-proxied results differ from the worker's own")
	}

	// The gateway list shows the job under its gateway id and owner.
	lresp, err := http.Get(ts.URL + "/api/jobs")
	if err != nil {
		t.Fatal(err)
	}
	var list []map[string]any
	json.NewDecoder(lresp.Body).Decode(&list)
	lresp.Body.Close()
	if len(list) != 1 || list[0]["id"].(float64) != 1 || list[0]["worker"] != owner {
		t.Fatalf("gateway job list = %v", list)
	}

	// The trace proxies through and is stamped with the request id.
	tresp, err := http.Get(ts.URL + "/api/jobs/1/trace")
	if err != nil {
		t.Fatal(err)
	}
	traw, _ := io.ReadAll(tresp.Body)
	tresp.Body.Close()
	if tresp.StatusCode != http.StatusOK {
		t.Fatalf("trace returned %d: %.200s", tresp.StatusCode, traw)
	}
	if !bytes.Contains(traw, []byte(reqID)) {
		t.Errorf("trace does not mention request id %s:\n%.300s", reqID, traw)
	}
}

// TestGatewayIdempotentReplay: re-submitting with the same Idempotency-Key
// returns the same gateway job with the replay marker, not a second job.
func TestGatewayIdempotentReplay(t *testing.T) {
	w1 := newWorker(t)
	g, ts := newGateway(t, nil, w1.URL)
	waitHealthy(t, g, 1)

	ref, reads := testUpload(t, 5000, 43)
	body, ctype := multipartJob(t, ref, reads)
	job, _ := submitJSON(t, ts.URL, body, ctype, map[string]string{"Idempotency-Key": "same-key"})
	id := int(job["id"].(float64))

	body2, ctype2 := multipartJob(t, ref, reads)
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/jobs", body2)
	req.Header.Set("Content-Type", ctype2)
	req.Header.Set("Accept", "application/json")
	req.Header.Set("Idempotency-Key", "same-key")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var replay map[string]any
	json.NewDecoder(resp.Body).Decode(&replay)
	resp.Body.Close()
	if resp.Header.Get("Idempotency-Replayed") != "true" {
		t.Error("replay response lacks Idempotency-Replayed: true")
	}
	if got := int(replay["id"].(float64)); got != id {
		t.Fatalf("replay returned job %d, want %d", got, id)
	}
	waitGatewayJob(t, ts.URL, id, func(s string) bool { return s == "done" }, 60*time.Second)
}

// TestGatewayMidJobFailover: SIGKILL-equivalent (listener torn down) on the
// owning worker mid-job; the heartbeat sweep must evict it and re-run the
// retained submission on the surviving replica, bit-identically.
func TestGatewayMidJobFailover(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second mapping job")
	}
	w1, w2 := newWorker(t), newWorker(t)
	g, ts := newGateway(t, nil, w1.URL, w2.URL)
	waitHealthy(t, g, 2)

	ref, reads := testUpload(t, 250_000, 44)
	body, ctype := multipartJob(t, ref, reads)
	job, _ := submitJSON(t, ts.URL, body, ctype, nil)
	owner, _ := job["worker"].(string)
	survivor := w1
	victim := w2
	if owner == w1.URL {
		survivor, victim = w2, w1
	}
	victim.CloseClientConnections()
	victim.Close()

	final := waitGatewayJob(t, ts.URL, 1, func(s string) bool { return s == "done" || s == "failed" }, 90*time.Second)
	if final["state"] != "done" {
		t.Fatalf("job finished %v after failover: %v", final["state"], final["error"])
	}
	if final["worker"] != survivor.URL {
		t.Fatalf("job finished on %v, want the survivor %s", final["worker"], survivor.URL)
	}
	if fo, _ := final["failovers"].(float64); fo < 1 {
		t.Fatalf("job record reports %v failovers, want >= 1", final["failovers"])
	}
	viaGateway := fetchResults(t, ts.URL, 1)

	// Ground truth: the same upload run directly on the survivor maps
	// bit-identically.
	body2, ctype2 := multipartJob(t, ref, reads)
	req, _ := http.NewRequest(http.MethodPost, survivor.URL+"/jobs", body2)
	req.Header.Set("Content-Type", ctype2)
	req.Header.Set("Accept", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var direct map[string]any
	json.NewDecoder(resp.Body).Decode(&direct)
	resp.Body.Close()
	directID := int(direct["id"].(float64))
	deadline := time.Now().Add(90 * time.Second)
	for {
		resp, err := http.Get(fmt.Sprintf("%s/api/jobs/%d", survivor.URL, directID))
		state := ""
		if err == nil {
			var m map[string]any
			json.NewDecoder(resp.Body).Decode(&m)
			resp.Body.Close()
			state, _ = m["state"].(string)
		}
		if state == "done" {
			break
		}
		if state == "failed" || time.Now().After(deadline) {
			t.Fatalf("verification job state %q", state)
		}
		time.Sleep(20 * time.Millisecond)
	}
	groundTruth := fetchResults(t, survivor.URL, directID)
	if !bytes.Equal(viaGateway, groundTruth) {
		t.Error("failed-over results differ from a direct run of the same upload")
	}

	// The eviction is visible in cluster health.
	hresp, err := http.Get(ts.URL + "/api/health")
	if err != nil {
		t.Fatal(err)
	}
	var health map[string]any
	json.NewDecoder(hresp.Body).Decode(&health)
	hresp.Body.Close()
	if ev, _ := health["evictions"].(float64); ev < 1 {
		t.Errorf("health reports %v evictions, want >= 1", health["evictions"])
	}
}

// TestGatewayDegradedLocal: with zero workers the gateway reports "degraded"
// and serves jobs itself through the embedded standalone server, which every
// gateway path (submit, replay, status, results, stream, list, stats,
// metrics) reaches like any worker.
func TestGatewayDegradedLocal(t *testing.T) {
	_, ts := newGateway(t, nil)

	hresp, err := http.Get(ts.URL + "/api/health")
	if err != nil {
		t.Fatal(err)
	}
	var health map[string]any
	json.NewDecoder(hresp.Body).Decode(&health)
	hresp.Body.Close()
	if health["status"] != "degraded" || health["role"] != "gateway" {
		t.Fatalf("health = %v, want degraded gateway", health)
	}

	ref, reads := testUpload(t, 5000, 45)
	body, ctype := multipartJob(t, ref, reads)
	idem := map[string]string{"Idempotency-Key": "degraded-key"}
	job, _ := submitJSON(t, ts.URL, body, ctype, idem)
	if job["worker"] != "local" {
		t.Fatalf("degraded submission served by %v, want local", job["worker"])
	}
	final := waitGatewayJob(t, ts.URL, 1, func(s string) bool { return s == "done" || s == "failed" }, 60*time.Second)
	if final["state"] != "done" || final["worker"] != "local" {
		t.Fatalf("local job finished %v on %v: %v", final["state"], final["worker"], final["error"])
	}
	res := fetchResults(t, ts.URL, 1)
	if !bytes.HasPrefix(res, []byte("read\t")) {
		t.Fatalf("local results look wrong:\n%.200s", res)
	}

	body, ctype = multipartJob(t, ref, reads)
	replay, resp := submitJSON(t, ts.URL, body, ctype, idem)
	if resp.Header.Get("Idempotency-Replayed") != "true" || replay["id"].(float64) != 1 || replay["worker"] != "local" {
		t.Fatalf("replayed local submission: %v (replayed header %q)", replay, resp.Header.Get("Idempotency-Replayed"))
	}

	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/api/jobs/1/stream", nil)
	req.Header.Set("Accept", "application/x-ndjson")
	sresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	stream, _ := io.ReadAll(sresp.Body)
	sresp.Body.Close()
	lines := strings.Split(strings.TrimSuffix(string(stream), "\n"), "\n")
	rows := bytes.Count(res, []byte("\n")) - 1 // less the TSV header
	if len(lines) != rows+1 || !strings.HasPrefix(lines[len(lines)-1], `{"event":"done"`) {
		t.Fatalf("local NDJSON stream has %d lines for %d rows, last %q", len(lines), rows, lines[len(lines)-1])
	}

	var list []map[string]any
	getJSON(t, ts.URL+"/api/jobs", &list)
	if len(list) != 1 || list[0]["id"].(float64) != 1 || list[0]["worker"] != "local" {
		t.Fatalf("gateway job list = %v", list)
	}
	var stats map[string]any
	getJSON(t, ts.URL+"/api/stats", &stats)
	if local, _ := stats["local"].(map[string]any); local == nil || local["error"] != nil {
		t.Fatalf("stats local block = %v", stats["local"])
	}
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if !bytes.Contains(metrics, []byte(`worker="local"`)) || !bytes.Contains(metrics, []byte("bwaver_gateway_local_jobs_total 1")) {
		t.Fatalf("merged metrics lack the local server's series or the fallback count:\n%.400s", metrics)
	}
}

// getJSON GETs url and decodes a 200 answer into v.
func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: HTTP %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
}

// fakeWorker is a scriptable worker endpoint: healthy heartbeats, a custom
// submission handler, and a stats handler.
func fakeWorker(t *testing.T, submit http.HandlerFunc, stats http.HandlerFunc) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("/api/health", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		io.WriteString(w, `{"status":"ok","draining":false,"queue_depth":0,"jobs_in_flight":0}`)
	})
	if submit != nil {
		mux.HandleFunc("POST /jobs", submit)
	}
	if stats != nil {
		mux.HandleFunc("/api/stats", stats)
	}
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts
}

// TestGatewayDeadlinePropagation is the satellite-fix regression test: a
// retried forward must carry deadline-minus-elapsed, not a fresh budget.
func TestGatewayDeadlinePropagation(t *testing.T) {
	var calls atomic.Int64
	var mu sync.Mutex
	budgets := map[int64]int64{} // call # -> X-Bwaver-Timeout-Ms
	idemKeys := map[int64]string{}
	submit := func(w http.ResponseWriter, r *http.Request) {
		n := calls.Add(1)
		ms, _ := io.ReadAll(io.LimitReader(strings.NewReader(r.Header.Get(server.TimeoutBudgetHeader)), 64))
		var v int64
		fmt.Sscanf(string(ms), "%d", &v)
		mu.Lock()
		budgets[n] = v
		idemKeys[n] = r.Header.Get("Idempotency-Key")
		mu.Unlock()
		if n == 1 {
			// First attempt: shed the job so the gateway retries on the next
			// replica after backoff.
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		io.WriteString(w, `{"id":7,"state":"queued"}`)
	}
	f1 := fakeWorker(t, submit, nil)
	f2 := fakeWorker(t, submit, nil)
	g, ts := newGateway(t, func(c *Config) {
		c.JobTimeout = 5 * time.Second
		c.RetryBase = 60 * time.Millisecond
	}, f1.URL, f2.URL)
	waitHealthy(t, g, 2)

	ref, reads := testUpload(t, 5000, 46)
	body, ctype := multipartJob(t, ref, reads)
	job, _ := submitJSON(t, ts.URL, body, ctype, nil)
	if got := int(job["id"].(float64)); got != 1 {
		t.Fatalf("gateway job id = %d, want 1", got)
	}

	mu.Lock()
	defer mu.Unlock()
	if calls.Load() != 2 {
		t.Fatalf("fake workers saw %d submissions, want 2 (one rejection, one accept)", calls.Load())
	}
	b1, b2 := budgets[1], budgets[2]
	if b1 <= 0 || b1 > 5001 {
		t.Fatalf("first attempt budget %dms, want (0, 5001]", b1)
	}
	if b2 >= b1 {
		t.Fatalf("retry budget %dms did not shrink from the first attempt's %dms", b2, b1)
	}
	// The backoff alone burns >= 60ms of the budget.
	if b1-b2 < 50 {
		t.Errorf("retry budget shrank only %dms; elapsed time is not being subtracted", b1-b2)
	}
	if idemKeys[1] == "" || idemKeys[1] != idemKeys[2] {
		t.Fatalf("attempts carried different idempotency keys: %q vs %q", idemKeys[1], idemKeys[2])
	}
}

// TestGatewayRetryDelayCapped: the wait between forward attempts stays
// positive and within [1, 1.5]× its capped nominal at every attempt; a bare
// RetryBase << (attempt-1) goes negative at attempt 39 with the 50 ms default
// and the jitter draw panics.
func TestGatewayRetryDelayCapped(t *testing.T) {
	g := &Gateway{cfg: Config{}.withDefaults()}
	for attempt := 1; attempt <= 64; attempt++ {
		nominal := time.Duration(math.Min(float64(g.cfg.RetryBase)*math.Pow(2, float64(attempt-1)), float64(maxForwardBackoff)))
		if d := g.retryDelay(attempt); d < nominal || d > nominal*3/2 {
			t.Fatalf("attempt %d: delay %v outside [%v, %v]", attempt, d, nominal, nominal*3/2)
		}
	}
}

// TestGatewayScatterGatherHungWorker: one hung worker costs a stats scrape at
// most WorkerTimeout and shows up as an error entry, not a stall.
func TestGatewayScatterGatherHungWorker(t *testing.T) {
	hung := fakeWorker(t, nil, func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-r.Context().Done(): // the gateway's per-worker timeout fired
		case <-time.After(10 * time.Second):
		}
	})
	g, ts := newGateway(t, func(c *Config) {
		c.WorkerTimeout = 200 * time.Millisecond
	}, hung.URL)
	waitHealthy(t, g, 1)

	start := time.Now()
	resp, err := http.Get(ts.URL + "/api/stats")
	if err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	var stats map[string]any
	json.NewDecoder(resp.Body).Decode(&stats)
	resp.Body.Close()
	if elapsed > 1500*time.Millisecond {
		t.Fatalf("stats scrape took %v with one hung worker, want ~WorkerTimeout", elapsed)
	}
	workers, _ := stats["workers"].(map[string]any)
	entry, _ := workers[hung.URL].(map[string]any)
	if msg, _ := entry["error"].(string); msg == "" {
		t.Fatalf("hung worker's stats entry carries no error: %v", workers)
	}
	if _, ok := stats["local"]; !ok {
		t.Fatal("scatter response lacks the local stats block")
	}
	if _, ok := stats["cluster"]; !ok {
		t.Fatal("scatter response lacks the cluster counters block")
	}
}

// TestGatewayRegisterValidation: the register API rejects junk and admits
// well-formed workers idempotently.
func TestGatewayRegisterValidation(t *testing.T) {
	g, ts := newGateway(t, nil)
	for _, bad := range []string{`{"url":""}`, `{"url":"not-a-url"}`, `nonsense`} {
		resp, err := http.Post(ts.URL+"/cluster/register", "application/json", strings.NewReader(bad))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("register %q returned %d, want 400", bad, resp.StatusCode)
		}
	}
	for i := 0; i < 2; i++ {
		resp, err := http.Post(ts.URL+"/cluster/register", "application/json",
			strings.NewReader(`{"url":"http://127.0.0.1:1/"}`))
		if err != nil {
			t.Fatal(err)
		}
		var out map[string]any
		json.NewDecoder(resp.Body).Decode(&out)
		resp.Body.Close()
		if out["registered"] != true || out["workers"].(float64) != 1 {
			t.Fatalf("register attempt %d: %v", i, out)
		}
	}
	if got := g.reg.Workers(); len(got) != 1 || got[0] != "http://127.0.0.1:1" {
		t.Fatalf("registry = %v", got)
	}
}
