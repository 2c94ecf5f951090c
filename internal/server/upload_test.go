package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// doJSON issues a request with an optional body and decodes the JSON reply.
func doJSON(t *testing.T, method, url string, body []byte, headers map[string]string) (int, map[string]any, http.Header) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range headers {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	payload := map[string]any{}
	if len(bytes.TrimSpace(raw)) > 0 {
		if err := json.Unmarshal(raw, &payload); err != nil {
			t.Fatalf("%s %s: non-JSON reply (%d): %s", method, url, resp.StatusCode, raw)
		}
	}
	return resp.StatusCode, payload, resp.Header
}

// putChunk uploads one chunk and returns the status and reply.
func putChunk(t *testing.T, ts *httptest.Server, id int, part string, offset int64, data []byte) (int, map[string]any) {
	t.Helper()
	url := fmt.Sprintf("%s/api/jobs/%d/%s", ts.URL, id, part)
	if offset >= 0 {
		url += fmt.Sprintf("?offset=%d", offset)
	}
	code, payload, _ := doJSON(t, http.MethodPut, url, data, nil)
	return code, payload
}

// chunkedSubmit drives the full streaming protocol: create, upload both parts
// in pieces, finalize. Returns the job id.
func chunkedSubmit(t *testing.T, ts *httptest.Server, refFasta, readsFastq []byte, chunk int) int {
	t.Helper()
	code, created, _ := doJSON(t, http.MethodPost, ts.URL+"/api/jobs",
		[]byte(`{"backend":"cpu"}`), map[string]string{"Content-Type": "application/json"})
	if code != http.StatusCreated {
		t.Fatalf("create returned %d: %v", code, created)
	}
	id := int(created["id"].(float64))
	for part, data := range map[string][]byte{"reference": refFasta, "reads": readsFastq} {
		for off := 0; off < len(data); off += chunk {
			end := off + chunk
			if end > len(data) {
				end = len(data)
			}
			if code, payload := putChunk(t, ts, id, part, int64(off), data[off:end]); code != http.StatusOK {
				t.Fatalf("chunk %s@%d returned %d: %v", part, off, code, payload)
			}
		}
	}
	code, payload, _ := doJSON(t, http.MethodPost, fmt.Sprintf("%s/api/jobs/%d/finalize", ts.URL, id), nil, nil)
	if code != http.StatusAccepted {
		t.Fatalf("finalize returned %d: %v", code, payload)
	}
	return id
}

// The streaming protocol end to end: a job fed chunk by chunk produces the
// same TSV, byte for byte, as the buffered multipart path.
func TestChunkedUploadMatchesBuffered(t *testing.T) {
	refFasta, readsFastq := testDataSmall(t)
	s := openServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	submitJob(t, s, ts, map[string]string{"backend": "cpu"},
		map[string][]byte{"reference": refFasta, "reads": readsFastq})
	waitForState(t, ts, 1, stateDone)
	golden := fetchResults(t, ts, 1)

	id := chunkedSubmit(t, ts, refFasta, readsFastq, 777)
	waitForState(t, ts, id, stateDone)
	if got := fetchResults(t, ts, id); !bytes.Equal(got, golden) {
		t.Error("chunked job results differ from the buffered run")
	}
	if st := getStats(t, ts); st.QueueDepth != 0 {
		t.Errorf("queue depth %d after completion, want 0", st.QueueDepth)
	}
}

// Resume semantics: the committed offset is the resync anchor. Omitted
// offsets append, duplicates ACK idempotently, gaps and straddles are 409
// with the committed offset the client should retry from.
func TestChunkedUploadResume(t *testing.T) {
	s := openServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	code, created, _ := doJSON(t, http.MethodPost, ts.URL+"/api/jobs",
		[]byte(`{"backend":"cpu","b":15,"sf":50}`), map[string]string{"Content-Type": "application/json"})
	if code != http.StatusCreated {
		t.Fatalf("create returned %d", code)
	}
	id := int(created["id"].(float64))
	if created["reference_offset"].(float64) != 0 || created["reads_offset"].(float64) != 0 {
		t.Fatalf("fresh job offsets not zero: %v", created)
	}

	if code, payload := putChunk(t, ts, id, "reference", -1, []byte(">r\nACGT")); code != http.StatusOK || payload["offset"].(float64) != 7 {
		t.Fatalf("append without offset: %d %v", code, payload)
	}
	// Exact duplicate (lost ACK): idempotent 200 carrying the committed extent.
	if code, payload := putChunk(t, ts, id, "reference", 0, []byte(">r\nACG")); code != http.StatusOK || payload["offset"].(float64) != 7 {
		t.Fatalf("duplicate retransmit: %d %v", code, payload)
	}
	// Gap: past the committed extent.
	if code, payload := putChunk(t, ts, id, "reference", 99, []byte("x")); code != http.StatusConflict ||
		payload["reason"] != reasonBadOffset || payload["committed_offset"].(float64) != 7 {
		t.Fatalf("gap offset: %d %v", code, payload)
	}
	// Straddle: starts inside the committed extent but runs past it.
	if code, payload := putChunk(t, ts, id, "reference", 4, []byte("ACGTTTTT")); code != http.StatusConflict || payload["reason"] != reasonBadOffset {
		t.Fatalf("straddling chunk: %d %v", code, payload)
	}
	// The job JSON exposes the resume anchors while uploading.
	j := getJobJSON(t, ts, id)
	if j.State != string(stateUploading) || j.ReferenceOffset == nil || *j.ReferenceOffset != 7 {
		t.Fatalf("uploading job JSON lacks offsets: %+v", j)
	}

	// Finalize before reads arrived: structured 400 with both offsets.
	code, payload, _ := doJSON(t, http.MethodPost, fmt.Sprintf("%s/api/jobs/%d/finalize", ts.URL, id), nil, nil)
	if code != http.StatusBadRequest || payload["reason"] != reasonEmptyPayload {
		t.Fatalf("premature finalize: %d %v", code, payload)
	}
}

func TestChunkedUploadValidation(t *testing.T) {
	s := openServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if code, _, _ := doJSON(t, http.MethodPost, ts.URL+"/api/jobs",
		[]byte(`{"backend":"gpu"}`), map[string]string{"Content-Type": "application/json"}); code != http.StatusBadRequest {
		t.Errorf("bad backend accepted: %d", code)
	}
	if code, _, _ := doJSON(t, http.MethodPost, ts.URL+"/api/jobs",
		[]byte(`{"mismatches":99}`), map[string]string{"Content-Type": "application/json"}); code != http.StatusBadRequest {
		t.Errorf("excessive mismatch budget accepted: %d", code)
	}
	if code, _ := putChunk(t, ts, 999, "reads", -1, []byte("x")); code != http.StatusNotFound {
		t.Errorf("chunk to missing job returned %d", code)
	}

	// A buffered job never accepts chunks or finalize.
	job := queueJob(t, s, cpuParams, "x")
	if code, payload := putChunk(t, ts, job.ID, "reads", -1, []byte("x")); code != http.StatusConflict || payload["reason"] != reasonWrongState {
		t.Errorf("chunk to queued job: %d %v", code, payload)
	}
	code, payload, _ := doJSON(t, http.MethodPost, fmt.Sprintf("%s/api/jobs/%d/finalize", ts.URL, job.ID), nil, nil)
	if code != http.StatusConflict || payload["reason"] != reasonWrongState {
		t.Errorf("finalize of buffered job: %d %v", code, payload)
	}
}

// Finalize is idempotent: repeating it after the job queued (or finished)
// reports the job's current state instead of erroring, and late chunks are
// refused with the job's state.
func TestFinalizeIdempotent(t *testing.T) {
	refFasta, readsFastq := testDataSmall(t)
	s := openServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	id := chunkedSubmit(t, ts, refFasta, readsFastq, 1<<20)
	waitForState(t, ts, id, stateDone)

	code, payload, _ := doJSON(t, http.MethodPost, fmt.Sprintf("%s/api/jobs/%d/finalize", ts.URL, id), nil, nil)
	if code != http.StatusOK || payload["state"] != string(stateDone) {
		t.Errorf("repeated finalize: %d %v", code, payload)
	}
	if code, payload := putChunk(t, ts, id, "reads", -1, []byte("late")); code != http.StatusConflict || payload["reason"] != reasonWrongState {
		t.Errorf("late chunk: %d %v", code, payload)
	}
}

// An oversized upload is shed with the structured admission envelope and the
// job fails immediately, freeing its queue slot.
func TestUploadTooLargeShedsJob(t *testing.T) {
	s := openServer(t, Config{MaxUploadBytes: 64})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	code, created, _ := doJSON(t, http.MethodPost, ts.URL+"/api/jobs",
		[]byte(`{"backend":"cpu"}`), map[string]string{"Content-Type": "application/json"})
	if code != http.StatusCreated {
		t.Fatalf("create returned %d", code)
	}
	id := int(created["id"].(float64))

	code, payload := putChunk(t, ts, id, "reference", -1, bytes.Repeat([]byte("A"), 128))
	if code != http.StatusRequestEntityTooLarge || payload["reason"] != reasonTooLarge {
		t.Fatalf("oversized chunk: %d %v", code, payload)
	}
	if payload["retry_after_seconds"] == nil {
		t.Error("oversized rejection missing retry_after_seconds")
	}
	if j := getJobJSON(t, ts, id); j.State != string(stateFailed) {
		t.Errorf("oversized job state %q, want failed", j.State)
	}
	if st := getStats(t, ts); st.QueueDepth != 0 {
		t.Errorf("queue depth %d after shed, want 0", st.QueueDepth)
	}
}

// A retransmit of already-committed bytes must be ACKed idempotently even
// when the upload sits at the size cap: the cap charges only bytes that
// extend the committed extent. Regression test — the cap used to be applied
// before the duplicate check, so a lost-ACK retry at the cap failed the whole
// job as too_large.
func TestRetransmitAtCapIsIdempotent(t *testing.T) {
	chunk := bytes.Repeat([]byte("A"), 64)
	s := openServer(t, Config{MaxUploadBytes: int64(len(chunk))})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	code, created, _ := doJSON(t, http.MethodPost, ts.URL+"/api/jobs",
		[]byte(`{"backend":"cpu"}`), map[string]string{"Content-Type": "application/json"})
	if code != http.StatusCreated {
		t.Fatalf("create returned %d", code)
	}
	id := int(created["id"].(float64))

	if code, payload := putChunk(t, ts, id, "reference", 0, chunk); code != http.StatusOK {
		t.Fatalf("chunk to the cap: %d %v", code, payload)
	}
	// The ACK was "lost"; the client re-sends the same chunk at offset 0.
	code, payload := putChunk(t, ts, id, "reference", 0, chunk)
	if code != http.StatusOK || int64(payload["offset"].(float64)) != int64(len(chunk)) {
		t.Fatalf("retransmit at the cap: %d %v, want idempotent ACK", code, payload)
	}
	if j := getJobJSON(t, ts, id); j.State != string(stateUploading) {
		t.Errorf("job state %q after retransmit, want uploading", j.State)
	}
	// A chunk that genuinely extends past the cap still sheds the job.
	if code, payload := putChunk(t, ts, id, "reference", int64(len(chunk)), []byte("B")); code != http.StatusRequestEntityTooLarge || payload["reason"] != reasonTooLarge {
		t.Errorf("extending past the cap: %d %v", code, payload)
	}
}

// The janitor frees slots held by clients that walked away mid-upload.
func TestStalledUploadSwept(t *testing.T) {
	s := openServer(t, Config{UploadTimeout: time.Minute})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	code, created, _ := doJSON(t, http.MethodPost, ts.URL+"/api/jobs",
		[]byte(`{"backend":"cpu"}`), map[string]string{"Content-Type": "application/json"})
	if code != http.StatusCreated {
		t.Fatalf("create returned %d", code)
	}
	id := int(created["id"].(float64))

	if n := s.sweepStalledUploads(time.Now()); n != 0 {
		t.Fatalf("fresh upload swept: %d", n)
	}
	if n := s.sweepStalledUploads(time.Now().Add(2 * time.Minute)); n != 1 {
		t.Fatalf("stalled sweep failed %d uploads, want 1", n)
	}
	if j := getJobJSON(t, ts, id); j.State != string(stateFailed) || !strings.Contains(j.Error, "stalled") {
		t.Errorf("swept job %q (%q), want failed/stalled", j.State, j.Error)
	}
	if st := getStats(t, ts); st.QueueDepth != 0 {
		t.Errorf("queue depth %d after sweep, want 0", st.QueueDepth)
	}
}

// An Idempotency-Key makes submission retries safe: the retry gets the
// original job back (marked as a replay) instead of running it twice, on both
// the buffered and the chunked path.
func TestIdempotentSubmission(t *testing.T) {
	refFasta, readsFastq := testDataSmall(t)
	s := openServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	post := func(key string) (int, jobJSON, http.Header) {
		body, ctype := buildUpload(t, map[string]string{"backend": "cpu"},
			map[string][]byte{"reference": refFasta, "reads": readsFastq})
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/jobs", body)
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", ctype)
		req.Header.Set("Accept", "application/json")
		req.Header.Set("Idempotency-Key", key)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var j jobJSON
		if err := json.NewDecoder(resp.Body).Decode(&j); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, j, resp.Header
	}

	code, first, hdr := post("retry-me")
	if code != http.StatusOK || hdr.Get("Idempotency-Replayed") != "" {
		t.Fatalf("first submit: %d replayed=%q", code, hdr.Get("Idempotency-Replayed"))
	}
	code, second, hdr := post("retry-me")
	if code != http.StatusOK || second.ID != first.ID || hdr.Get("Idempotency-Replayed") != "true" {
		t.Fatalf("retry got job %d (code %d, replayed %q), want replay of %d",
			second.ID, code, hdr.Get("Idempotency-Replayed"), first.ID)
	}
	// The key survives the job finishing: a late retry still replays.
	s.Wait()
	if code, late, _ := post("retry-me"); code != http.StatusOK || late.ID != first.ID || late.State != string(stateDone) {
		t.Fatalf("late retry: %d %+v", code, late)
	}
	// A different key is a different job.
	if _, other, _ := post("another"); other.ID == first.ID {
		t.Error("distinct key replayed the old job")
	}

	// Chunked create replays too, committed offsets included.
	hdrs := map[string]string{"Content-Type": "application/json", "Idempotency-Key": "chunky"}
	code, created, _ := doJSON(t, http.MethodPost, ts.URL+"/api/jobs", []byte(`{"backend":"cpu"}`), hdrs)
	if code != http.StatusCreated {
		t.Fatalf("chunked create: %d", code)
	}
	id := int(created["id"].(float64))
	putChunk(t, ts, id, "reference", -1, []byte(">r\nACGT\n"))
	code, replay, rh := doJSON(t, http.MethodPost, ts.URL+"/api/jobs", []byte(`{"backend":"cpu"}`), hdrs)
	if code != http.StatusOK || int(replay["id"].(float64)) != id || rh.Get("Idempotency-Replayed") != "true" {
		t.Fatalf("chunked replay: %d %v", code, replay)
	}
	if replay["reference_offset"].(float64) != 8 {
		t.Errorf("replayed create lost the committed offset: %v", replay)
	}
}

// The limiter answer must be accurate at low refill rates — a client told
// retry_after_seconds=1 against a 0.1/s bucket would hammer the server ten
// times per admitted token.
func TestRateLimitRetryAfterAccuracy(t *testing.T) {
	rl := newRateLimiter(0.1, 1)
	now := time.Now()
	if ok, _ := rl.allow("c", now); !ok {
		t.Fatal("burst token refused")
	}
	ok, retry := rl.allow("c", now)
	if ok {
		t.Fatal("empty bucket admitted")
	}
	if retry < 9*time.Second || retry > 11*time.Second {
		t.Fatalf("retryAfter = %v, want ~10s at 0.1 tokens/s", retry)
	}
	rec := httptest.NewRecorder()
	writeAdmissionError(rec, &admissionError{
		status: http.StatusTooManyRequests, reason: reasonRateLimited,
		msg: "client rate limit exceeded", retryAfter: retry,
	})
	var payload struct {
		Retry int `json:"retry_after_seconds"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &payload); err != nil {
		t.Fatal(err)
	}
	if payload.Retry != 10 || rec.Header().Get("Retry-After") != "10" {
		t.Errorf("envelope retry %d header %q, want 10", payload.Retry, rec.Header().Get("Retry-After"))
	}
	// Half-refilled: ~5s remain.
	if _, retry := rl.allow("c", now.Add(5*time.Second)); retry < 4*time.Second || retry > 6*time.Second {
		t.Errorf("half-refilled retryAfter = %v, want ~5s", retry)
	}
}

// The prune path: once the bucket map crosses pruneAbove, fully-refilled idle
// buckets are dropped, while an active client's half-empty bucket survives.
func TestRateLimiterPrunesIdleBuckets(t *testing.T) {
	rl := newRateLimiter(1, 2)
	base := time.Now()
	for i := 0; i < pruneAbove; i++ {
		rl.allow(fmt.Sprintf("idle-%d", i), base)
	}
	// Active client drains its bucket just before the prune trigger: not yet
	// refilled at base+1s, so it must be kept.
	rl.allow("active", base.Add(time.Second))
	rl.allow("active", base.Add(time.Second))

	rl.mu.Lock()
	grown := len(rl.buckets)
	rl.mu.Unlock()
	if grown <= pruneAbove {
		t.Fatalf("bucket map holds %d entries, expected growth past %d", grown, pruneAbove)
	}

	// 2s after base the idle buckets have refilled (1 token/s toward burst 2,
	// one taken) and a newcomer trips the prune; the active bucket is only 1s
	// idle and still short two tokens, so it stays.
	if ok, _ := rl.allow("newcomer", base.Add(2*time.Second)); !ok {
		t.Fatal("newcomer refused")
	}
	rl.mu.Lock()
	kept := len(rl.buckets)
	_, activeKept := rl.buckets["active"]
	rl.mu.Unlock()
	if kept > 2 {
		t.Errorf("prune left %d buckets, want <= 2 (active + newcomer)", kept)
	}
	if !activeKept {
		t.Error("prune dropped the still-draining active bucket")
	}
}

// X-Forwarded-For is only believed when the direct peer is a configured
// trusted proxy, and then only the rightmost untrusted hop counts.
func TestClientKeyTrustedProxies(t *testing.T) {
	if _, err := parseTrustedProxies("not-an-ip"); err == nil {
		t.Error("garbage proxy spec accepted")
	}
	nets, err := parseTrustedProxies("10.0.0.0/8, 192.168.1.1")
	if err != nil {
		t.Fatal(err)
	}
	s := openServer(t, Config{})
	s.trustedProxies = nets

	req := func(remote, xff string) *http.Request {
		r := httptest.NewRequest(http.MethodPost, "/jobs", nil)
		r.RemoteAddr = remote
		if xff != "" {
			r.Header.Set("X-Forwarded-For", xff)
		}
		return r
	}
	cases := []struct {
		remote, xff, want string
	}{
		// Peer is our proxy: rightmost untrusted hop is the client.
		{"10.1.2.3:9999", "1.2.3.4", "1.2.3.4"},
		{"10.1.2.3:9999", "6.6.6.6, 1.2.3.4, 192.168.1.1", "1.2.3.4"},
		// Whole chain is our proxies, or empty: fall back to the peer.
		{"10.1.2.3:9999", "10.9.9.9", "10.1.2.3"},
		{"10.1.2.3:9999", "", "10.1.2.3"},
		// Garbage in the chain must not mint arbitrary keys.
		{"10.1.2.3:9999", "6.6.6.6, zzz", "10.1.2.3"},
		// Untrusted peer: the header is attacker-controlled, ignore it.
		{"9.9.9.9:1234", "1.2.3.4", "9.9.9.9"},
	}
	for _, c := range cases {
		if got := s.clientKey(req(c.remote, c.xff)); got != c.want {
			t.Errorf("clientKey(%s, XFF=%q) = %q, want %q", c.remote, c.xff, got, c.want)
		}
	}

	// Default config: header never trusted.
	s2 := openServer(t, Config{})
	if got := s2.clientKey(req("10.1.2.3:9999", "1.2.3.4")); got != "10.1.2.3" {
		t.Errorf("default clientKey trusted the header: %q", got)
	}
}

// Serving-path content negotiation: endpoints shared by the HTML forms and
// the API answer errors in the shape the client asked for, and TSV downloads
// carry an exact Content-Length.
func TestErrorNegotiationAndContentLength(t *testing.T) {
	refFasta, readsFastq := testDataSmall(t)
	s := openServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	job := queueJob(t, s, cpuParams, "x")

	get := func(url, accept string) (*http.Response, []byte) {
		req, _ := http.NewRequest(http.MethodGet, url, nil)
		if accept != "" {
			req.Header.Set("Accept", accept)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp, body
	}

	url := fmt.Sprintf("%s/jobs/%d/results", ts.URL, job.ID)
	resp, body := get(url, "application/json")
	if resp.StatusCode != http.StatusConflict || !strings.Contains(resp.Header.Get("Content-Type"), "application/json") {
		t.Errorf("JSON client got %d %q", resp.StatusCode, resp.Header.Get("Content-Type"))
	}
	var envelope struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(body, &envelope); err != nil || envelope.Error == "" {
		t.Errorf("JSON error envelope malformed: %s", body)
	}
	if resp, _ := get(url, ""); strings.Contains(resp.Header.Get("Content-Type"), "application/json") {
		t.Errorf("plain client got JSON error: %q", resp.Header.Get("Content-Type"))
	}

	// Validation failure on POST /jobs negotiates the same way.
	body2, ctype := buildUpload(t, map[string]string{"b": "99"},
		map[string][]byte{"reference": refFasta, "reads": readsFastq})
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/jobs", body2)
	req.Header.Set("Content-Type", ctype)
	req.Header.Set("Accept", "application/json")
	pr, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	praw, _ := io.ReadAll(pr.Body)
	pr.Body.Close()
	if pr.StatusCode != http.StatusBadRequest || !strings.Contains(pr.Header.Get("Content-Type"), "application/json") {
		t.Errorf("validation error for JSON client: %d %q %s", pr.StatusCode, pr.Header.Get("Content-Type"), praw)
	}

	// A finished job's TSV announces its exact size.
	submitJob(t, s, ts, map[string]string{"backend": "cpu"},
		map[string][]byte{"reference": refFasta, "reads": readsFastq})
	s.Wait()
	rr, tsv := get(fmt.Sprintf("%s/jobs/%d/results", ts.URL, job.ID+1), "")
	if rr.StatusCode != http.StatusOK {
		t.Fatalf("results returned %d", rr.StatusCode)
	}
	if cl := rr.Header.Get("Content-Length"); cl != fmt.Sprint(len(tsv)) {
		t.Errorf("Content-Length %q, body %d bytes", cl, len(tsv))
	}
}
