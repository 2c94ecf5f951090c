package cluster

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"mime"
	"mime/multipart"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"time"

	"bwaver/internal/obs"
	"bwaver/internal/server"
)

// forwardOutcome is one settled submission attempt: where it landed and what
// the owner answered.
type forwardOutcome struct {
	worker   string // owner base URL; "" = served by the embedded local server
	status   int
	header   http.Header
	body     []byte
	remoteID int
	state    string
	replayed bool
}

// errNoCandidates reports an empty healthy-candidate set.
var errNoCandidates = errors.New("no healthy workers")

// remainingBudget returns the job's unspent deadline. ok is false when the
// budget is exhausted; a zero deadline means "no budget" and reports ok with
// zero remaining.
func remainingBudget(rj *routedJob) (time.Duration, bool) {
	if rj.deadline.IsZero() {
		return 0, true
	}
	left := time.Until(rj.deadline)
	return left, left > 0
}

// forwardHeaders stamps the cross-process job identity on an upstream
// request: idempotency key (dedupe), request id (tracing), and the remaining
// deadline budget (satellite fix: a retried or failed-over forward must NOT
// hand the worker a fresh full timeout — it gets deadline minus elapsed,
// recomputed at this call).
func forwardHeaders(req *http.Request, rj *routedJob) {
	if rj.contentType != "" {
		req.Header.Set("Content-Type", rj.contentType)
	}
	req.Header.Set("Accept", "application/json")
	if rj.idemKey != "" {
		req.Header.Set("Idempotency-Key", rj.idemKey)
	}
	if rj.requestID != "" {
		req.Header.Set(obs.RequestIDHeader, rj.requestID)
	}
	if left, ok := remainingBudget(rj); ok && !rj.deadline.IsZero() {
		req.Header.Set(TimeoutHeader, strconv.FormatInt(left.Milliseconds()+1, 10))
	}
}

// retryableStatus reports whether a worker's rejection should move the job to
// the next ring replica: overload and drain answers (429/503) and transient
// upstream faults (502/504). Client errors pass through — no replica will
// judge a malformed upload differently.
func retryableStatus(status int) bool {
	switch status {
	case http.StatusTooManyRequests, http.StatusServiceUnavailable,
		http.StatusBadGateway, http.StatusGatewayTimeout:
		return true
	}
	return false
}

// forwardSubmit pushes a submission onto the ring: candidates are tried in
// ring order (primary, then replicas) with exponential backoff + jitter
// between attempts, and the deadline budget shrinks as attempts burn time.
// When every candidate is down — or there were none — the job is served by
// the embedded local server (graceful degradation to standalone).
func (g *Gateway) forwardSubmit(ctx context.Context, rj *routedJob) (*forwardOutcome, error) {
	cands := g.reg.Candidates(rj.key)
	var lastErr error
	for attempt := 0; attempt < g.cfg.ForwardAttempts && attempt < len(cands); attempt++ {
		if attempt > 0 {
			if err := g.backoff(ctx, attempt); err != nil {
				return nil, err
			}
		}
		if _, ok := remainingBudget(rj); !ok {
			return nil, fmt.Errorf("deadline exhausted after %d attempts", attempt)
		}
		target := cands[attempt]
		out, err := g.forwardOnce(ctx, rj, target)
		if err != nil {
			lastErr = err
			g.reg.ReportForward(target, false, err.Error())
			g.mRetries.With(target).Inc()
			g.log.Warn("forward attempt failed", "worker", target, "gw_job", rj.gwID, "err", err)
			continue
		}
		g.reg.ReportForward(target, true, "")
		if retryableStatus(out.status) {
			lastErr = fmt.Errorf("worker %s rejected the job: HTTP %d", target, out.status)
			g.mRetries.With(target).Inc()
			g.log.Warn("worker rejected job, trying next replica",
				"worker", target, "gw_job", rj.gwID, "status", out.status)
			continue
		}
		g.mForwards.With(target).Inc()
		return out, nil
	}
	if len(cands) == 0 {
		lastErr = errNoCandidates
	}
	// Standalone fallback: serve the job ourselves rather than failing it.
	g.log.Warn("no worker accepted job; serving locally", "gw_job", rj.gwID, "cause", lastErr)
	out, err := g.forwardLocal(ctx, rj)
	if err != nil {
		return nil, fmt.Errorf("%v (local fallback also failed: %w)", lastErr, err)
	}
	g.mLocalJobs.With().Inc()
	return out, nil
}

// backoff sleeps RetryBase·2^(attempt-1) plus up to 50% jitter, honoring ctx.
func (g *Gateway) backoff(ctx context.Context, attempt int) error {
	d := g.cfg.RetryBase << (attempt - 1)
	d += time.Duration(rand.Int63n(int64(d)/2 + 1))
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// forwardOnce performs one submission round trip against one worker.
func (g *Gateway) forwardOnce(ctx context.Context, rj *routedJob, target string) (*forwardOutcome, error) {
	attemptCtx, cancel := context.WithTimeout(ctx, g.attemptTimeout(rj))
	defer cancel()
	url := target + rj.path
	if rj.query != "" {
		url += "?" + rj.query
	}
	req, err := http.NewRequestWithContext(attemptCtx, rj.method, url, bytes.NewReader(rj.body))
	if err != nil {
		return nil, err
	}
	forwardHeaders(req, rj)
	resp, err := g.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 4<<20))
	if err != nil {
		return nil, err
	}
	return decodeOutcome(target, resp, body), nil
}

// attemptTimeout bounds one submission round trip: the configured worker
// timeout, shrunk to the job's remaining budget when that is tighter. The
// submission answer is immediate (202-style accept), so WorkerTimeout — not
// JobTimeout — is the right scale.
func (g *Gateway) attemptTimeout(rj *routedJob) time.Duration {
	d := g.cfg.WorkerTimeout
	if left, ok := remainingBudget(rj); ok && !rj.deadline.IsZero() && left < d {
		d = left
	}
	if d <= 0 {
		d = time.Millisecond
	}
	return d
}

// decodeOutcome folds an HTTP submission response into a forwardOutcome.
func decodeOutcome(worker string, resp *http.Response, body []byte) *forwardOutcome {
	out := &forwardOutcome{
		worker:   worker,
		status:   resp.StatusCode,
		header:   resp.Header,
		body:     body,
		replayed: resp.Header.Get("Idempotency-Replayed") == "true",
	}
	var m struct {
		ID    int    `json:"id"`
		State string `json:"state"`
	}
	if json.Unmarshal(body, &m) == nil {
		out.remoteID = m.ID
		out.state = m.State
	}
	return out
}

// forwardLocal serves a submission with the embedded local server, in
// process. The response is decoded exactly like a remote worker's.
func (g *Gateway) forwardLocal(ctx context.Context, rj *routedJob) (*forwardOutcome, error) {
	hdr := http.Header{}
	if rj.idemKey != "" {
		hdr.Set("Idempotency-Key", rj.idemKey)
	}
	if rj.requestID != "" {
		hdr.Set(obs.RequestIDHeader, rj.requestID)
	}
	if left, ok := remainingBudget(rj); ok && !rj.deadline.IsZero() {
		hdr.Set(TimeoutHeader, strconv.FormatInt(left.Milliseconds()+1, 10))
	}
	rec, err := g.localRoundTrip(ctx, rj.method, rj.path, rj.query, rj.body, func(req *http.Request) {
		if rj.contentType != "" {
			req.Header.Set("Content-Type", rj.contentType)
		}
		for k, vs := range hdr {
			req.Header[k] = vs
		}
	})
	if err != nil {
		return nil, err
	}
	resp := rec.Result()
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	return decodeOutcome("", resp, body), nil
}

// localRoundTrip runs one request against the embedded local server's
// handler without touching the network. mutate (optional) adjusts headers
// before dispatch.
func (g *Gateway) localRoundTrip(ctx context.Context, method, path, query string, body []byte, mutate func(*http.Request)) (*httptest.ResponseRecorder, error) {
	url := path
	if query != "" {
		url += "?" + query
	}
	req, err := http.NewRequestWithContext(ctx, method, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Accept", "application/json")
	if mutate != nil {
		mutate(req)
	}
	rec := httptest.NewRecorder()
	g.localHandler.ServeHTTP(rec, req)
	return rec, nil
}

// fetchStatus asks a route's current owner for the job's state (used for
// idempotent replay answers).
func (g *Gateway) fetchStatus(r *http.Request, rj *routedJob) (*forwardOutcome, error) {
	g.mu.Lock()
	worker, remoteID := rj.worker, rj.remoteID
	g.mu.Unlock()
	path := fmt.Sprintf("/api/jobs/%d", remoteID)
	if worker == "" {
		rec, err := g.localRoundTrip(r.Context(), http.MethodGet, path, "", nil, nil)
		if err != nil {
			return nil, err
		}
		resp := rec.Result()
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return decodeOutcome("", resp, body), nil
	}
	body, err := g.fetchWorker(r.Context(), worker, path)
	if err != nil {
		return nil, err
	}
	out := &forwardOutcome{worker: worker, status: http.StatusOK, body: body}
	var m struct {
		ID    int    `json:"id"`
		State string `json:"state"`
	}
	if json.Unmarshal(body, &m) == nil {
		out.remoteID = m.ID
		out.state = m.State
	}
	return out, nil
}

// fetchWorker GETs a worker endpoint with the scatter-gather timeout and
// returns the body of a 2xx answer.
func (g *Gateway) fetchWorker(ctx context.Context, workerURL, path string) ([]byte, error) {
	fetchCtx, cancel := context.WithTimeout(ctx, g.cfg.WorkerTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(fetchCtx, http.MethodGet, workerURL+path, nil)
	if err != nil {
		return nil, err
	}
	req.Header.Set("Accept", "application/json")
	resp, err := g.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 8<<20))
	if err != nil {
		return nil, err
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return nil, fmt.Errorf("%s%s: HTTP %d", workerURL, path, resp.StatusCode)
	}
	return body, nil
}

// failoverWorker re-forwards every live routed job owned by a dead (or
// deregistered) worker to the next replica on the ring. The retained
// submission payload plus the original idempotency key make this safe: if
// the "dead" worker was actually alive and already ran the job, the replica
// runs it too but the results are deterministic and bit-identical, and a
// retry that lands back on the original dedupes outright.
func (g *Gateway) failoverWorker(deadURL string) {
	g.mu.Lock()
	var victims []*routedJob
	for _, rj := range g.routes {
		if rj.worker == deadURL && !rj.terminal && !rj.failingOver && g.canFailoverLocked(rj) {
			rj.failingOver = true
			victims = append(victims, rj)
		}
	}
	g.mu.Unlock()
	for _, rj := range victims {
		g.failoverRoute(rj)
	}
}

// canFailoverLocked reports whether a route's submission can be replayed
// elsewhere. Buffered submissions (multipart /jobs, /demo) always can.
// Chunked jobs can only while still uploading: the re-created shell has no
// chunks, and the client's offset polling restarts the transfer; past that
// point the payload only exists on the dead worker.
func (g *Gateway) canFailoverLocked(rj *routedJob) bool {
	if !rj.chunked {
		return rj.body != nil || rj.method == http.MethodGet
	}
	return rj.lastState == "" || rj.lastState == "uploading"
}

// failoverRoute re-forwards one job. On success the route is re-pointed at
// the new owner; on failure it stays pinned to the dead worker (clients see
// 502 until it returns or a later sweep succeeds).
func (g *Gateway) failoverRoute(rj *routedJob) {
	defer func() {
		g.mu.Lock()
		rj.failingOver = false
		g.mu.Unlock()
	}()
	out, err := g.forwardSubmit(context.Background(), rj)
	if err != nil {
		g.log.Error("failover failed; job pinned to dead worker",
			"gw_job", rj.gwID, "worker", rj.worker, "err", err)
		return
	}
	if out.status < 200 || out.status > 299 {
		g.log.Error("failover rejected by replica",
			"gw_job", rj.gwID, "status", out.status, "body", string(out.body))
		return
	}
	g.mu.Lock()
	from := rj.worker
	rj.worker = out.worker
	rj.remoteID = out.remoteID
	rj.failovers++
	if out.state != "" {
		rj.lastState = out.state
	}
	g.mu.Unlock()
	g.mFailovers.With(workerLabel(out.worker)).Inc()
	g.log.Info("job failed over",
		"gw_job", rj.gwID, "from", workerLabel(from), "to", workerLabel(out.worker),
		"remote_job", out.remoteID, "request_id", rj.requestID, "replayed", out.replayed)
}

// ringKeyForUpload computes the consistent-hash key for a buffered multipart
// submission: server.RingKey over the SHA-256 of the reference part's bytes
// and the b/sf form fields — the alias key the worker's index cache looks the
// upload up by, so the gateway never parses a reference. Index affinity is the
// whole point: the same upload and parameters always land on the same worker,
// whose cache is already warm. Two byte-different encodings of one sequence
// hash apart and may land on different workers; each then builds once. Any
// scan trouble falls back to hashing the raw body (uniform spread, no
// affinity, still deterministic).
func (g *Gateway) ringKeyForUpload(contentType string, body []byte) string {
	key, err := ringKeyFromMultipart(contentType, body, g.cfg.FtabK)
	if err != nil {
		g.log.Warn("ring key: falling back to raw-body hash", "cause", err)
		return fmt.Sprintf("raw|%016x", ringHash(string(body)))
	}
	return key
}

// ringKeyFromMultipart scans a multipart body for the reference part (hashed
// as it streams past, first one wins like the worker's form reader) and the
// b/sf fields.
func ringKeyFromMultipart(contentType string, body []byte, ftabK int) (string, error) {
	mediaType, params, err := mime.ParseMediaType(contentType)
	if err != nil {
		return "", fmt.Errorf("content type: %w", err)
	}
	if !strings.HasPrefix(mediaType, "multipart/") {
		return "", fmt.Errorf("not multipart: %s", mediaType)
	}
	mr := multipart.NewReader(bytes.NewReader(body), params["boundary"])
	refDigest := ""
	b, sf := server.DefaultB, server.DefaultSF
	for {
		part, err := mr.NextPart()
		if err == io.EOF {
			break
		}
		if err != nil {
			return "", fmt.Errorf("multipart: %w", err)
		}
		switch name := part.FormName(); {
		case name == "reference" && part.FileName() != "" && refDigest == "":
			h := sha256.New()
			if _, err := io.Copy(h, part); err != nil {
				return "", fmt.Errorf("reference part: %w", err)
			}
			refDigest = hex.EncodeToString(h.Sum(nil))
		case name == "b" || name == "sf":
			raw, err := io.ReadAll(io.LimitReader(part, 64))
			if err == nil {
				if v, perr := strconv.Atoi(strings.TrimSpace(string(raw))); perr == nil {
					if name == "b" {
						b = v
					} else {
						sf = v
					}
				}
			}
		}
		part.Close()
	}
	if refDigest == "" {
		return "", errors.New("no reference part")
	}
	return server.RingKey(refDigest, b, sf, ftabK), nil
}

// readAll drains r fully.
func readAll(r io.Reader) ([]byte, error) { return io.ReadAll(r) }

// isMaxBytes reports whether err came from http.MaxBytesReader.
func isMaxBytes(err error) bool {
	var mbe *http.MaxBytesError
	return errors.As(err, &mbe)
}

// copyHeader copies the named headers between header maps, skipping absent
// ones.
func copyHeader(dst, src http.Header, names ...string) {
	for _, name := range names {
		if v := src.Get(name); v != "" {
			dst.Set(name, v)
		}
	}
}
