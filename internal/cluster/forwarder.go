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
	"net/url"
	"strconv"
	"strings"
	"time"

	"bwaver/internal/obs"
	"bwaver/internal/resilience"
	"bwaver/internal/server"
)

// forwardOutcome is one settled submission attempt: where it landed and what
// the owner answered.
type forwardOutcome struct {
	worker   string // the upstream that answered: a worker URL or localURL
	status   int
	header   http.Header
	body     []byte
	remoteID int
	state    string
	replayed bool
}

// maxAnswerBytes bounds a buffered upstream answer: a submission ack, a job
// status, a chunk ack, a job list, a stats or metrics scrape.
const maxAnswerBytes = 32 << 20

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
// deadline budget (a retried or failed-over forward must NOT hand the worker
// a fresh full timeout — it gets deadline minus elapsed, recomputed at this
// call).
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
		req.Header.Set(server.TimeoutBudgetHeader, strconv.FormatInt(left.Milliseconds()+1, 10))
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
// When every candidate is down — or there were none — the same round trip
// goes to the embedded fallback server (graceful degradation to standalone).
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
	g.log.Warn("no worker accepted job; serving locally", "gw_job", rj.gwID, "cause", lastErr)
	out, err := g.forwardOnce(ctx, rj, localURL)
	if err != nil {
		return nil, fmt.Errorf("%v (local fallback also failed: %w)", lastErr, err)
	}
	g.mLocalJobs.With().Inc()
	return out, nil
}

// maxForwardBackoff caps the nominal delay between forward attempts.
const maxForwardBackoff = 5 * time.Second

// retryDelay is RetryBase·2^(attempt-1), at most maxForwardBackoff, plus up
// to 50% jitter.
func (g *Gateway) retryDelay(attempt int) time.Duration {
	d := resilience.Backoff{Base: g.cfg.RetryBase, Max: maxForwardBackoff}.Delay(attempt)
	return d + time.Duration(rand.Int63n(int64(d)/2+1))
}

// backoff sleeps retryDelay(attempt), honoring ctx.
func (g *Gateway) backoff(ctx context.Context, attempt int) error {
	t := time.NewTimer(g.retryDelay(attempt))
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// forwardOnce performs one submission round trip against one upstream.
func (g *Gateway) forwardOnce(ctx context.Context, rj *routedJob, target string) (*forwardOutcome, error) {
	attemptCtx, cancel := context.WithTimeout(ctx, g.attemptTimeout(rj))
	defer cancel()
	endpoint := target + rj.path
	if rj.query != "" {
		endpoint += "?" + rj.query
	}
	req, err := http.NewRequestWithContext(attemptCtx, rj.method, endpoint, bytes.NewReader(rj.body))
	if err != nil {
		return nil, err
	}
	forwardHeaders(req, rj)
	resp, body, err := g.roundTrip(req)
	if err != nil {
		return nil, err
	}
	out := &forwardOutcome{
		worker:   target,
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
	return out, nil
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

// roundTrip sends req upstream and reads the whole answer (up to
// maxAnswerBytes).
func (g *Gateway) roundTrip(req *http.Request) (*http.Response, []byte, error) {
	resp, err := g.client.Do(req)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, maxAnswerBytes))
	if err != nil {
		return nil, nil, err
	}
	return resp, body, nil
}

// fetch GETs an upstream endpoint within WorkerTimeout and returns the body
// of a 2xx answer.
func (g *Gateway) fetch(ctx context.Context, upstream, path string) ([]byte, error) {
	ctx, cancel := context.WithTimeout(ctx, g.cfg.WorkerTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, upstream+path, nil)
	if err != nil {
		return nil, err
	}
	req.Header.Set("Accept", "application/json")
	resp, body, err := g.roundTrip(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return nil, fmt.Errorf("%s%s: HTTP %d", workerLabel(upstream), path, resp.StatusCode)
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
// and the b/sf parameters — the alias key the worker's index cache looks the
// upload up by, so the gateway never parses a reference. Index affinity is the
// whole point: the same upload and parameters always land on the same worker,
// whose cache is already warm. Two byte-different encodings of one sequence
// hash apart and may land on different workers; each then builds once. Any
// scan trouble, or parameters the worker would reject, falls back to hashing
// the raw body (uniform spread, no affinity, still deterministic).
func (g *Gateway) ringKeyForUpload(contentType, query string, body []byte) string {
	key, err := ringKeyFromMultipart(contentType, query, body, g.cfg.FtabK)
	if err != nil {
		g.log.Warn("ring key: falling back to raw-body hash", "cause", err)
		return fmt.Sprintf("raw|%016x", ringHash(string(body)))
	}
	return key
}

// ringKeyFromMultipart scans a multipart body for the reference part (hashed
// as it streams past) and the plain fields, and takes b and sf from
// server.DecodeForm, the decoder the worker's submit handler runs: the first
// reference file part wins, and the fields resolve by the worker's rule.
func ringKeyFromMultipart(contentType, query string, body []byte, ftabK int) (string, error) {
	mediaType, params, err := mime.ParseMediaType(contentType)
	if err != nil {
		return "", fmt.Errorf("content type: %w", err)
	}
	if !strings.HasPrefix(mediaType, "multipart/") {
		return "", fmt.Errorf("not multipart: %s", mediaType)
	}
	mr := multipart.NewReader(bytes.NewReader(body), params["boundary"])
	refDigest := ""
	fields := url.Values{}
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
		case name != "" && part.FileName() == "":
			raw, _ := io.ReadAll(part)
			fields.Add(name, string(raw))
		}
		part.Close()
	}
	if refDigest == "" {
		return "", errors.New("no reference part")
	}
	q, _ := url.ParseQuery(query)
	p, err := server.DecodeForm(q, fields)
	if err != nil {
		return "", err
	}
	return server.RingKey(refDigest, p.B, p.SF, ftabK), nil
}

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
