package cluster

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"

	"bwaver/internal/obs"
)

// Job-scoped proxying. The gateway owns the job ID namespace: clients see
// gateway IDs, upstreams keep their own, and the proxy rewrites between them —
// in the request path on the way up and in JSON/HTML bodies on the way down.
// Buffered endpoints (status, chunk uploads, finalize, cancel, trace) are
// captured and rewritten; streaming endpoints (results, SSE) pass bytes
// through with flushing so live tails stay live. A job served by the
// embedded fallback server is proxied like any other: its owner is localURL.

// hopHeaders are not forwarded (RFC 9110 connection-level fields).
var hopHeaders = map[string]bool{
	"Connection":          true,
	"Keep-Alive":          true,
	"Proxy-Authorization": true,
	"Proxy-Connection":    true,
	"Te":                  true,
	"Trailer":             true,
	"Transfer-Encoding":   true,
	"Upgrade":             true,
	"Content-Length":      true,
	"Host":                true,
}

// routeFromRequest resolves the {id} path segment to a routed job.
func (g *Gateway) routeFromRequest(w http.ResponseWriter, r *http.Request) (*routedJob, bool) {
	id, err := strconv.Atoi(r.PathValue("id"))
	if err != nil {
		jsonError(w, http.StatusBadRequest, "bad job id")
		return nil, false
	}
	rj := g.route(id)
	if rj == nil {
		jsonError(w, http.StatusNotFound, fmt.Sprintf("no such job: %d", id))
		return nil, false
	}
	return rj, true
}

// ensureOwnerAlive fails a route over before proxying when its worker has
// been evicted — so a status poll right after a crash already lands on the
// replica instead of bouncing off the corpse. The fallback server is never
// evicted, and a route that has not landed yet has no owner to fail from.
func (g *Gateway) ensureOwnerAlive(rj *routedJob) {
	g.mu.Lock()
	if rj.terminal || rj.worker == "" || rj.worker == localURL || rj.failingOver ||
		!g.canFailoverLocked(rj) || g.reg.Healthy(rj.worker) {
		g.mu.Unlock()
		return
	}
	rj.failingOver = true
	g.mu.Unlock()
	g.failoverRoute(rj)
}

// proxy sends the owner its copy of a job-scoped request — same method and
// query, path re-addressed to the owner's job ID, client headers minus
// hop-by-hop, plus the route's request id — after failing the route over if
// its worker has been evicted. The outcome feeds the owner's breaker. On a
// transport failure it answers 502 itself and returns a nil response.
func (g *Gateway) proxy(ctx context.Context, w http.ResponseWriter, r *http.Request, rj *routedJob, body io.Reader) (*http.Response, int) {
	g.ensureOwnerAlive(rj)
	g.mu.Lock()
	worker, remoteID := rj.worker, rj.remoteID
	g.mu.Unlock()
	target := worker + rewritePathID(r.URL.Path, rj.gwID, remoteID)
	if r.URL.RawQuery != "" {
		target += "?" + r.URL.RawQuery
	}
	req, err := http.NewRequestWithContext(ctx, r.Method, target, body)
	if err != nil {
		jsonError(w, http.StatusInternalServerError, err.Error())
		return nil, 0
	}
	for k, vs := range r.Header {
		if !hopHeaders[k] {
			req.Header[k] = vs
		}
	}
	if rj.requestID != "" {
		req.Header.Set(obs.RequestIDHeader, rj.requestID)
	}
	resp, err := g.client.Do(req)
	if err != nil {
		g.reg.ReportForward(worker, false, err.Error())
		jsonError(w, http.StatusBadGateway,
			fmt.Sprintf("job %d's worker is unreachable: %v", rj.gwID, err))
		return nil, 0
	}
	g.reg.ReportForward(worker, true, "")
	return resp, remoteID
}

// proxyBuffered captures the owner's whole response and re-addresses it to
// the gateway namespace before answering.
func (g *Gateway) proxyBuffered(w http.ResponseWriter, r *http.Request) {
	rj, ok := g.routeFromRequest(w, r)
	if !ok {
		return
	}
	// Bodyless reads get the scatter timeout; uploads can be large, so they
	// run on the client's own context.
	ctx := r.Context()
	var body io.Reader
	if r.Method == http.MethodPut || r.Method == http.MethodPost {
		b, ok := g.readBody(w, r)
		if !ok {
			return
		}
		body = bytes.NewReader(b)
	} else {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, g.cfg.WorkerTimeout)
		defer cancel()
	}
	resp, remoteID := g.proxy(ctx, w, r, rj, body)
	if resp == nil {
		return
	}
	defer resp.Body.Close()
	respBody, err := io.ReadAll(io.LimitReader(resp.Body, maxAnswerBytes))
	if err != nil {
		jsonError(w, http.StatusBadGateway, "reading worker response: "+err.Error())
		return
	}
	g.writeRewritten(w, resp, respBody, rj, remoteID)
}

// writeRewritten re-addresses a buffered upstream response to the gateway
// namespace: JSON `id` fields and HTML job links become the gateway's ID,
// and any observed job state is folded into the route.
func (g *Gateway) writeRewritten(w http.ResponseWriter, resp *http.Response, body []byte, rj *routedJob, remoteID int) {
	ct := resp.Header.Get("Content-Type")
	switch {
	case strings.Contains(ct, "application/json"):
		body = g.rewriteJobJSON(body, rj)
	case strings.Contains(ct, "text/html"):
		body = bytes.ReplaceAll(body,
			[]byte(fmt.Sprintf("/jobs/%d", remoteID)),
			[]byte(fmt.Sprintf("/jobs/%d", rj.gwID)))
	}
	copyHeader(w.Header(), resp.Header,
		"Content-Type", "Idempotency-Replayed", "Retry-After", "Cache-Control")
	if loc := resp.Header.Get("Location"); loc != "" {
		w.Header().Set("Location", rewritePathID(loc, remoteID, rj.gwID))
	}
	w.WriteHeader(resp.StatusCode)
	w.Write(body)
}

// proxyStream passes a streaming endpoint (results download, SSE/NDJSON
// live tail) through byte-for-byte with flushing. No ID rewriting is needed:
// result rows and stream events carry alignments, not job ids. Streams
// outlive any worker timeout by design; the client's context is the only
// bound.
func (g *Gateway) proxyStream(w http.ResponseWriter, r *http.Request) {
	rj, ok := g.routeFromRequest(w, r)
	if !ok {
		return
	}
	resp, _ := g.proxy(r.Context(), w, r, rj, nil)
	if resp == nil {
		return
	}
	defer resp.Body.Close()
	for k, vs := range resp.Header {
		if !hopHeaders[k] && k != obs.RequestIDHeader {
			w.Header()[k] = vs
		}
	}
	w.WriteHeader(resp.StatusCode)
	flushCopy(w, resp.Body)
}

// flushCopy streams src to w, flushing after every read so live event
// streams are delivered as they happen, not when a buffer fills.
func flushCopy(w http.ResponseWriter, src io.Reader) {
	flusher, _ := w.(http.Flusher)
	buf := make([]byte, 32<<10)
	for {
		n, err := src.Read(buf)
		if n > 0 {
			if _, werr := w.Write(buf[:n]); werr != nil {
				return
			}
			if flusher != nil {
				flusher.Flush()
			}
		}
		if err != nil {
			return
		}
	}
}
