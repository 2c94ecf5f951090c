package server

import (
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"bwaver/internal/obs"
)

// Worker-mode hooks: the pieces internal/cluster needs from the server to
// run it as a cluster node — the shared ring-key derivation, the deadline
// budget header, and the queue-pressure readings the gateway's heartbeats
// consume.

// Default RRR parameters for submissions that do not specify b/sf; shared
// with the gateway so its ring-key extraction defaults match the workers'
// admission defaults.
const (
	DefaultB  = 15
	DefaultSF = 50
)

// TimeoutBudgetHeader is the request header carrying a job's remaining
// deadline budget in whole milliseconds. A gateway stamps it on forwarded
// submissions with deadline-minus-elapsed, so a retried or failed-over job
// never restarts its clock: the worker caps its own -job-timeout to this
// budget (see effectiveTimeout).
const TimeoutBudgetHeader = "X-Bwaver-Timeout-Ms"

// RingKey is the alias key of a submission: the hex SHA-256 of the raw
// reference upload joined with the parameters that shape the index built from
// it. The worker's index cache maps it to the core.CacheKey of the parsed
// reference (indexCache.aliases); the cluster gateway hashes it onto its
// worker ring, so a repeat upload lands where that mapping — and the index —
// already live. Neither side parses the reference to compute it.
func RingKey(refDigest string, b, sf, ftabK int) string {
	return fmt.Sprintf("%s|%d|%d|%d", refDigest, b, sf, ftabK)
}

// effectiveTimeout resolves a submission's job timeout: the server's own
// -job-timeout, shrunk to the gateway-propagated remaining budget when that
// is tighter (or adopted outright when the server has no timeout of its
// own). Zero means unbounded.
func (s *Server) effectiveTimeout(r *http.Request) time.Duration {
	t := s.cfg.JobTimeout
	v := strings.TrimSpace(r.Header.Get(TimeoutBudgetHeader))
	if v == "" {
		return t
	}
	ms, err := strconv.ParseInt(v, 10, 64)
	if err != nil || ms <= 0 {
		return t
	}
	budget := time.Duration(ms) * time.Millisecond
	if t == 0 || budget < t {
		return budget
	}
	return t
}

// withRequestID stamps every request with an X-Request-Id — the client's (a
// gateway forwards one per job) or a freshly minted one — echoes it on the
// response, and puts it on the context for the access log and job records.
func (s *Server) withRequestID(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		reqID := strings.TrimSpace(r.Header.Get(obs.RequestIDHeader))
		if reqID == "" {
			reqID = obs.NewRequestID()
		}
		w.Header().Set(obs.RequestIDHeader, reqID)
		next.ServeHTTP(w, r.WithContext(obs.WithRequestID(r.Context(), reqID)))
	})
}

// jobTimeout resolves a job's runtime bound: its admission-time budget when
// it has one, else the server-wide -job-timeout (journal replays carry no
// budget — a persisted remainder would be stale by the restart).
func (s *Server) jobTimeout(job *Job) time.Duration {
	if job.timeout > 0 {
		return job.timeout
	}
	return s.cfg.JobTimeout
}

// QueueDepth reports how many jobs hold admission queue slots (queued +
// uploading) — the figure the gateway's heartbeat reads for load-aware
// decisions.
func (s *Server) QueueDepth() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.queuedCount
}

// JobsInFlight reports how many jobs are currently running a pipeline.
func (s *Server) JobsInFlight() int {
	return s.countJobs(StateRunning)
}
